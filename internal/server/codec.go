package server

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"

	"rcnvm/internal/sim"
)

// The wire codec. Every request and reply line of the TCP protocol, every
// POST /query body and every Client exchange goes through these four
// functions, which write and read exactly what encoding/json would:
//
//   - appendRequest and appendResponse append json.Marshal(v) + "\n" to a
//     caller's buffer, without reflection. A reply holding what they do not
//     encode themselves (a trace document, a float JSON cannot carry) is
//     handed whole to json.Marshal, which also reports its error.
//   - decodeRequest and decodeResponse read the shapes the traffic sends —
//     exact lower-case keys, each at most once, plain ASCII strings,
//     integers without fraction or exponent — and hand anything else to
//     json.Unmarshal, so every input is accepted, refused and decoded as
//     json.Unmarshal does.
//
// FuzzCodec holds both halves to encoding/json.

// appendResponse appends r's JSON encoding and a newline to dst.
func appendResponse(dst []byte, r *Response) ([]byte, error) {
	if out, ok := appendReply(dst, r); ok {
		return append(out, '\n'), nil
	}
	b, err := json.Marshal(r)
	if err != nil {
		return dst, err
	}
	return append(append(dst, b...), '\n'), nil
}

// appendReply encodes r, or reports false when r holds something only
// json.Marshal encodes: a trace document (which it compacts and escapes)
// or a NaN or infinite float (which it refuses).
func appendReply(b []byte, r *Response) ([]byte, bool) {
	if r == nil {
		return append(b, "null"...), true
	}
	if len(r.TraceEvents) > 0 {
		return b, false
	}
	b = append(b, '{')
	mark := len(b)
	if r.ID != 0 {
		b = strconv.AppendUint(append(b, `"id":`...), r.ID, 10)
	}
	if len(r.Columns) > 0 {
		b = append(field(b, mark, `"columns":`), '[')
		for i, c := range r.Columns {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, c)
		}
		b = append(b, ']')
	}
	if len(r.Rows) > 0 {
		b = append(field(b, mark, `"rows":`), '[')
		for i, row := range r.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			if row == nil {
				b = append(b, "null"...)
				continue
			}
			b = append(b, '[')
			for j, v := range row {
				if j > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendUint(b, v, 10)
			}
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	if len(r.Floats) > 0 {
		b = append(field(b, mark, `"floats":`), '[')
		for i, f := range r.Floats {
			if i > 0 {
				b = append(b, ',')
			}
			var ok bool
			if b, ok = appendFloat(b, f); !ok {
				return b, false
			}
		}
		b = append(b, ']')
	}
	if r.Affected != 0 {
		b = strconv.AppendInt(field(b, mark, `"affected":`), int64(r.Affected), 10)
	}
	if r.Message != "" {
		b = appendString(field(b, mark, `"message":`), r.Message)
	}
	if r.Timing != nil {
		var ok bool
		if b, ok = appendTiming(field(b, mark, `"timing":`), r.Timing); !ok {
			return b, false
		}
	}
	if len(r.Results) > 0 {
		b = append(field(b, mark, `"results":`), '[')
		for i, slot := range r.Results {
			if i > 0 {
				b = append(b, ',')
			}
			var ok bool
			if b, ok = appendReply(b, slot); !ok {
				return b, false
			}
		}
		b = append(b, ']')
	}
	if e := r.Error; e != nil {
		b = appendString(append(field(b, mark, `"error":`), `{"code":`...), e.Code)
		b = appendString(append(b, `,"message":`...), e.Message)
		if e.Retryable {
			b = append(b, `,"retryable":true`...)
		}
		b = append(b, '}')
	}
	return append(b, '}'), true
}

func appendTiming(b []byte, t *sim.Timing) ([]byte, bool) {
	b = strconv.AppendInt(append(b, `{"mem_ops":`...), int64(t.MemOps), 10)
	b = strconv.AppendInt(append(b, `,"dual_ps":`...), t.DualPs, 10)
	b = strconv.AppendInt(append(b, `,"row_ps":`...), t.RowPs, 10)
	b, ok := appendFloat(append(b, `,"speedup":`...), t.Speedup)
	if !ok {
		return b, false
	}
	if len(t.Shards) > 0 {
		b = append(b, `,"shards":[`...)
		for i, s := range t.Shards {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(b, `{"shard":`...), int64(s.Shard), 10)
			b = strconv.AppendInt(append(b, `,"mem_ops":`...), int64(s.MemOps), 10)
			b = strconv.AppendInt(append(b, `,"dual_ps":`...), s.DualPs, 10)
			b = strconv.AppendInt(append(b, `,"row_ps":`...), s.RowPs, 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}'), true
}

// appendRequest appends r's JSON encoding and a newline to dst.
func appendRequest(dst []byte, r *Request) []byte {
	b := append(dst, '{')
	mark := len(b)
	if r.ID != 0 {
		b = strconv.AppendUint(append(b, `"id":`...), r.ID, 10)
	}
	b = appendString(field(b, mark, `"query":`), r.Query)
	if len(r.Batch) > 0 {
		b = append(b, `,"batch":[`...)
		for i, s := range r.Batch {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, s)
		}
		b = append(b, ']')
	}
	if r.Timing {
		b = append(b, `,"timing":true`...)
	}
	if r.TimeoutMs != 0 {
		b = strconv.AppendInt(append(b, `,"timeout_ms":`...), r.TimeoutMs, 10)
	}
	if r.Trace {
		b = append(b, `,"trace":true`...)
	}
	if r.TraceID != 0 {
		b = strconv.AppendInt(append(b, `,"trace_id":`...), r.TraceID, 10)
	}
	return append(b, '}', '\n')
}

// field appends an object member's key, after a comma unless it is the
// first member (the object's members start at mark).
func field(b []byte, mark int, key string) []byte {
	if len(b) > mark {
		b = append(b, ',')
	}
	return append(b, key...)
}

// htmlSafe marks the ASCII bytes a JSON string carries as they are when
// HTML escaping is on, as json.Marshal's is.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendString appends s as json.Marshal quotes it: HTML-escaped, with
// U+2028 and U+2029 escaped and each invalid UTF-8 byte as U+FFFD.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// appendFloat appends f as json.Marshal writes a float64 (ES6 number
// formatting), or reports false for NaN and ±Inf, which it refuses.
func appendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 -> e-9, as json.Marshal writes it.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// decodeRequest decodes one request line as json.Unmarshal does.
func decodeRequest(data []byte, req *Request) error {
	if end, ok := scanRequest(data, req); ok && skipSpace(data, end) == len(data) {
		return nil
	}
	*req = Request{}
	return json.Unmarshal(data, req)
}

// scanRequest decodes the object data starts with into req when it holds
// only what a client's statement sends (id, query, timing), and returns
// the offset just past the object.
func scanRequest(data []byte, req *Request) (end int, ok bool) {
	*req = Request{}
	return scanObject(data, 0, func(key []byte, i int) (int, bool) {
		ok := false
		switch string(key) {
		case "id":
			req.ID, i, ok = scanUint(data, i)
		case "query":
			req.Query, i, ok = scanString(data, i)
		case "timing":
			req.Timing, i, ok = scanBool(data, i)
		}
		return i, ok
	})
}

// decodeResponse decodes one reply line as json.Unmarshal does.
func decodeResponse(data []byte, resp *Response) error {
	if end, ok := scanResponse(data, resp); ok && skipSpace(data, end) == len(data) {
		return nil
	}
	*resp = Response{}
	return json.Unmarshal(data, resp)
}

// scanResponse decodes the object data starts with into resp when it holds
// only a statement's result or error (id, columns, rows, floats, affected,
// message, error), and returns the offset just past the object.
func scanResponse(data []byte, resp *Response) (end int, ok bool) {
	*resp = Response{}
	return scanObject(data, 0, func(key []byte, i int) (int, bool) {
		ok := false
		switch string(key) {
		case "id":
			resp.ID, i, ok = scanUint(data, i)
		case "columns":
			resp.Columns, i, ok = scanStrings(data, i)
		case "rows":
			resp.Rows, i, ok = scanRows(data, i)
		case "floats":
			resp.Floats, i, ok = scanFloats(data, i)
		case "affected":
			var v int64
			v, i, ok = scanInt(data, i)
			resp.Affected = int(v)
			ok = ok && int64(resp.Affected) == v
		case "message":
			resp.Message, i, ok = scanString(data, i)
		case "error":
			resp.Error = new(WireError)
			i, ok = scanWireError(data, i, resp.Error)
		}
		return i, ok
	})
}

func scanWireError(data []byte, i int, e *WireError) (int, bool) {
	return scanObject(data, i, func(key []byte, i int) (int, bool) {
		ok := false
		switch string(key) {
		case "code":
			e.Code, i, ok = scanString(data, i)
		case "message":
			e.Message, i, ok = scanString(data, i)
		case "retryable":
			e.Retryable, i, ok = scanBool(data, i)
		}
		return i, ok
	})
}

// scanObject walks the JSON object at data[i] (after white space). It
// calls member with each key, which must be a plain string not seen before
// in the object, and the offset of its value; member returns the offset
// just past the value. It returns the offset just past the object.
func scanObject(data []byte, i int, member func(key []byte, i int) (int, bool)) (int, bool) {
	i = skipSpace(data, i)
	if i >= len(data) || data[i] != '{' {
		return 0, false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return i + 1, true
	}
	var seen [8][]byte // no shape read here has more keys
	for n := 0; ; n++ {
		start, end, ok := plainString(data, i)
		if !ok || n == len(seen) {
			return 0, false
		}
		seen[n] = data[start:end]
		for _, key := range seen[:n] {
			if string(key) == string(seen[n]) {
				return 0, false
			}
		}
		i = skipSpace(data, end+1)
		if i >= len(data) || data[i] != ':' {
			return 0, false
		}
		if i, ok = member(data[start:end], skipSpace(data, i+1)); !ok {
			return 0, false
		}
		more := false
		if i, more, ok = next(data, i, '}'); !ok || !more {
			return i, ok
		}
	}
}

// scanArray walks the JSON array at data[i], calling elem with the offset
// of each element; elem returns the offset just past it. It returns the
// offset just past the array.
func scanArray(data []byte, i int, elem func(i int) (int, bool)) (int, bool) {
	if i >= len(data) || data[i] != '[' {
		return 0, false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return i + 1, true
	}
	for {
		var more, ok bool
		if i, ok = elem(i); !ok {
			return 0, false
		}
		if i, more, ok = next(data, i, ']'); !ok || !more {
			return i, ok
		}
	}
}

// next steps over the white space and the ',' or the closing byte after a
// member or an element; more reports a ',', after which it steps over
// white space too.
func next(data []byte, i int, closing byte) (j int, more, ok bool) {
	i = skipSpace(data, i)
	switch {
	case i >= len(data):
		return 0, false, false
	case data[i] == closing:
		return i + 1, false, true
	case data[i] == ',':
		return skipSpace(data, i+1), true, true
	}
	return 0, false, false
}

func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

// plainString finds the JSON string at data[i] when it holds only ASCII
// and no control byte or escape, so that its bytes are its value, and
// returns their bounds: the closing quote is at end.
func plainString(data []byte, i int) (start, end int, ok bool) {
	if i >= len(data) || data[i] != '"' {
		return 0, 0, false
	}
	for j := i + 1; j < len(data); j++ {
		switch c := data[j]; {
		case c == '"':
			return i + 1, j, true
		case c < 0x20 || c >= utf8.RuneSelf || c == '\\':
			return 0, 0, false
		}
	}
	return 0, 0, false
}

func scanString(data []byte, i int) (string, int, bool) {
	start, end, ok := plainString(data, i)
	if !ok {
		return "", 0, false
	}
	return string(data[start:end]), end + 1, true
}

func scanBool(data []byte, i int) (bool, int, bool) {
	switch {
	case hasLiteral(data, i, "true"):
		return true, i + 4, true
	case hasLiteral(data, i, "false"):
		return false, i + 5, true
	}
	return false, 0, false
}

func hasLiteral(data []byte, i int, lit string) bool {
	return len(data)-i >= len(lit) && string(data[i:i+len(lit)]) == lit
}

// scanUint reads a JSON integer into a uint64 as json.Unmarshal does; a
// sign, a fraction, an exponent or an overflow is left to it.
func scanUint(data []byte, i int) (uint64, int, bool) {
	end, integer := numberEnd(data, i)
	if !integer || data[i] == '-' {
		return 0, 0, false
	}
	var v uint64
	for _, c := range data[i:end] {
		d := uint64(c - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, 0, false
		}
		v = v*10 + d
	}
	return v, end, true
}

// scanInt reads a JSON integer into an int64 as json.Unmarshal does; a
// fraction, an exponent or an overflow is left to it.
func scanInt(data []byte, i int) (int64, int, bool) {
	end, integer := numberEnd(data, i)
	if !integer {
		return 0, 0, false
	}
	neg := data[i] == '-'
	if neg {
		i++
	}
	var v uint64
	for _, c := range data[i:end] {
		d := uint64(c - '0')
		if v > (1<<63-d)/10 {
			return 0, 0, false
		}
		v = v*10 + d
	}
	switch {
	case neg:
		return -int64(v), end, true // -(1<<63) wraps to itself
	case v < 1<<63:
		return int64(v), end, true
	}
	return 0, 0, false
}

// numberEnd returns the end of the JSON number at data[i] and whether it
// is an integer (no fraction, no exponent); end is 0 when data[i:] does
// not start with a number of JSON's grammar.
func numberEnd(data []byte, i int) (end int, integer bool) {
	j := i
	if j < len(data) && data[j] == '-' {
		j++
	}
	switch {
	case j < len(data) && data[j] == '0':
		j++
	case j < len(data) && data[j] >= '1' && data[j] <= '9':
		j = digitsEnd(data, j)
	default:
		return 0, false
	}
	integer = true
	if j < len(data) && data[j] == '.' {
		integer = false
		if j = digitsEnd(data, j+1); data[j-1] == '.' {
			return 0, false
		}
	}
	if j < len(data) && (data[j] == 'e' || data[j] == 'E') {
		integer = false
		j++
		if j < len(data) && (data[j] == '+' || data[j] == '-') {
			j++
		}
		k := digitsEnd(data, j)
		if k == j {
			return 0, false
		}
		j = k
	}
	return j, integer
}

func digitsEnd(data []byte, i int) int {
	for i < len(data) && data[i] >= '0' && data[i] <= '9' {
		i++
	}
	return i
}

// scanStrings reads an array of plain strings.
func scanStrings(data []byte, i int) ([]string, int, bool) {
	n := 0
	end, ok := scanArray(data, i, func(j int) (int, bool) {
		n++
		_, e, ok := plainString(data, j)
		return e + 1, ok
	})
	if !ok {
		return nil, 0, false
	}
	out := make([]string, 0, n)
	scanArray(data, i, func(j int) (int, bool) {
		s, j, _ := scanString(data, j)
		out = append(out, s)
		return j, true
	})
	return out, end, true
}

// scanRows reads an array of arrays of integers into uint64s. The rows
// share one backing array.
func scanRows(data []byte, i int) ([][]uint64, int, bool) {
	rows, cells := 0, 0
	end, ok := scanArray(data, i, func(j int) (int, bool) {
		rows++
		return scanArray(data, j, func(k int) (int, bool) {
			cells++
			_, k, ok := scanUint(data, k)
			return k, ok
		})
	})
	if !ok {
		return nil, 0, false
	}
	out := make([][]uint64, 0, rows)
	flat := make([]uint64, 0, cells)
	scanArray(data, i, func(j int) (int, bool) {
		from := len(flat)
		j, _ = scanArray(data, j, func(k int) (int, bool) {
			v, k, _ := scanUint(data, k)
			flat = append(flat, v)
			return k, true
		})
		out = append(out, flat[from:len(flat):len(flat)])
		return j, true
	})
	return out, end, true
}

// scanFloats reads an array of numbers into float64s as json.Unmarshal
// does: strconv.ParseFloat of each number's text, which must not overflow.
func scanFloats(data []byte, i int) ([]float64, int, bool) {
	n := 0
	end, ok := scanArray(data, i, func(j int) (int, bool) {
		n++
		e, _ := numberEnd(data, j)
		return e, e > 0
	})
	if !ok {
		return nil, 0, false
	}
	out := make([]float64, 0, n)
	scanArray(data, i, func(j int) (int, bool) {
		e, _ := numberEnd(data, j)
		f, err := strconv.ParseFloat(string(data[j:e]), 64)
		ok = ok && err == nil
		out = append(out, f)
		return e, true
	})
	return out, end, ok
}
