package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzCodec holds the wire codec to encoding/json, its reference. Arbitrary
// bytes decode through decodeRequest and decodeResponse to the value and
// the error json.Unmarshal gives; a request body whose leading object the
// codec reads decodes as json.Decoder reads it. Requests and replies built
// from the same bytes, every field of every struct reachable from them
// included, encode through appendRequest and appendResponse to
// json.Marshal's bytes and a newline, or fail where it fails; what they
// encode decodes back as json.Unmarshal decodes it.
func FuzzCodec(f *testing.F) {
	for _, rig := range goldenRigs() {
		for _, c := range rig.cases {
			if len(c.line) < 4096 {
				f.Add([]byte(c.line))
			}
		}
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "replies.golden"))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(golden), "\n") {
		if reply, ok := strings.CutPrefix(line, "tcp "); ok {
			f.Add([]byte(reply))
		}
	}
	f.Add([]byte(`{"id":18446744073709551615,"affected":-9223372036854775808,"floats":[-0,1e-7,2.5E+30,0.000001]}`))
	f.Add([]byte(`{"rows":[[],[0],[18446744073709551616]],"columns":[],"error":{"code":"x","message":"","retryable":false}}`))
	// json.Unmarshal decodes a repeated object into the one it decoded first.
	f.Add([]byte(`{"error":{"code":"a","retryable":true},"error":{"code":"b"}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)

		var req Request
		fill(reflect.ValueOf(&req).Elem(), &fuzzSource{data: data}, 0)
		want, err := json.Marshal(&req)
		if err != nil {
			t.Fatalf("json.Marshal(%+v): %v", req, err)
		}
		got := appendRequest(nil, &req)
		if !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("appendRequest(%+v)\n got %q\nwant %q", req, got, want)
		}
		checkDecode(t, bytes.TrimSuffix(got, []byte("\n")))

		var resp Response
		fill(reflect.ValueOf(&resp).Elem(), &fuzzSource{data: data}, 0)
		want, werr := json.Marshal(&resp)
		got, gerr := appendResponse(nil, &resp)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("appendResponse(%+v): error %v, json.Marshal's %v", resp, gerr, werr)
		}
		if werr == nil {
			if !bytes.Equal(got, append(want, '\n')) {
				t.Fatalf("appendResponse(%+v)\n got %q\nwant %q", resp, got, want)
			}
			checkDecode(t, bytes.TrimSuffix(got, []byte("\n")))
		}
	})
}

// checkDecode holds decodeRequest and decodeResponse to json.Unmarshal on
// data, and scanRequest, which reads a POST /query body, to json.Decoder.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	var req, wantReq Request
	gerr, werr := decodeRequest(data, &req), json.Unmarshal(data, &wantReq)
	sameDecode(t, "decodeRequest", data, req, wantReq, gerr, werr)

	var resp, wantResp Response
	gerr, werr = decodeResponse(data, &resp), json.Unmarshal(data, &wantResp)
	sameDecode(t, "decodeResponse", data, resp, wantResp, gerr, werr)

	if _, ok := scanRequest(data, &req); ok {
		var body Request
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&body); err != nil || !reflect.DeepEqual(req, body) {
			t.Fatalf("scanRequest(%q) = %+v; json.Decoder: %+v, %v", data, req, body, err)
		}
	}
}

func sameDecode(t *testing.T, name string, data []byte, got, want any, gerr, werr error) {
	t.Helper()
	switch {
	case (gerr == nil) != (werr == nil):
		t.Fatalf("%s(%q): error %v, json.Unmarshal's %v", name, data, gerr, werr)
	case werr != nil && gerr.Error() != werr.Error():
		t.Fatalf("%s(%q): error %q, json.Unmarshal's %q", name, data, gerr, werr)
	case werr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%s(%q)\n got %#v\nwant %#v", name, data, got, want)
	}
}

// fuzzSource hands out the fuzzer's bytes, then zeros.
type fuzzSource struct {
	data []byte
}

func (s *fuzzSource) byte() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

func (s *fuzzSource) bytes(n int) []byte {
	n = min(n, len(s.data))
	b := s.data[:n]
	s.data = s.data[n:]
	return b
}

func (s *fuzzSource) uint64() uint64 {
	var b [8]byte
	copy(b[:], s.bytes(8))
	return binary.LittleEndian.Uint64(b[:])
}

// fill sets v, and every field, element and pointee reachable from it, from
// the fuzzer's bytes: a field the codec does not know of gets a value too.
func fill(v reflect.Value, s *fuzzSource, depth int) {
	if s.byte()%4 == 0 {
		return // the zero value, which omitempty drops
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), s, depth)
			}
		}
	case reflect.Pointer:
		if depth < 2 {
			v.Set(reflect.New(v.Type().Elem()))
			fill(v.Elem(), s, depth+1)
		}
	case reflect.Slice:
		if v.Type() == reflect.TypeOf(json.RawMessage(nil)) {
			v.SetBytes(rawJSON(s))
			return
		}
		n := int(s.byte() % 4)
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			fill(v.Index(i), s, depth+1)
		}
	case reflect.String:
		v.SetString(string(s.bytes(int(s.byte() % 16))))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(s.uint64()) >> (s.byte() % 64))
	case reflect.Uint64:
		v.SetUint(s.uint64() >> (s.byte() % 64))
	case reflect.Float64:
		v.SetFloat(fuzzFloat(s))
	default:
		panic("fill: no filler for " + v.Type().String())
	}
}

// fuzzFloat is a raw float64 (NaN and ±Inf among them) or one near json's
// switches between plain and exponent notation.
func fuzzFloat(s *fuzzSource) float64 {
	bits := s.uint64()
	switch s.byte() % 3 {
	case 0:
		return math.Float64frombits(bits)
	case 1:
		return float64(int32(bits)) / 1024
	}
	return float64(int16(bits)) * math.Pow10(int(s.byte()%48)-24)
}

// rawJSON is a trace document: arbitrary bytes, or a JSON value spaced out
// and holding characters json.Marshal escapes.
func rawJSON(s *fuzzSource) json.RawMessage {
	text := s.bytes(int(s.byte() % 24))
	if s.byte()%2 == 0 {
		return text
	}
	str, _ := json.Marshal(string(text))
	return []byte(` { "name" : ` + string(str) + ` , "ts" : [ 1.5e3 , "<&>" ] } `)
}
