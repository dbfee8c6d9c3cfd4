package sql

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rcnvm/internal/workload"
)

// refLex is the slice-building lexer the pull lexer replaced, kept as the
// reference for the language the lexer accepts: the tokens of src, or the
// error at the first character it rejects.
func refLex(src string) ([]token, error) {
	var toks []token
	for pos := 0; pos < len(src); {
		c, start := src[pos], pos
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			pos++
			continue
		case isIdentStart(rune(c)):
			for pos++; pos < len(src) && isIdentPart(rune(src[pos])); pos++ {
			}
			toks = append(toks, token{tokIdent, src[start:pos], start})
		case c >= '0' && c <= '9':
			for pos++; pos < len(src) && src[pos] >= '0' && src[pos] <= '9'; pos++ {
			}
			toks = append(toks, token{tokNumber, src[start:pos], start})
		case c == '<' || c == '>' || c == '!':
			pos++
			if pos < len(src) && src[pos] == '=' {
				pos++
			} else if c == '!' {
				return nil, fmt.Errorf("sql: stray '!' at %d", start)
			}
			toks = append(toks, token{tokOp, src[start:pos], start})
		case c == '=':
			pos++
			toks = append(toks, token{tokOp, "=", start})
		case strings.ContainsRune("(),.*;", rune(c)):
			pos++
			toks = append(toks, token{tokPunct, string(c), start})
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at %d", c, pos)
		}
	}
	return toks, nil
}

// FuzzParse feeds Parse arbitrary text. It must never panic, and:
//   - the lexer hands out refLex's tokens, or fails with its error;
//   - a source the lexer rejects fails Parse with the lexer's error, ahead
//     of any parse error;
//   - normalizeShape accepts exactly what the lexer accepts, less a source
//     without tokens and a number past MaxUint64;
//   - a plan cache shared by every input answers what Parse answers;
//   - an EXPLAIN's recorded inner source parses to its inner statement,
//     so an EXPLAIN ANALYZE mutation logs a record that replays it.
func FuzzParse(f *testing.F) {
	f.Add(loadSrc(0, 256))
	f.Add("INSERT INTO t VALUES (1, 2")
	f.Add("INSERT INTO t VALUES (1, 2), (3")
	f.Add("SELECT a FROM t WHERE a ! 3")
	f.Add("SELECT a FROM t WHERE b = 1 !")
	f.Add("SELECT a b FROM t WHERE x = 1 !")
	f.Add("SELECT t\xe9 FROM \xaat WHERE x\xc0 = 1")
	f.Add("SELECT \xc3\xa9 FROM t WHERE x\x80 = 1")
	f.Add("SELECT a FROM t WHERE a = 18446744073709551616")
	f.Add("SELECT a FROM t LIMIT 18446744073709551615")
	f.Add("CREATE TABLE t (a, b WIDE 2) CAPACITY 9223372036854775808")
	f.Add("EXPLAIN ANALYZE UPDATE t SET a = 1, b = 2 WHERE c < 3;")
	f.Add("SELECT x.a, y.b FROM x JOIN y ON y.k = x.k")
	f.Add("explain ANALYZE insert  into t values (1,2),\t(3, 4) ;")
	f.Add("EXPLAIN analyze Update t SET a=1 where b >= 2;  \n")
	f.Add("Explain Analyze  DELETE from t WHERE a != 7  ;")
	f.Add("  EXPLAIN ANALYZE\ncreate TABLE t (a, b wide 3) capacity 64;")
	for _, q := range workload.SQLQueries() {
		f.Add(q.SQL)
	}
	for _, q := range workload.SQLErrorQueries() {
		f.Add(q.SQL)
	}
	pc := NewPlanCache(64)
	f.Fuzz(func(t *testing.T, src string) {
		st, err := Parse(src)

		l := lexer{src: src}
		var toks []token
		overflow := false
		for tok := l.next(); tok.kind != tokEOF; tok = l.next() {
			toks = append(toks, tok)
			if _, ok := tok.value(); tok.kind == tokNumber && !ok {
				overflow = true
			}
		}
		if want, wantErr := refLex(src); fmt.Sprint(l.err) != fmt.Sprint(wantErr) || (l.err == nil && !reflect.DeepEqual(toks, want)) {
			t.Fatalf("%q: lexer gives %v, %v; want %v, %v", src, toks, l.err, want, wantErr)
		}
		if l.err != nil && fmt.Sprint(err) != l.err.Error() {
			t.Fatalf("%q: lexer says %v, Parse %v", src, l.err, err)
		}
		var sc planScratch
		if got, want := normalizeShape(src, &sc), l.err == nil && len(toks) > 0 && !overflow; got != want {
			t.Fatalf("%q: normalizeShape %v, want %v", src, got, want)
		}

		cached, cerr := pc.Parse(src)
		if fmt.Sprint(cerr) != fmt.Sprint(err) || !reflect.DeepEqual(cached, st) {
			t.Fatalf("%q: plan cache gives %#v, %v; Parse %#v, %v", src, cached, cerr, st, err)
		}

		ex, ok := st.(*Explain)
		if !ok {
			return
		}
		inner, err := Parse(ex.Src)
		if err != nil || !reflect.DeepEqual(inner, ex.Stmt) {
			t.Fatalf("%q: inner source %q parses to %#v, %v; want %#v", src, ex.Src, inner, err, ex.Stmt)
		}
	})
}
