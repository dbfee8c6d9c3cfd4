package server

import (
	"fmt"
	"strings"
	"testing"
)

// pointQuery and scanQuery are the two statements BenchmarkServe times: a
// point SELECT on a 64-row table, where admission, the plan cache and the
// reply are the statement, and a column SUM on a 4096-row table, where the
// engine's scan is.
const (
	pointQuery = "SELECT val FROM t WHERE id = 7"
	scanQuery  = "SELECT SUM(val) FROM t"
)

// serveFixture starts a default-options server with a TCP front end on a
// loopback port and a table t (id, grp, val) of the given number of rows.
func serveFixture(tb testing.TB, rows int) (*Server, string) {
	tb.Helper()
	s, addr := newTestServer(tb, Options{})
	var ins strings.Builder
	ins.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			ins.WriteByte(',')
		}
		fmt.Fprintf(&ins, "(%d,%d,%d)", i, i%8, i*3)
	}
	for _, q := range []string{fmt.Sprintf("CREATE TABLE t (id, grp, val) CAPACITY %d", rows), ins.String()} {
		if resp := s.Do(&Request{Query: q}); resp.Error != nil {
			tb.Fatalf("%.40s: %v", q, resp.Error)
		}
	}
	return s, addr
}

// BenchmarkServe times one statement through the server two ways: "do" is
// the direct Server.Do call (validation, admission, execution, the reply
// struct) and "tcp" is one client session over loopback (plus the NDJSON
// encode and decode on both ends and the syscalls), so the wire's cost is
// the difference of the two, measured in one process.
func BenchmarkServe(b *testing.B) {
	for _, bc := range []struct {
		name  string
		rows  int
		query string
	}{
		{"point", 64, pointQuery},
		{"scan", 4096, scanQuery},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, addr := serveFixture(b, bc.rows)
			b.Run("do", func(b *testing.B) {
				req := &Request{Query: bc.query}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if resp := s.Do(req); resp.Error != nil {
						b.Fatal(resp.Error)
					}
				}
			})
			b.Run("tcp", func(b *testing.B) {
				c, err := Dial(addr)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := c.Query(bc.query); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
