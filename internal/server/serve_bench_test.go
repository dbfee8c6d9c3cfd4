package server

import (
	"fmt"
	"strings"
	"testing"
)

// pointQuery and scanQuery are two of the statements BenchmarkServe times:
// a point SELECT on a 64-row table, where admission, the plan cache and the
// reply are the statement, and a column SUM on a 4096-row table, where the
// engine's scan is.
const (
	pointQuery = "SELECT val FROM t WHERE id = 7"
	scanQuery  = "SELECT SUM(val) FROM t"
)

// olapQueries are the olap_scan workload's three statement shapes on its
// 16 384-row table: a filtered SUM and COUNT (2 048 matches), a filtered
// AVG (half the table) and a GROUP BY.
var olapQueries = []string{
	"SELECT SUM(val), COUNT(*) FROM t WHERE grp = 5",
	"SELECT AVG(val) FROM t WHERE val > 24576",
	"SELECT grp, SUM(val) FROM t GROUP BY grp",
}

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

// BenchmarkServe times statements through the server two ways: "do" is
// the direct Server.Do call (validation, admission, execution, the reply
// struct) and "tcp" is one client session over loopback (plus the NDJSON
// encode and decode on both ends and the syscalls), so the wire's cost is
// the difference of the two, measured in one process. olap takes its three
// statements in turn, so one op is a third of each. Two requests are timed
// over Do only: timed is the point SELECT with timing, so its replay on the
// simulated systems, and batch is one request of 16 point SELECTs.
func BenchmarkServe(b *testing.B) {
	batch := make([]string, 16)
	for i := range batch {
		batch[i] = fmt.Sprintf("SELECT val FROM t WHERE id = %d", 3*i)
	}
	for _, bc := range []struct {
		name    string
		rows    int
		queries []string // timed over Do and TCP
		req     *Request // without queries, timed over Do alone
	}{
		{"point", 64, []string{pointQuery}, nil},
		{"scan", 4096, []string{scanQuery}, nil},
		{"olap", 16384, olapQueries, nil},
		{"timed", 64, nil, &Request{Query: pointQuery, Timing: true}},
		{"batch", 64, nil, &Request{Batch: batch}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, addr := serveFixture(b, bc.rows)
			b.Run("do", func(b *testing.B) {
				reqs := []*Request{bc.req}
				if bc.queries != nil {
					reqs = make([]*Request, len(bc.queries))
					for i, q := range bc.queries {
						reqs[i] = &Request{Query: q}
					}
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					resp := s.Do(reqs[i%len(reqs)])
					if err := resp.Err(); err != nil {
						b.Fatal(err)
					}
					for _, r := range resp.Results {
						if err := r.Err(); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
			if bc.queries == nil {
				return
			}
			b.Run("tcp", func(b *testing.B) {
				c, err := Dial(addr)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := c.Query(bc.queries[i%len(bc.queries)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
