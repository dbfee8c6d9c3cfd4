package server

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// pointQuery and scanQuery are two of the statements BenchmarkServe times:
// a point SELECT on a 64-row table, where admission, the plan cache and the
// reply are the statement, and a column SUM on a 4096-row table, where the
// engine's scan is. The engine slices a table into at least 16 chunks, so
// the point table at CAPACITY 64 — oltp_point's — is sixteen 4-row chunks,
// and at CAPACITY 4096 (point4096) its 64 rows lie in one 256-row chunk.
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

// serveFixture starts a server with the given options and a TCP front end
// on a loopback port, and a table t (id, grp, val) of the given capacity
// holding the given number of rows.
func serveFixture(tb testing.TB, rows, capacity int, opts Options) (*Server, string) {
	tb.Helper()
	s, addr := newTestServer(tb, opts)
	var ins strings.Builder
	ins.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			ins.WriteByte(',')
		}
		fmt.Fprintf(&ins, "(%d,%d,%d)", i, i%8, i*3)
	}
	for _, q := range []string{fmt.Sprintf("CREATE TABLE t (id, grp, val) CAPACITY %d", capacity), ins.String()} {
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
// the difference of the two, measured in one process. point4096 is point
// on the same 64 rows in a table of capacity 4096. olap takes its three
// statements in turn, so one op is a third of each. Two requests are timed
// over Do only: timed is the point SELECT with timing, so its replay on the
// simulated systems, and batch is one request of 16 point SELECTs. Two
// more run over TCP alone: mix, many sessions at once, and tcpbatch, one
// session at several batch sizes.
func BenchmarkServe(b *testing.B) {
	batch := make([]string, 16)
	for i := range batch {
		batch[i] = fmt.Sprintf("SELECT val FROM t WHERE id = %d", 3*i)
	}
	for _, bc := range []struct {
		name           string
		rows, capacity int
		queries        []string // timed over Do and TCP
		req            *Request // without queries, timed over Do alone
	}{
		{"point", 64, 64, []string{pointQuery}, nil},
		{"point4096", 64, 4096, []string{pointQuery}, nil},
		{"scan", 4096, 4096, []string{scanQuery}, nil},
		{"olap", 16384, 16384, olapQueries, nil},
		{"timed", 64, 64, nil, &Request{Query: pointQuery, Timing: true}},
		{"batch", 64, 64, nil, &Request{Batch: batch}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, addr := serveFixture(b, bc.rows, bc.capacity, Options{})
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
	b.Run("mix", func(b *testing.B) {
		for _, sessions := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) { benchMix(b, sessions) })
		}
	})
	b.Run("tcpbatch", func(b *testing.B) {
		for _, size := range []int{1, 8, 32} {
			b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) { benchBatch(b, size) })
		}
	})
}

// benchMix is the served OLTP+OLAP mix at a number of concurrent loopback
// sessions: they share b.N statements, a point SELECT alternating with a
// filtered SUM over a 1024-row table. The queue holds two statements per
// session, so none is turned away as overloaded.
func benchMix(b *testing.B, sessions int) {
	const rows = 1024
	_, addr := serveFixture(b, rows, rows, Options{Queue: 2 * sessions})
	clients := make([]*Client, sessions)
	for i := range clients {
		c, err := Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, sessions)
	b.ResetTimer()
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(b.N); i = next.Add(1) - 1 {
				q := fmt.Sprintf("SELECT val FROM t WHERE id = %d", i%rows)
				if i%2 == 1 {
					q = fmt.Sprintf("SELECT SUM(val), COUNT(*) FROM t WHERE grp = %d", i%8)
				}
				if _, err := c.Query(q); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	select {
	case err := <-errc:
		b.Fatal(err)
	default:
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// benchBatch sends b.N point statements, a SELECT alternating with an
// UPDATE, through one loopback session in batches of size (size 1 sends
// plain queries). The table is 32 rows so that engine time stays minor:
// what a batch amortizes is the round trip, the admission and the lock
// round per statement. bench/ measures the same path with a checked
// answer (server.batch16_us_per_stmt).
func benchBatch(b *testing.B, size int) {
	const rows = 32
	_, addr := serveFixture(b, rows, rows, Options{})
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	batch := make([]string, 0, size)
	b.ResetTimer()
	for issued := 0; issued < b.N; issued += len(batch) {
		batch = batch[:0]
		for i := issued; i < b.N && len(batch) < size; i++ {
			if i%2 == 0 {
				batch = append(batch, fmt.Sprintf("SELECT val FROM t WHERE id = %d", i%rows))
			} else {
				batch = append(batch, fmt.Sprintf("UPDATE t SET val = %d WHERE id = %d", i%rows*7, i%rows))
			}
		}
		if size == 1 {
			if _, err := c.Query(batch[0]); err != nil {
				b.Fatal(err)
			}
			continue
		}
		rs, err := c.Batch(batch)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			if r.Error != nil {
				b.Fatal(r.Error)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "stmts/s")
}
