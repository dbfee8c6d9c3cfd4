package sql

import (
	"fmt"
	"strings"
	"testing"

	"rcnvm/internal/engine"
	"rcnvm/internal/shard"
)

// BenchmarkSelect is the rung directly under the benchmark's olap_scan
// workload: its three statement shapes over its table — 16 384 rows of
// (id, grp = id mod 8, val = 3·id) — through Execute on a 1-shard cluster,
// without the server and the wire. A two-condition WHERE and two projection
// shapes ride along: the point read of oltp_point and timed_query, and an
// ordered top-10.
func BenchmarkSelect(b *testing.B) {
	const rows = 16384
	c, err := shard.Open(engine.DualAddress, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	exec := func(src string) {
		if _, _, err := Execute(c, src, ExecOptions{}); err != nil {
			b.Fatalf("%.60s: %v", src, err)
		}
	}
	exec(fmt.Sprintf("CREATE TABLE load (id, grp, val) CAPACITY %d", rows))
	for id := 0; id < rows; id += 256 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO load VALUES ")
		for k := id; k < id+256; k++ {
			fmt.Fprintf(&sb, "(%d, %d, %d),", k, k%8, 3*k)
		}
		exec(strings.TrimSuffix(sb.String(), ","))
	}
	for _, sc := range []struct{ name, src string }{
		{"sumcount", "SELECT SUM(val), COUNT(*) FROM load WHERE grp = 5"},
		{"avg", "SELECT AVG(val) FROM load WHERE val > 24576"}, // half the table matches
		{"group", "SELECT grp, SUM(val) FROM load GROUP BY grp"},
		// The Q10/Q11 shape: a second condition filters the first's matches.
		{"where2", "SELECT SUM(val), COUNT(*) FROM load WHERE grp = 5 AND val > 24576"},
		{"point", "SELECT val FROM load WHERE id = 4242"},
		{"order", "SELECT id, val FROM load WHERE grp = 5 ORDER BY val DESC LIMIT 10"},
	} {
		b.Run(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				exec(sc.src)
			}
		})
	}
}

// BenchmarkBatch is the rung under a batch request: 16 statements through
// ExecBatchSharded on a 4-shard cluster of 4096 rows (id, grp = id mod 8,
// val = 3·id), plan cache on, as the server runs them. reads is 16
// broadcast SUM/COUNT reads and writes 16 broadcast UPDATEs, each one
// grouped fan-out; mixed alternates the two, so no run is longer than one
// statement and only the lock round and the fsync wait are shared.
func BenchmarkBatch(b *testing.B) {
	const rows = 4096
	c, err := shard.Open(engine.DualAddress, 4, 0)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := Execute(c, fmt.Sprintf("CREATE TABLE load (id, grp, val) CAPACITY %d", rows), ExecOptions{}); err != nil {
		b.Fatal(err)
	}
	for id := 0; id < rows; id += 256 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO load VALUES ")
		for k := id; k < id+256; k++ {
			fmt.Fprintf(&sb, "(%d, %d, %d),", k, k%8, 3*k)
		}
		if _, _, err := Execute(c, strings.TrimSuffix(sb.String(), ","), ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	read := func(i int) string { return fmt.Sprintf("SELECT SUM(val), COUNT(*) FROM load WHERE grp = %d", i%8) }
	write := func(i int) string { return fmt.Sprintf("UPDATE load SET val = %d WHERE grp = %d", i, i%8) }
	for _, sc := range []struct {
		name string
		stmt func(i int) string
	}{
		{"reads", read},
		{"writes", write},
		{"mixed", func(i int) string {
			if i%2 == 0 {
				return read(i)
			}
			return write(i)
		}},
	} {
		batch := make([]string, 16)
		for i := range batch {
			batch[i] = sc.stmt(i)
		}
		pc := NewPlanCache(0)
		b.Run(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, errs := ExecBatchSharded(c, pc, batch)
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
