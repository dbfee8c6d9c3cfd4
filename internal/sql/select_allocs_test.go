// The race detector makes sync.Pool drop items at random, so the engine's
// recycled buffers allocate there and an allocation count means nothing.

//go:build !race

package sql

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"rcnvm/internal/engine"
	"rcnvm/internal/shard"
)

// loadTable is a 1-shard cluster holding BenchmarkSelect's table of rows
// tuples (id, grp = id mod 8, val = 3·id), and the statement runner the
// tests measure.
func loadTable(t *testing.T, rows int) func(src string) {
	c, err := shard.Open(engine.DualAddress, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	exec := func(src string) {
		if _, _, err := Execute(c, src, ExecOptions{}); err != nil {
			t.Fatalf("%.60s: %v", src, err)
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
	return exec
}

// TestOrderByAllocs holds BenchmarkSelect/order's statement on a 4 096-row
// table, 512 matches, to a ceiling that does not grow with them: ORDER BY
// reads the key column of the matched rows with one fetch, not one read
// per row.
func TestOrderByAllocs(t *testing.T) {
	exec := loadTable(t, 4096)
	const src, ceiling = "SELECT id, val FROM load WHERE grp = 5 ORDER BY val DESC LIMIT 10", 100
	exec(src)
	if allocs := testing.AllocsPerRun(50, func() { exec(src) }); allocs > ceiling {
		t.Fatalf("ORDER BY over 512 matches allocates %.1f/op, want <= %d", allocs, ceiling)
	}
}

// TestScanStatementAllocs holds BenchmarkSelect's filtered aggregates on its
// 16 384-row table to 6 KB a statement whatever they match — 2 048 rows,
// half the table, 1 024 — because a WHERE yields a bitmap of 2 KB that the
// next condition and the aggregate read through, not a list of row ids.
func TestScanStatementAllocs(t *testing.T) {
	exec := loadTable(t, 16384)
	const runs, ceiling = 20, 6 << 10
	for _, src := range []string{
		"SELECT SUM(val), COUNT(*) FROM load WHERE grp = 5",
		"SELECT AVG(val) FROM load WHERE val > 24576",
		"SELECT SUM(val), COUNT(*) FROM load WHERE grp = 5 AND val > 24576",
	} {
		exec(src)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			exec(src)
		}
		runtime.ReadMemStats(&m1)
		if b := (m1.TotalAlloc - m0.TotalAlloc) / runs; b > ceiling {
			t.Errorf("%s allocates %d B/op, want <= %d", src, b, ceiling)
		}
	}
}
