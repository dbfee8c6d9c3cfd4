// The race detector makes sync.Pool drop items at random, so the engine's
// recycled buffers allocate there and an allocation count means nothing.

//go:build !race

package sql

import (
	"fmt"
	"strings"
	"testing"

	"rcnvm/internal/engine"
	"rcnvm/internal/shard"
)

// TestOrderByAllocs holds BenchmarkSelect/order's statement on a 4 096-row
// table, 512 matches, to a ceiling that does not grow with them: ORDER BY
// reads the key column of the matched rows with one fetch, not one read
// per row.
func TestOrderByAllocs(t *testing.T) {
	c, err := shard.Open(engine.DualAddress, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	exec := func(src string) {
		if _, _, err := Execute(c, src, ExecOptions{}); err != nil {
			t.Fatalf("%.60s: %v", src, err)
		}
	}
	exec("CREATE TABLE load (id, grp, val) CAPACITY 4096")
	for id := 0; id < 4096; id += 256 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO load VALUES ")
		for k := id; k < id+256; k++ {
			fmt.Fprintf(&sb, "(%d, %d, %d),", k, k%8, 3*k)
		}
		exec(strings.TrimSuffix(sb.String(), ","))
	}
	const src, ceiling = "SELECT id, val FROM load WHERE grp = 5 ORDER BY val DESC LIMIT 10", 100
	exec(src)
	if allocs := testing.AllocsPerRun(50, func() { exec(src) }); allocs > ceiling {
		t.Fatalf("ORDER BY over 512 matches allocates %.1f/op, want <= %d", allocs, ceiling)
	}
}
