// The race detector makes sync.Pool drop items at random, so the engine's
// recycled scanners allocate there and an allocation count means nothing.

//go:build !race

package engine

import "testing"

// TestProjectAllocs: a projection of listed rows allocates its result and
// the one array the tuples share, however many rows it reads.
func TestProjectAllocs(t *testing.T) {
	_, tbl := edgeTable(t, 1025, []int{5, 600})
	rows := tbl.LiveRows()[100:900]
	fields := []string{"v", "w", "k"}
	if _, err := tbl.Project(rows, fields); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := tbl.Project(rows, fields); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Fatalf("Project of %d rows allocates %.1f/op, want <= 2", len(rows), allocs)
	}
}

// TestSetAllocs: an UPDATE's write of the 2 048 rows its WHERE matched in
// the 16 384-row table allocates nothing.
func TestSetAllocs(t *testing.T) {
	tbl := benchTable(t, benchRows, benchRows)
	sel, err := tbl.Where("grp", Eq, 5, All)
	if err != nil || tbl.Count(sel) != 2048 {
		t.Fatalf("Where matched %d rows, err %v", tbl.Count(sel), err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := tbl.Set(sel, "val", 7); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Set of 2 048 rows allocates %.1f/op, want 0", allocs)
	}
}

// TestDeleteAllocs: a DELETE of the 2 048 rows its WHERE matched in the
// 16 384-row table clears their bits a word at a time and allocates
// nothing.
func TestDeleteAllocs(t *testing.T) {
	tbl := benchTable(t, benchRows, benchRows)
	sel, err := tbl.Where("grp", Eq, 5, All)
	if err != nil || tbl.Count(sel) != 2048 {
		t.Fatalf("Where matched %d rows, err %v", tbl.Count(sel), err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := tbl.Delete(sel); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Delete of 2 048 rows allocates %.1f/op, want 0", allocs)
	}
	if tbl.Live() != benchRows-2048 {
		t.Fatalf("Live = %d after the delete, want %d", tbl.Live(), benchRows-2048)
	}
}
