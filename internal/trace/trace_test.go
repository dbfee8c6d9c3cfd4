package trace

import (
	"testing"
	"testing/quick"

	"rcnvm/internal/addr"
)

func TestKindProperties(t *testing.T) {
	memKinds := []Kind{Load, Store, CLoad, CStore, Gather}
	for _, k := range memKinds {
		if !k.IsMemory() {
			t.Errorf("%v should be a memory op", k)
		}
	}
	for _, k := range []Kind{Compute, Barrier, UnpinAll} {
		if k.IsMemory() {
			t.Errorf("%v should not be a memory op", k)
		}
	}
	if Load.Orientation() != addr.Row || Store.Orientation() != addr.Row {
		t.Error("load/store must be row-oriented")
	}
	if CLoad.Orientation() != addr.Column || CStore.Orientation() != addr.Column {
		t.Error("cload/cstore must be column-oriented")
	}
	if !Store.IsWrite() || !CStore.IsWrite() || Load.IsWrite() || CLoad.IsWrite() || Gather.IsWrite() {
		t.Error("IsWrite flags wrong")
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		Load: "load", Store: "store", CLoad: "cload", CStore: "cstore",
		Gather: "gather", Compute: "compute", Barrier: "barrier", UnpinAll: "unpinall",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d String = %q, want %q", k, k.String(), s)
		}
	}
}

func TestConstructors(t *testing.T) {
	c := addr.Coord{Row: 3, Column: 4}
	if op := LoadOp(c); op.Kind != Load || op.Coord != c {
		t.Error("LoadOp wrong")
	}
	if op := CStoreOp(c); op.Kind != CStore || op.Coord != c {
		t.Error("CStoreOp wrong")
	}
	if op := PinnedCLoadOp(c); op.Kind != CLoad || !op.Pin {
		t.Error("PinnedCLoadOp wrong")
	}
	if op := GatherOp(c, 7); op.Kind != Gather || op.GatherID != 7 {
		t.Error("GatherOp wrong")
	}
	if op := ComputeOp(12); op.Kind != Compute || op.Cycles != 12 {
		t.Error("ComputeOp wrong")
	}
	if BarrierOp().Kind != Barrier || UnpinAllOp().Kind != UnpinAll {
		t.Error("barrier/unpin constructors wrong")
	}
}

func TestStreamAccounting(t *testing.T) {
	s := Stream{
		LoadOp(addr.Coord{}),
		ComputeOp(5),
		CLoadOp(addr.Coord{}),
		BarrierOp(),
		ComputeOp(7),
		StoreOp(addr.Coord{}),
	}
	if got := s.MemOps(); got != 3 {
		t.Errorf("MemOps = %d, want 3", got)
	}
}

func TestSplitExact(t *testing.T) {
	parts := Split(10, 4)
	want := [][2]int{{0, 3}, {3, 6}, {6, 8}, {8, 10}}
	for i := range want {
		if parts[i] != want[i] {
			t.Fatalf("Split(10,4) = %v, want %v", parts, want)
		}
	}
}

// TestSplitProperties: ranges are contiguous, cover [0,n), and are balanced
// within one element.
func TestSplitProperties(t *testing.T) {
	prop := func(n uint16, parts uint8) bool {
		p := int(parts%8) + 1
		ranges := Split(int(n), p)
		if len(ranges) != p {
			return false
		}
		prev := 0
		minSize, maxSize := int(n)+1, -1
		for _, r := range ranges {
			if r[0] != prev || r[1] < r[0] {
				return false
			}
			size := r[1] - r[0]
			if size < minSize {
				minSize = size
			}
			if size > maxSize {
				maxSize = size
			}
			prev = r[1]
		}
		return prev == int(n) && maxSize-minSize <= 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitZeroParts(t *testing.T) {
	ranges := Split(5, 0)
	if len(ranges) != 1 || ranges[0] != [2]int{0, 5} {
		t.Fatalf("Split(5,0) = %v", ranges)
	}
}
