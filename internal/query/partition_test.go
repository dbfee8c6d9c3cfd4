package query

import (
	"testing"

	"rcnvm/internal/addr"
	"rcnvm/internal/device"
	"rcnvm/internal/imdb"
	"rcnvm/internal/trace"
)

func spreadPlace(t *testing.T, tbl *imdb.Table, chunks int) *imdb.NVMPlacement {
	t.Helper()
	p, err := imdb.NewNVMAllocatorSpread(device.NVMGeometry(true), chunks).Place(tbl, imdb.ColMajor)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPartitionRoundRobin: with many chunks, cores own alternating chunks.
func TestPartitionRoundRobin(t *testing.T) {
	e := New(RCNVM, 4)
	p := spreadPlace(t, tableA(), 16)
	pt := e.partition(p)
	if len(pt.ranges) != 16 {
		t.Fatalf("partition has %d ranges, want 16 chunks", len(pt.ranges))
	}
	for i := range pt.ranges {
		if pt.coreOf[i] != i%4 {
			t.Fatalf("chunk %d owned by core %d, want %d", i, pt.coreOf[i], i%4)
		}
	}
	// Coverage: ranges tile [0, tuples).
	prev := 0
	for _, r := range pt.ranges {
		if r[0] != prev {
			t.Fatalf("gap before %v", r)
		}
		prev = r[1]
	}
	if prev != p.Table().Tuples {
		t.Fatalf("partition covers %d of %d tuples", prev, p.Table().Tuples)
	}
}

// TestPartitionContiguousFallback: a single-chunk placement splits
// contiguously across cores.
func TestPartitionContiguousFallback(t *testing.T) {
	e := New(RowOnly, 4)
	p := linPlace(t, tableA())
	pt := e.partition(p)
	if len(pt.ranges) != 4 {
		t.Fatalf("fallback partition has %d ranges, want 4", len(pt.ranges))
	}
	for i, r := range pt.ranges {
		if pt.coreOf[i] != i {
			t.Fatalf("fallback range %d owned by core %d", i, pt.coreOf[i])
		}
		if r[1] <= r[0] {
			t.Fatalf("empty range %v", r)
		}
	}
}

// TestOwnerConsistency: splitMatches routes every match to the core whose
// region contains it, consistent with perCore.
func TestOwnerConsistency(t *testing.T) {
	e := New(RCNVM, 4)
	p := spreadPlace(t, tableA(), 16)
	pt := e.partition(p)
	matches := []int{0, 100, 600, 1200, 5000, 8000, 8191}
	parts := pt.splitMatches(matches)
	total := 0
	for core, ms := range parts {
		total += len(ms)
		for _, m := range ms {
			if pt.ownerOf(m) != core {
				t.Fatalf("match %d routed to core %d but owned by %d", m, core, pt.ownerOf(m))
			}
		}
	}
	if total != len(matches) {
		t.Fatalf("split lost matches: %d of %d", total, len(matches))
	}
}

// TestPhysicalOrderSorts: fetch order follows buffer geometry, not tuple
// ids.
func TestPhysicalOrderSorts(t *testing.T) {
	p := spreadPlace(t, tableA(), 16)
	// Tuples 0 and 512 sit in the same chunk (chunk size 512): in ColMajor
	// they are rows 0 and 0 of adjacent groups... pick matches spanning
	// rows so sorting matters.
	matches := []int{3, 1, 2, 0}
	out := physicalOrder(p, matches)
	if len(out) != 4 {
		t.Fatalf("lost matches: %v", out)
	}
	// ColMajor: tuple id == row within the group, so physical order is
	// ascending row = ascending id here.
	for i, want := range []int{0, 1, 2, 3} {
		if out[i] != want {
			t.Fatalf("physical order = %v", out)
		}
	}
	// Single-element and empty inputs pass through.
	if got := physicalOrder(p, []int{7}); len(got) != 1 || got[0] != 7 {
		t.Fatal("singleton mishandled")
	}
}

// TestDenseFetchUsesColumnSweep: a dense SELECT * lowers to the word-major
// column sweep instead of per-tuple row fetches.
func TestDenseFetchUsesColumnSweep(t *testing.T) {
	e := New(RCNVM, 1)
	p := spreadPlace(t, tableA(), 16)
	e.BeginQuery(p.Table())
	all := make([]int, 0, testTuples)
	for i := 0; i < testTuples; i++ {
		all = append(all, i)
	}
	fields := fieldList(16)
	if err := e.FetchTuples(p, all, fields, TouchCycles); err != nil {
		t.Fatal(err)
	}
	cloads := countKind(e.Streams(), trace.CLoad)
	loads := countKind(e.Streams(), trace.Load)
	if loads != 0 {
		t.Errorf("dense fetch emitted %d row loads, want 0", loads)
	}
	// 16 words x 8192 tuples / 8 per line = 16384 column lines.
	if want := 16 * testTuples / addr.LineWords; cloads != want {
		t.Errorf("cloads = %d, want %d", cloads, want)
	}
}

// TestSparseFetchStaysPerTuple: a 1% fetch keeps per-tuple row accesses.
func TestSparseFetchStaysPerTuple(t *testing.T) {
	e := New(RCNVM, 1)
	p := spreadPlace(t, tableA(), 16)
	e.BeginQuery(p.Table())
	var sparse []int
	for i := 0; i < testTuples; i += 100 {
		sparse = append(sparse, i)
	}
	if err := e.FetchTuples(p, sparse, []string{"f3", "f4"}, TouchCycles); err != nil {
		t.Fatal(err)
	}
	// One load per field per tuple (f3 and f4 share a line, so the second
	// is an L1 hit, but both touches are traced).
	if got := countKind(e.Streams(), trace.Load); got != 2*len(sparse) {
		t.Errorf("sparse fetch loads = %d, want %d", got, 2*len(sparse))
	}
	if countKind(e.Streams(), trace.CLoad) != 0 {
		t.Error("sparse fetch should not column-sweep")
	}
}

func fieldList(n int) []string {
	s := imdb.Uniform("", n)
	out := make([]string, n)
	for i := range out {
		out[i] = s.Fields[i].Name
	}
	return out
}

// TestSetPinningDisablesPins: the ablation strips Pin flags from group
// caching.
func TestSetPinningDisablesPins(t *testing.T) {
	e := New(RCNVM, 1)
	e.SetPinning(false)
	p := spreadPlace(t, tableA(), 16)
	e.BeginQuery(p.Table())
	if err := e.GroupRead(p, []string{"f3", "f6"}, 32, TouchCycles); err != nil {
		t.Fatal(err)
	}
	for _, s := range e.Streams() {
		for _, op := range expanded(s) {
			if op.Pin {
				t.Fatal("pin emitted with pinning disabled")
			}
		}
	}
}

// TestGroupReadOrderedFlag: GroupRead consumption is Ordered even in the
// baseline (g=0) form, on every backend.
func TestGroupReadOrderedFlag(t *testing.T) {
	for _, arch := range []Arch{RCNVM, RowOnly} {
		e := New(arch, 1)
		var p imdb.Placement
		if arch == RCNVM {
			p = spreadPlace(t, tableA(), 16)
		} else {
			p = linPlace(t, tableA())
		}
		e.BeginQuery(p.Table())
		if err := e.GroupRead(p, []string{"f3"}, 0, TouchCycles); err != nil {
			t.Fatal(err)
		}
		for _, s := range e.Streams() {
			for _, op := range expanded(s) {
				if op.Kind.IsMemory() && !op.Ordered {
					t.Fatalf("%v baseline group read emitted unordered op", arch)
				}
			}
		}
	}
}

// TestScanTuplesEmission: the tuple-major micro pass touches every line of
// every tuple exactly once per tuple span.
func TestScanTuplesEmission(t *testing.T) {
	e := New(RCNVM, 1)
	p := spreadPlace(t, tableA(), 16)
	e.BeginQuery(p.Table())
	if err := e.ScanTuples(p, false, 1); err != nil {
		t.Fatal(err)
	}
	// 16-word tuples along rows: touchSpan emits at the first word and at
	// each 8-aligned boundary -> at most 3 loads per tuple, at least 2.
	loads := countKind(e.Streams(), trace.Load)
	if loads < 2*testTuples || loads > 3*testTuples {
		t.Errorf("loads = %d, want within [%d,%d]", loads, 2*testTuples, 3*testTuples)
	}
	if countKind(e.Streams(), trace.CLoad) != 0 {
		t.Error("tuple-major pass must use the fetch (row) orientation")
	}
}

// TestScanTuplesWrite: the write variant emits stores.
func TestScanTuplesWrite(t *testing.T) {
	e := New(RCNVM, 1)
	p := spreadPlace(t, tableA(), 16)
	e.BeginQuery(p.Table())
	if err := e.ScanTuples(p, true, 1); err != nil {
		t.Fatal(err)
	}
	if countKind(e.Streams(), trace.Store) == 0 || countKind(e.Streams(), trace.Load) != 0 {
		t.Error("write pass should emit stores only")
	}
}

// TestScanColumnsEmission: the field-major pass reads every word column
// once, one cload per 8 tuples on RC-NVM.
func TestScanColumnsEmission(t *testing.T) {
	e := New(RCNVM, 1)
	p := spreadPlace(t, tableA(), 16)
	e.BeginQuery(p.Table())
	if err := e.ScanColumns(p, false, 1); err != nil {
		t.Fatal(err)
	}
	want := 16 * testTuples / addr.LineWords
	if got := countKind(e.Streams(), trace.CLoad); got != want {
		t.Errorf("cloads = %d, want %d", got, want)
	}
}

// TestScanColumnsRowOnly: on a conventional backend the same pass becomes
// strided row loads, one per tuple per field.
func TestScanColumnsRowOnly(t *testing.T) {
	e := New(RowOnly, 1)
	p := linPlace(t, tableA())
	e.BeginQuery(p.Table())
	if err := e.ScanColumns(p, false, 1); err != nil {
		t.Fatal(err)
	}
	// Each field of each tuple sits in a distinct line from the previous
	// touch of that pass (16-word tuples): 16 passes x 8192 loads... but
	// within one pass adjacent fields share lines only across passes, so
	// the per-slot dedupe keeps one load per (tuple, field-pass) except
	// where consecutive tuples' fields share a line (two tuples per line
	// per field would need L <= 4).
	if got := countKind(e.Streams(), trace.Load); got != 16*testTuples {
		t.Errorf("loads = %d, want %d", got, 16*testTuples)
	}
}
