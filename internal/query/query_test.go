package query

import (
	"testing"

	"rcnvm/internal/addr"
	"rcnvm/internal/device"
	"rcnvm/internal/imdb"
	"rcnvm/internal/trace"
)

const testTuples = 8192

func tableA() *imdb.Table { return imdb.NewTable(imdb.Uniform("table-a", 16), testTuples) }
func tableB() *imdb.Table { return imdb.NewTable(imdb.Uniform("table-b", 20), testTuples) }

func nvmPlace(t *testing.T, tbl *imdb.Table, layout imdb.Layout) *imdb.NVMPlacement {
	t.Helper()
	p, err := imdb.NewNVMAllocator(device.NVMGeometry(true)).Place(tbl, layout)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func linPlace(t *testing.T, tbl *imdb.Table) *imdb.LinearPlacement {
	t.Helper()
	p, err := imdb.NewLinearAllocator(device.DRAMGeometry()).Place(tbl)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// expanded lists the ops a stream stands for, one per access and compute.
func expanded(s trace.Stream) []trace.Op {
	var ops []trace.Op
	s.Expand(func(op trace.Op) { ops = append(ops, op) })
	return ops
}

func countKind(streams []trace.Stream, k trace.Kind) int {
	n := 0
	for _, s := range streams {
		for _, op := range expanded(s) {
			if op.Kind == k {
				n++
			}
		}
	}
	return n
}

func totalOps(streams []trace.Stream) int {
	n := 0
	for _, s := range streams {
		n += len(expanded(s))
	}
	return n
}

func TestScanFieldRCNVMUsesColumnLines(t *testing.T) {
	e := New(RCNVM, 4)
	p := nvmPlace(t, tableA(), imdb.ColMajor)
	e.BeginQuery(p.Table())
	if err := e.ScanField(p, "f10", false, CmpCycles); err != nil {
		t.Fatal(err)
	}
	cloads := countKind(e.Streams(), trace.CLoad)
	loads := countKind(e.Streams(), trace.Load)
	if loads != 0 {
		t.Errorf("row loads = %d, want 0 on col-major RC-NVM scan", loads)
	}
	// One column line covers 8 consecutive tuples' field.
	want := testTuples / addr.LineWords
	if cloads != want {
		t.Errorf("cloads = %d, want %d", cloads, want)
	}
}

func TestScanFieldRowOnlyOneLinePerTuple(t *testing.T) {
	e := New(RowOnly, 4)
	p := linPlace(t, tableA())
	e.BeginQuery(p.Table())
	if err := e.ScanField(p, "f10", false, CmpCycles); err != nil {
		t.Fatal(err)
	}
	loads := countKind(e.Streams(), trace.Load)
	// 16-word tuples: each tuple's f10 lives in its own 8-word line.
	if loads != testTuples {
		t.Errorf("loads = %d, want %d (one line per tuple)", loads, testTuples)
	}
	if countKind(e.Streams(), trace.CLoad) != 0 || countKind(e.Streams(), trace.Gather) != 0 {
		t.Error("row-only backend must not emit cloads or gathers")
	}
}

func TestGatherLoweringTableA(t *testing.T) {
	e := New(GSDRAM, 4)
	p := linPlace(t, tableA())
	e.BeginQuery(p.Table())
	if err := e.ScanField(p, "f10", false, CmpCycles); err != nil {
		t.Fatal(err)
	}
	gathers := countKind(e.Streams(), trace.Gather)
	if want := testTuples / addr.LineWords; gathers != want {
		t.Errorf("gathers = %d, want %d", gathers, want)
	}
	if countKind(e.Streams(), trace.Load) != 0 {
		t.Error("eligible gather scan should not fall back to loads")
	}
}

func TestGatherIneligibleTableB(t *testing.T) {
	e := New(GSDRAM, 4)
	p := linPlace(t, tableB()) // 20 words: not a power of 2
	e.BeginQuery(p.Table())
	if err := e.ScanField(p, "f10", false, CmpCycles); err != nil {
		t.Fatal(err)
	}
	if countKind(e.Streams(), trace.Gather) != 0 {
		t.Error("non-power-of-2 stride must not gather")
	}
	if countKind(e.Streams(), trace.Load) != testTuples {
		t.Errorf("fallback loads = %d, want %d", countKind(e.Streams(), trace.Load), testTuples)
	}
}

func TestGatherDisabledForMultiTableQueries(t *testing.T) {
	e := New(GSDRAM, 4)
	alloc := imdb.NewLinearAllocator(device.DRAMGeometry())
	pa, _ := alloc.Place(tableA())
	pb, _ := alloc.Place(tableB())
	e.BeginQuery(pa.Table(), pb.Table())
	if err := e.ScanField(pa, "f9", false, CmpCycles); err != nil {
		t.Fatal(err)
	}
	if countKind(e.Streams(), trace.Gather) != 0 {
		t.Error("joins (multi-table) must disable gathering")
	}
}

func TestGatherSinglePattern(t *testing.T) {
	// Two scans of the same table may both gather; a scan of a second
	// table may not (one pattern at a time).
	e := New(GSDRAM, 1)
	alloc := imdb.NewLinearAllocator(device.DRAMGeometry())
	pa, _ := alloc.Place(tableA())
	pc, _ := alloc.Place(imdb.NewTable(imdb.Uniform("table-d", 8), testTuples))
	e.BeginQuery(pa.Table())
	e.ScanField(pa, "f10", false, CmpCycles)
	e.ScanField(pa, "f9", false, CmpCycles)
	if got, want := countKind(e.Streams(), trace.Gather), 2*testTuples/8; got != want {
		t.Errorf("same-table gathers = %d, want %d", got, want)
	}
	e.ScanField(pc, "f1", false, CmpCycles)
	if got, want := countKind(e.Streams(), trace.Gather), 2*testTuples/8; got != want {
		t.Errorf("second table gathered: %d gathers, want still %d", got, want)
	}
}

func TestScanMatchesGatherGroups(t *testing.T) {
	e := New(GSDRAM, 1)
	p := linPlace(t, tableA())
	e.BeginQuery(p.Table())
	// Matches 0,1,2 share group 0; match 100 is its own group.
	if err := e.ScanMatches(p, "f9", []int{0, 1, 2, 100}, AggCycles); err != nil {
		t.Fatal(err)
	}
	if got := countKind(e.Streams(), trace.Gather); got != 2 {
		t.Errorf("gathers = %d, want 2", got)
	}
}

func TestScanMatchesRCNVM(t *testing.T) {
	e := New(RCNVM, 2)
	p := nvmPlace(t, tableA(), imdb.ColMajor)
	e.BeginQuery(p.Table())
	matches := []int{0, 1, 9, 4000, 4001, 8000}
	if err := e.ScanMatches(p, "f9", matches, AggCycles); err != nil {
		t.Fatal(err)
	}
	// 0,1 share a line; 9 next line; 4000,4001 share; 8000 alone: 4 lines.
	if got := countKind(e.Streams(), trace.CLoad); got != 4 {
		t.Errorf("cloads = %d, want 4", got)
	}
}

func TestFetchTuplesSelectStar(t *testing.T) {
	e := New(RowOnly, 1)
	p := linPlace(t, tableB())
	e.BeginQuery(p.Table())
	all := []string{"f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "f10",
		"f11", "f12", "f13", "f14", "f15", "f16", "f17", "f18", "f19", "f20"}
	if err := e.FetchTuples(p, []int{50}, all, TouchCycles); err != nil {
		t.Fatal(err)
	}
	// 20 consecutive words span at most 4 cache lines; per-field touchSpan
	// may emit one access per field's first word plus boundary words, but
	// loads to the same line repeat at most once per field.
	loads := countKind(e.Streams(), trace.Load)
	if loads < 3 || loads > 21 {
		t.Errorf("loads = %d, want between 3 and 21", loads)
	}
}

func TestUpdateSingleFieldUsesColumnStore(t *testing.T) {
	e := New(RCNVM, 1)
	p := nvmPlace(t, tableB(), imdb.ColMajor)
	e.BeginQuery(p.Table())
	if err := e.UpdateTuples(p, []int{10, 20, 30}, []string{"f9"}, CmpCycles); err != nil {
		t.Fatal(err)
	}
	if got := countKind(e.Streams(), trace.CStore); got != 3 {
		t.Errorf("cstores = %d, want 3", got)
	}
	if countKind(e.Streams(), trace.Store) != 0 {
		t.Error("single-field update should be column-oriented on RC-NVM")
	}
}

func TestUpdateMultiFieldUsesRowStore(t *testing.T) {
	e := New(RCNVM, 1)
	p := nvmPlace(t, tableB(), imdb.ColMajor)
	e.BeginQuery(p.Table())
	if err := e.UpdateTuples(p, []int{10}, []string{"f3", "f4"}, CmpCycles); err != nil {
		t.Fatal(err)
	}
	if countKind(e.Streams(), trace.Store) == 0 || countKind(e.Streams(), trace.CStore) != 0 {
		t.Error("multi-field update should be row-oriented (adjacent words share a line)")
	}
}

func TestGroupReadPlain(t *testing.T) {
	e := New(RCNVM, 1)
	p := nvmPlace(t, tableA(), imdb.ColMajor)
	e.BeginQuery(p.Table())
	if err := e.GroupRead(p, []string{"f3", "f6", "f10"}, 0, TouchCycles); err != nil {
		t.Fatal(err)
	}
	// Ordered 3-column read: per 8 tuples, 3 column lines.
	want := 3 * testTuples / addr.LineWords
	if got := countKind(e.Streams(), trace.CLoad); got != want {
		t.Errorf("cloads = %d, want %d", got, want)
	}
	if countKind(e.Streams(), trace.UnpinAll) != 0 {
		t.Error("plain group read must not pin")
	}
}

func TestGroupReadWithGroupCaching(t *testing.T) {
	e := New(RCNVM, 1)
	p := nvmPlace(t, tableA(), imdb.ColMajor)
	e.BeginQuery(p.Table())
	const g = 32
	if err := e.GroupRead(p, []string{"f3", "f6", "f10"}, g, TouchCycles); err != nil {
		t.Fatal(err)
	}
	streams := e.Streams()
	pinned := 0
	for _, s := range streams {
		for _, op := range expanded(s) {
			if op.Pin {
				pinned++
			}
		}
	}
	want := 3 * testTuples / addr.LineWords
	if pinned != want {
		t.Errorf("pinned prefetches = %d, want %d", pinned, want)
	}
	blocks := (testTuples + g*addr.LineWords - 1) / (g * addr.LineWords)
	if got := countKind(streams, trace.UnpinAll); got != blocks {
		t.Errorf("unpins = %d, want %d blocks", got, blocks)
	}
	// Consumption loads (unpinned cloads) are also emitted, strictly
	// ordered.
	consume := 0
	for _, s := range streams {
		for _, op := range expanded(s) {
			if op.Kind == trace.CLoad && !op.Pin {
				consume++
				if !op.Ordered {
					t.Fatal("consumption loads must be ordered")
				}
			} else if op.Pin && op.Ordered {
				t.Fatal("prefetches must not be ordered")
			}
		}
	}
	if consume != want {
		t.Errorf("consumption cloads = %d, want %d", consume, want)
	}
}

// TestGroupReadPrefetchOrdering: within one block, all prefetches of column
// A precede all of column B (that is what amortizes buffer switches).
func TestGroupReadPrefetchOrdering(t *testing.T) {
	e := New(RCNVM, 1)
	p := nvmPlace(t, tableA(), imdb.ColMajor)
	e.BeginQuery(p.Table())
	if err := e.GroupRead(p, []string{"f3", "f6"}, 16, TouchCycles); err != nil {
		t.Fatal(err)
	}
	s := expanded(e.Streams()[0])
	var cols []uint32
	for _, op := range s {
		if op.Kind == trace.CLoad && !op.Pin {
			break // consumption begins: first block's prefetches done
		}
		if op.Pin {
			cols = append(cols, op.Coord.Column)
		}
	}
	if len(cols) != 32 {
		t.Fatalf("first block has %d prefetches, want 32", len(cols))
	}
	for i := 1; i < 16; i++ {
		if cols[i] != cols[0] {
			t.Fatalf("prefetch %d jumped columns: %v", i, cols[:17])
		}
	}
	if cols[16] == cols[0] {
		t.Fatal("second half should prefetch the second column")
	}
}

// TestWordMajorReorderWideField: unordered wide-field scan on RC-NVM visits
// one column completely before the next.
func TestWordMajorReorderWideField(t *testing.T) {
	wide := imdb.NewTable(imdb.Schema{Name: "c", Fields: []imdb.Field{
		{Name: "w", Words: 2}, {Name: "pad", Words: 6},
	}}, testTuples)
	e := New(RCNVM, 1)
	p := nvmPlace(t, wide, imdb.ColMajor)
	e.BeginQuery(p.Table())
	if err := e.ScanField(p, "w", false, AggCycles); err != nil {
		t.Fatal(err)
	}
	s := expanded(e.Streams()[0])
	var first []uint32
	for _, op := range s {
		if op.Kind == trace.CLoad {
			first = append(first, op.Coord.Column)
		}
	}
	// 8192 tuples, 1024 per column group: first 128 cloads walk word 0 of
	// group 0 (one column), not alternate between word 0 and word 1.
	for i := 1; i < 128 && i < len(first); i++ {
		if first[i] != first[0] {
			t.Fatalf("cload %d switched column early: col %d vs %d", i, first[i], first[0])
		}
	}
}

// TestPermutedRowMajorScan: an unordered scan of a row-major chunk walks
// physical columns with column accesses, one line per 8 tuples overall.
func TestPermutedRowMajorScan(t *testing.T) {
	e := New(RCNVM, 1)
	p := nvmPlace(t, tableA(), imdb.RowMajor)
	e.BeginQuery(p.Table())
	if err := e.ScanField(p, "f10", false, CmpCycles); err != nil {
		t.Fatal(err)
	}
	want := testTuples / addr.LineWords
	if got := countKind(e.Streams(), trace.CLoad); got != want {
		t.Errorf("cloads = %d, want %d", got, want)
	}
}

func TestHashOpsBounds(t *testing.T) {
	e := New(RowOnly, 2)
	hash := linPlace(t, imdb.NewTable(imdb.Uniform("hash", 2), 1024))
	if err := e.HashOps(hash, []int{0, 5, 1023}, true, HashCycles); err != nil {
		t.Fatal(err)
	}
	if got := countKind(e.Streams(), trace.Store); got != 3 {
		t.Errorf("stores = %d, want 3", got)
	}
	if err := e.HashOps(hash, []int{4096}, false, HashCycles); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
}

func TestUnknownFieldError(t *testing.T) {
	e := New(RowOnly, 1)
	p := linPlace(t, tableA())
	if err := e.ScanField(p, "nope", false, 1); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestBarrierAppendsToAllCores(t *testing.T) {
	e := New(RowOnly, 4)
	e.Barrier()
	for i, s := range e.Streams() {
		if len(s) != 1 || s[0].Kind != trace.Barrier {
			t.Fatalf("core %d stream = %v", i, s)
		}
	}
}

func TestComputeMerging(t *testing.T) {
	e := New(RowOnly, 1)
	e.emitCompute(0, 5)
	e.emitCompute(0, 7)
	s := e.Streams()[0]
	if len(s) != 1 || s[0].Cycles != 12 {
		t.Fatalf("compute ops not merged: %v", s)
	}
}

func TestArchOf(t *testing.T) {
	if ArchOf(device.DRAM) != RowOnly || ArchOf(device.RRAM) != RowOnly {
		t.Error("conventional devices should map to row-only")
	}
	if ArchOf(device.GSDRAM) != GSDRAM || ArchOf(device.RCNVM) != RCNVM {
		t.Error("arch mapping wrong")
	}
	if RowOnly.String() != "row-only" || RCNVM.String() != "rc-nvm" || GSDRAM.String() != "gs-dram" {
		t.Error("arch strings wrong")
	}
}

func TestWorkPartitioning(t *testing.T) {
	e := New(RCNVM, 4)
	p := nvmPlace(t, tableA(), imdb.ColMajor)
	e.BeginQuery(p.Table())
	if err := e.ScanField(p, "f1", false, CmpCycles); err != nil {
		t.Fatal(err)
	}
	for i, s := range e.Streams() {
		if s.MemOps() == 0 {
			t.Errorf("core %d got no work", i)
		}
	}
	if totalOps(e.Streams()) == 0 {
		t.Fatal("no ops emitted")
	}
}
