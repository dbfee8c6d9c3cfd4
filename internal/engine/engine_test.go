package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"rcnvm/internal/config"
	"rcnvm/internal/imdb"
	"rcnvm/internal/sim"
	"rcnvm/internal/trace"
)

// buildPeople creates a table with deterministic values and returns the
// reference matrix.
func buildPeople(t testing.TB, db *DB, rows int) (*Table, [][]uint64) {
	t.Helper()
	tbl, err := db.CreateTable("person", imdb.Uniform("person", 8), rows+8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	ref := make([][]uint64, rows)
	for i := 0; i < rows; i++ {
		vals := make([]uint64, 8)
		for w := range vals {
			vals[w] = uint64(rng.Intn(1000))
		}
		ref[i] = vals
		row, err := tbl.Append(vals...)
		if err != nil {
			t.Fatal(err)
		}
		if row != i {
			t.Fatalf("row id %d, want %d", row, i)
		}
	}
	return tbl, ref
}

func TestAppendAndTupleRoundTrip(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	tbl, ref := buildPeople(t, db, 500)
	for i, want := range ref {
		got, err := tbl.Tuple(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("row %d = %v, want %v", i, got, want)
		}
	}
}

func TestScanAgainstReference(t *testing.T) {
	db, _ := Open()
	tbl, ref := buildPeople(t, db, 900)
	got, err := tbl.ScanWhere("f6", func(v []uint64) bool { return v[0]%7 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for i, vals := range ref {
		if vals[5]%7 == 0 {
			want = append(want, i)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan = %d rows, want %d", len(got), len(want))
	}
}

func TestSumAvgAgainstReference(t *testing.T) {
	db, _ := Open()
	tbl, ref := buildPeople(t, db, 643)
	var want uint64
	for _, vals := range ref {
		want += vals[2]
	}
	got, err := tbl.SumField("f3", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	avg, err := tbl.AvgField("f3", nil)
	if err != nil {
		t.Fatal(err)
	}
	if wantAvg := float64(want) / 643; avg != wantAvg {
		t.Fatalf("avg = %v, want %v", avg, wantAvg)
	}
	if _, err := tbl.AvgField("f3", []int{}); err == nil {
		t.Fatal("AVG over zero rows should error")
	}
}

func TestUpdateVisibleThroughBothViews(t *testing.T) {
	db, _ := Open()
	tbl, _ := buildPeople(t, db, 100)
	if err := tbl.Update([]int{5, 50, 99}, "f4", 7777); err != nil {
		t.Fatal(err)
	}
	// Read back through a row-oriented tuple fetch.
	for _, row := range []int{5, 50, 99} {
		tu, _ := tbl.Tuple(row)
		if tu[3] != 7777 {
			t.Fatalf("row %d f4 = %d after column-store update", row, tu[3])
		}
	}
	// And through a column scan.
	rows, _ := tbl.ScanWhere("f4", func(v []uint64) bool { return v[0] == 7777 })
	if !reflect.DeepEqual(rows, []int{5, 50, 99}) {
		t.Fatalf("scan after update = %v", rows)
	}
}

func TestWideField(t *testing.T) {
	db, _ := Open()
	schema := imdb.Schema{Name: "c", Fields: []imdb.Field{
		{Name: "id", Words: 1}, {Name: "email", Words: 4},
	}}
	tbl, err := db.CreateTable("c", schema, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Append(1, 10, 11, 12, 13); err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Field(0, "email")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []uint64{10, 11, 12, 13}) {
		t.Fatalf("wide field = %v", got)
	}
	if err := tbl.SetField(0, "email", 20, 21, 22, 23); err != nil {
		t.Fatal(err)
	}
	got, _ = tbl.Field(0, "email")
	if got[0] != 20 || got[3] != 23 {
		t.Fatalf("wide field after set = %v", got)
	}
	if _, err := tbl.SumField("email", nil); err == nil {
		t.Fatal("SUM over wide field should error")
	}
}

func TestErrors(t *testing.T) {
	db, _ := Open()
	tbl, err := db.CreateTable("t", imdb.Uniform("t", 4), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", imdb.Uniform("t", 4), 2); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if _, err := db.CreateTable("bad", imdb.Uniform("bad", 4), 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := tbl.Append(1, 2); err == nil {
		t.Fatal("short tuple accepted")
	}
	tbl.Append(1, 2, 3, 4)
	tbl.Append(5, 6, 7, 8)
	if _, err := tbl.Append(9, 10, 11, 12); err == nil {
		t.Fatal("overfull table accepted")
	}
	if _, err := tbl.Tuple(2); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	if _, err := tbl.Field(0, "nope"); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, ok := db.Table("t"); !ok {
		t.Fatal("table lookup failed")
	}
	if _, ok := db.Table("missing"); ok {
		t.Fatal("phantom table")
	}
}

// TestTraceReplay: a recorded query trace replays on the timing simulator,
// and the row-only downgrade of the same trace is slower on RC-NVM
// (strided row accesses instead of column accesses).
func TestTraceReplay(t *testing.T) {
	db, _ := Open()
	tbl, _ := buildPeople(t, db, 4096)

	var stream trace.Stream
	if _, err := tbl.Traced(&stream).SumField("f7", nil); err != nil {
		t.Fatal(err)
	}
	if stream.MemOps() != 4096 {
		t.Fatalf("trace has %d mem ops, want 4096", stream.MemOps())
	}
	cloads := 0
	stream.Expand(func(op trace.Op) {
		if op.Kind == trace.CLoad {
			cloads++
		}
	})
	if cloads != 4096 {
		t.Fatalf("cloads = %d, want all 4096", cloads)
	}

	dual, err := sim.RunOn(config.RCNVM(), []trace.Stream{stream})
	if err != nil {
		t.Fatal(err)
	}
	rowOnly, err := sim.RunOn(config.RCNVM(), []trace.Stream{RowOnlyStream(stream)})
	if err != nil {
		t.Fatal(err)
	}
	if dual.TimePs*2 > rowOnly.TimePs {
		t.Errorf("column-access replay %.3fM not clearly faster than row replay %.3fM",
			dual.MCycles(), rowOnly.MCycles())
	}
}

// TestTracedHandleRecordsOnlyItsOwn: a traced handle's stream holds the
// accesses made through it and nothing else. Reads and writes through the
// table's plain handle or through another traced handle, interleaved with
// its own, never enter it, and what it records is what it records alone.
// Every handle sees the one table: a row appended through one is there for
// the others.
func TestTracedHandleRecordsOnlyItsOwn(t *testing.T) {
	db, _ := Open()
	tbl, _ := buildPeople(t, db, 64)
	if tbl.Traced(nil) != tbl {
		t.Fatal("Traced(nil) is not the handle itself")
	}
	var a, b trace.Stream
	ta, tb := tbl.Traced(&a), tbl.Traced(&b)
	sum := func(h *Table) {
		t.Helper()
		if _, err := h.SumField("f1", nil); err != nil {
			t.Fatal(err)
		}
	}
	sum(ta)
	alone := a
	a = nil

	if err := tbl.SetField(3, "f2", 7); err != nil {
		t.Fatal(err)
	}
	sum(tb)
	if err := tb.SetField(4, "f2", 9); err != nil {
		t.Fatal(err)
	}
	sum(ta)
	sum(tbl)
	if _, err := tbl.Tuple(5); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Tuple(6); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, alone) {
		t.Fatalf("traced sum recorded %d mem ops beside other handles, %d alone", a.MemOps(), alone.MemOps())
	}
	if got, want := b.MemOps(), 64+1+8; got != want {
		t.Fatalf("second handle recorded %d mem ops, want %d", got, want)
	}

	row, err := ta.Append(1, 2, 3, 4, 5, 6, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 65 || tb.Live() != 65 {
		t.Fatalf("rows %d, live %d after an append through another handle, want 65", tbl.Rows(), tb.Live())
	}
	if v, err := tb.Field(row, "f8"); err != nil || v[0] != 8 {
		t.Fatalf("appended row reads %v, %v through another handle", v, err)
	}
	if got, want := a.MemOps(), 64+8; got != want {
		t.Fatalf("appending handle recorded %d mem ops, want %d", got, want)
	}
}
