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

	db.StartTrace()
	if _, err := tbl.SumField("f7", nil); err != nil {
		t.Fatal(err)
	}
	stream := db.StopTrace()
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

func TestTraceRecordingOffByDefault(t *testing.T) {
	db, _ := Open()
	tbl, _ := buildPeople(t, db, 16)
	tbl.SumField("f1", nil)
	if s := db.StopTrace(); len(s) != 0 {
		t.Fatal("trace recorded without StartTrace")
	}
}

func TestVacuum(t *testing.T) {
	db, _ := Open()
	tbl, ref := buildPeople(t, db, 100)
	if err := tbl.Delete([]int{0, 10, 50, 99}); err != nil {
		t.Fatal(err)
	}
	reclaimed, err := tbl.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed != 4 || tbl.Rows() != 96 || tbl.Live() != 96 {
		t.Fatalf("reclaimed=%d rows=%d live=%d", reclaimed, tbl.Rows(), tbl.Live())
	}
	// Surviving tuples keep their order, compacted.
	var want [][]uint64
	for i, vals := range ref {
		if i == 0 || i == 10 || i == 50 || i == 99 {
			continue
		}
		want = append(want, vals)
	}
	for i, w := range want {
		got, err := tbl.Tuple(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("row %d after vacuum = %v, want %v", i, got, w)
		}
	}
	// Appending after vacuum reuses the reclaimed slots.
	if _, err := tbl.Append(make([]uint64, 8)...); err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 97 {
		t.Fatalf("rows after append = %d", tbl.Rows())
	}
	// No-op vacuum.
	if n, _ := tbl.Vacuum(); n != 0 {
		t.Fatalf("second vacuum reclaimed %d", n)
	}
}
