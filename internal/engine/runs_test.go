package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"rcnvm/internal/addr"
	"rcnvm/internal/fault"
	"rcnvm/internal/funcmem"
	"rcnvm/internal/imdb"
	"rcnvm/internal/trace"
)

// The run index against the cells. Every operator reads and writes through
// the index; here each result is held to a reference that reads each cell
// on its own, through the placement's Cell and the memory's ReadCoord, and
// each operator must move the memory's counters by exactly the cells it
// read or wrote, in the orientation ScanOrient or FetchOrient names. Each
// operator also runs through a Traced handle, whose stream must be the
// reference's cells one op each, in (tuple, wanted word) order. The
// capacities cover one-tuple chunks (1, 4, 15, 16), chunks of a few tuples
// (64, 100), chunks at and across a page's 512 rows (8192: 512-tuple
// chunks; 16 385: 1 025-tuple chunks of two column groups) and tables of
// fewer than 16 chunks (1, 4, 15).

var runCapacities = []int{1, 4, 15, 16, 64, 100, 511, 512, 513, 1024, 1025, 8192, 16385}

var runSchemas = []imdb.Schema{
	{Name: "one", Fields: []imdb.Field{{Name: "a", Words: 1}}},
	{Name: "three", Fields: []imdb.Field{{Name: "a", Words: 1}, {Name: "b", Words: 1}, {Name: "c", Words: 1}}},
	{Name: "wide", Fields: []imdb.Field{{Name: "a", Words: 1}, {Name: "w", Words: 4}, {Name: "c", Words: 1}}},
}

// cellAt reads word w of row on its own: the placement's Cell, then the
// memory's ReadCoord, which counts the read.
func cellAt(t *Table, row, w int) uint64 {
	return t.db.mem.ReadCoord(t.place.Cell(row, w), addr.Row)
}

// moved runs op and returns how it moved the memory's counters.
func moved(db *DB, op func()) funcmem.Counts {
	a := db.mem.Counts()
	op()
	b := db.mem.Counts()
	return funcmem.Counts{RowReads: b.RowReads - a.RowReads, RowWrites: b.RowWrites - a.RowWrites,
		ColReads: b.ColReads - a.ColReads, ColWrites: b.ColWrites - a.ColWrites}
}

// cellsOf is the counters' move for words cells of each of rows, read or
// written in the row's scan orientation, or with fetch its fetch one.
func cellsOf(t *Table, rows []int, words int, fetch, write bool) funcmem.Counts {
	var c funcmem.Counts
	for _, row := range rows {
		o := t.place.ScanOrient(row)
		if fetch {
			o = t.place.FetchOrient(row)
		}
		n := int64(words)
		switch {
		case o == addr.Row && write:
			c.RowWrites += n
		case o == addr.Row:
			c.RowReads += n
		case write:
			c.ColWrites += n
		default:
			c.ColReads += n
		}
	}
	return c
}

// cellOps is the reference trace of reading, or with write writing, tuple
// words offs of rows: one op per cell in (tuple, wanted word) order, at the
// placement's Cell, in the row's scan orientation or with fetch its fetch
// one.
func cellOps(t *Table, rows, offs []int, fetch, write bool) []trace.Op {
	var ops []trace.Op
	for _, row := range rows {
		o := t.place.ScanOrient(row)
		if fetch {
			o = t.place.FetchOrient(row)
		}
		k := trace.Load
		switch {
		case o == addr.Column && write:
			k = trace.CStore
		case o == addr.Column:
			k = trace.CLoad
		case write:
			k = trace.Store
		}
		for _, w := range offs {
			ops = append(ops, trace.Op{Kind: k, Coord: t.place.Cell(row, w)})
		}
	}
	return ops
}

// tracedOps runs op on a Traced handle of tbl and returns the stream it
// recorded, expanded one op per cell, and op's error.
func tracedOps(tbl *Table, op func(h *Table) error) ([]trace.Op, error) {
	var s trace.Stream
	err := op(tbl.Traced(&s))
	var ops []trace.Op
	s.Expand(func(o trace.Op) { ops = append(ops, o) })
	return ops, err
}

// checkOps fails unless got is want, op by op.
func checkOps(t *testing.T, how string, got, want []trace.Op) {
	t.Helper()
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("%s: traced op %d = %+v, want %+v", how, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: traced %d ops, want %d", how, len(got), len(want))
	}
}

// checkTraced runs op again on a Traced handle of tbl and holds its stream
// to want.
func checkTraced(t *testing.T, tbl *Table, how string, want []trace.Op, op func(h *Table) error) {
	t.Helper()
	got, err := tracedOps(tbl, op)
	if err != nil {
		t.Fatalf("%s traced: %v", how, err)
	}
	checkOps(t, how+" traced", got, want)
}

// words is the tuple words off, off+1, …, off+n-1.
func words(off, n int) []int { return appendWords(nil, off, n) }

// checkCells fails unless every word of every row of tbl holds what model
// says, read cell by cell.
func checkCells(t *testing.T, tbl *Table, model [][]uint64, how string) {
	t.Helper()
	for row, vals := range model[:tbl.Rows()] {
		for w, want := range vals {
			if got := cellAt(tbl, row, w); got != want {
				t.Fatalf("%s: cell (%d, %d) = %d, want %d", how, row, w, got, want)
			}
		}
	}
}

// runSel is a selection and the rows it reads, in the order it reads them.
type runSel struct {
	name string
	sel  Sel
	rows []int
}

// runSels are the selections of tbl's live rows: All; a bitmap of some of
// them and one of a stretch across chunk edges, which reads as spans; and
// listed rows ascending, descending and with a row repeated.
func runSels(tbl *Table, rng *rand.Rand) []runSel {
	live := tbl.LiveRows()
	var some []int
	for _, row := range live {
		if rng.Intn(3) == 0 {
			some = append(some, row)
		}
	}
	if len(some) == 0 {
		some = live[:1]
	}
	stretch := live[len(live)/4 : len(live)/4+max(1, len(live)/2)]
	desc := slices.Clone(some)
	slices.Reverse(desc)
	repeat := slices.Insert(slices.Clone(some), len(some)/2, some[len(some)/2])
	return []runSel{
		{"all", All, live},
		{"bitmap", bitmapOf(tbl, some), some},
		{"stretch", bitmapOf(tbl, stretch), stretch},
		{"asc", listed(some), some},
		{"desc", listed(desc), desc},
		{"repeat", listed(repeat), repeat},
	}
}

// TestRunIndexMatchesCells runs Where, ScanWhere, Sum, Group, Project,
// Set, Delete and AppendRows over every selection of runSels, on every
// schema of runSchemas at every capacity of runCapacities, and a Save →
// Load round trip.
func TestRunIndexMatchesCells(t *testing.T) {
	for _, schema := range runSchemas {
		for _, capacity := range runCapacities {
			t.Run(fmt.Sprintf("%s/%d", schema.Name, capacity), func(t *testing.T) {
				checkRunIndex(t, schema, capacity)
			})
		}
	}
}

func checkRunIndex(t *testing.T, schema imdb.Schema, capacity int) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("r", schema, capacity)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(capacity)))
	L := schema.TupleWords()
	last := len(schema.Fields) - 1
	sumField, wideField := schema.Fields[last].Name, schema.Fields[last/2].Name
	model := make([][]uint64, capacity)
	for row := range model {
		model[row] = make([]uint64, L)
		model[row][0] = uint64(rng.Intn(8)) // keys repeat: Where and Group match many
		for w := 1; w < L; w++ {
			model[row][w] = rng.Uint64()
		}
	}

	// AppendRows in batches of 1, 7, 300 and the rest, through a Traced
	// handle: writes in the fetch orientation, L cells a tuple.
	first := 0
	for _, size := range []int{1, 7, 300, capacity} {
		batch := model[first:min(first+size, capacity)]
		rows := make([]int, len(batch))
		for i := range rows {
			rows[i] = first + i
		}
		var n int
		var ops []trace.Op
		got := moved(db, func() {
			ops, err = tracedOps(tbl, func(h *Table) (err error) { n, err = h.AppendRows(batch); return err })
		})
		if err != nil || n != len(batch) {
			t.Fatalf("AppendRows of %d at %d: %d, %v", len(batch), first, n, err)
		}
		if want := cellsOf(tbl, rows, L, true, true); got != want {
			t.Fatalf("AppendRows of %d at %d moved the counters %+v, want %+v", len(batch), first, got, want)
		}
		checkOps(t, fmt.Sprintf("AppendRows of %d at %d", len(batch), first), ops, cellOps(tbl, rows, words(0, L), true, true))
		first += len(batch)
	}
	checkCells(t, tbl, model, "AppendRows")

	// Reads, over every selection, first of a table without tombstones and
	// then of one with some.
	for _, deleted := range []bool{false, true} {
		if deleted {
			dead := listed([]int{0, capacity / 2, capacity / 2, capacity - 1}) // a repeat is deleted once
			if capacity == 1 {
				dead = listed(nil)
			}
			if got := moved(db, func() { err = tbl.Delete(dead) }); err != nil || got != (funcmem.Counts{}) {
				t.Fatalf("Delete: %v, moved the counters %+v", err, got)
			}
			want := tbl.Rows() - len(sortedSet(dead.list))
			if tbl.Live() != want {
				t.Fatalf("Delete left %d live rows, want %d", tbl.Live(), want)
			}
		}
		for _, rs := range runSels(tbl, rng) {
			checkRunReads(t, tbl, model, rs, sumField, wideField, fmt.Sprintf("deleted=%v %s", deleted, rs.name))
		}
	}

	// Writes: a one-word field in the scan orientation, a wider one in the
	// fetch orientation.
	for _, rs := range runSels(tbl, rng) {
		for _, field := range []string{sumField, wideField} {
			off, n, _ := schema.FieldOffset(field)
			vals := make([]uint64, n)
			for k := range vals {
				vals[k] = rng.Uint64()
			}
			got := moved(db, func() { err = tbl.Set(rs.sel, field, vals...) })
			if err != nil {
				t.Fatalf("Set %s over %s: %v", field, rs.name, err)
			}
			if want := cellsOf(tbl, rs.rows, n, n > 1, true); got != want {
				t.Fatalf("Set %s over %s moved the counters %+v, want %+v", field, rs.name, got, want)
			}
			checkTraced(t, tbl, "Set "+field+" over "+rs.name, cellOps(tbl, rs.rows, words(off, n), n > 1, true),
				func(h *Table) error { return h.Set(rs.sel, field, vals...) })
			for _, row := range rs.rows {
				copy(model[row][off:], vals)
			}
			checkCells(t, tbl, model, "Set "+field+" over "+rs.name)
		}
	}

	// Save → Load: the loaded table holds the same cells, and the same rows
	// are live.
	var snap bytes.Buffer
	if err := db.Save(&snap); err != nil {
		t.Fatal(err)
	}
	db2, _ := Open()
	if err := db2.Load(&snap); err != nil {
		t.Fatal(err)
	}
	t2, _ := db2.Table("r")
	if !slices.Equal(t2.LiveRows(), tbl.LiveRows()) {
		t.Fatalf("Load: live rows differ")
	}
	for _, row := range tbl.LiveRows() {
		for w, want := range model[row] {
			if got := cellAt(t2, row, w); got != want {
				t.Fatalf("Load: cell (%d, %d) = %d, want %d", row, w, got, want)
			}
		}
	}
	checkRunReads(t, t2, model, runSel{"loaded", All, t2.LiveRows()}, sumField, wideField, "loaded")

	if _, per := tbl.place.ChunkRange(0); per > 512 {
		checkStuckCell(t, tbl, sumField)
	}
}

// checkStuckCell makes word 0 of a tuple in a chunk's second or later run
// uncorrectable, and runs Group and Project over every live row through a
// Traced handle. Each must fail with an error naming that cell in the
// orientation it was read in, having recorded and counted exactly the cells
// up to and including it; the scanner's block is cut before its tuple.
func checkStuckCell(t *testing.T, tbl *Table, sumField string) {
	t.Helper()
	db, L := tbl.db, tbl.Schema().TupleWords()
	_, per := tbl.place.ChunkRange(0)
	bad := per + 700 // chunk 1's tuple 700
	if r := tbl.runs.find(bad, 0); r.first == per {
		t.Fatalf("row %d lies in its chunk's first run", bad)
	}
	db.EnableFaults(fault.Config{Enabled: true, Seed: 1})
	db.Faults().AddStuck(tbl.place.Cell(bad, 0), 2)
	live := tbl.LiveRows()
	pos := slices.Index(live, bad)
	sumOff, _, _ := tbl.Schema().FieldOffset(sumField)
	var fields []string
	for _, f := range tbl.Schema().Fields {
		fields = append(fields, f.Name)
	}
	for _, sc := range []struct {
		name  string
		sel   Sel
		offs  []int
		fetch bool
		op    func(h *Table) error
	}{
		{"Group", All, []int{0, sumOff}, false, func(h *Table) error { _, err := h.Group("a", sumField, All); return err }},
		{"Project", listed(live), words(0, L), true, func(h *Table) error { _, err := h.Project(live, fields); return err }},
	} {
		var ops []trace.Op
		var err error
		got := moved(db, func() { ops, err = tracedOps(tbl, sc.op) })
		want := cellOps(tbl, live[:pos+1], sc.offs, sc.fetch, false)
		want = want[:len(want)-len(sc.offs)+1] // word 0 is the tuple's first wanted word
		o := want[len(want)-1].Kind.Orientation()
		var ue *fault.UncorrectableError
		if !errors.As(err, &ue) || ue.Coord != tbl.place.Cell(bad, 0) || ue.Orient != o {
			t.Fatalf("%s: error %v, want an uncorrectable cell (%d, 0) read in orientation %v", sc.name, err, bad, o)
		}
		cells := cellsOf(tbl, live[:pos], len(sc.offs), sc.fetch, false)
		last := cellsOf(tbl, []int{bad}, 1, sc.fetch, false)
		cells.RowReads, cells.ColReads = cells.RowReads+last.RowReads, cells.ColReads+last.ColReads
		if got != cells {
			t.Fatalf("%s: moved the counters %+v, want %+v", sc.name, got, cells)
		}
		checkOps(t, sc.name+" over a stuck cell", ops, want)

		s := tbl.scan(sc.sel, sc.offs...)
		s.fetch = sc.fetch
		n := 0
		for s.next() {
			n += s.n
		}
		n += s.n
		s.close()
		if n != pos {
			t.Fatalf("%s: the scanner read %d tuples whole, want the %d before row %d", sc.name, n, pos, bad)
		}
	}
}

// checkRunReads holds the read operators over one selection to the cells:
// their results, and how they move the memory's counters.
func checkRunReads(t *testing.T, tbl *Table, model [][]uint64, rs runSel, sumField, wideField, how string) {
	t.Helper()
	db := tbl.db
	schema := tbl.Schema()
	L := schema.TupleWords()
	ref := func(row, w int) uint64 {
		v := cellAt(tbl, row, w)
		if v != model[row][w] {
			t.Fatalf("%s: cell (%d, %d) = %d, model %d", how, row, w, v, model[row][w])
		}
		return v
	}
	fetch := !rs.sel.all

	// Where over key 0..7: the selected rows whose first word is the key.
	key := model[rs.rows[0]][0]
	var sel Sel
	var err error
	got := moved(db, func() { sel, err = tbl.Where("a", Eq, key, rs.sel) })
	if err != nil {
		t.Fatalf("%s: Where: %v", how, err)
	}
	if want := cellsOf(tbl, rs.rows, 1, fetch, false); got != want {
		t.Fatalf("%s: Where moved the counters %+v, want %+v", how, got, want)
	}
	checkTraced(t, tbl, how+": Where", cellOps(tbl, rs.rows, words(0, 1), fetch, false),
		func(h *Table) error { _, err := h.Where("a", Eq, key, rs.sel); return err })
	var match []int
	for _, row := range sortedSet(rs.rows) {
		if ref(row, 0) == key {
			match = append(match, row)
		}
	}
	if ids := tbl.RowIDs(sel, 0); !slices.Equal(ids, match) {
		t.Fatalf("%s: Where a = %d: %v, want %v", how, key, ids, match)
	}

	// Sum and Group: along the scan, whatever the selection; a listed row
	// as often as it is listed.
	sumOff, _, _ := schema.FieldOffset(sumField)
	var sum uint64
	got = moved(db, func() { sum, err = tbl.Sum(sumField, rs.sel) })
	if want := cellsOf(tbl, rs.rows, 1, false, false); err != nil || got != want {
		t.Fatalf("%s: Sum: %v, moved the counters %+v, want %+v", how, err, got, want)
	}
	checkTraced(t, tbl, how+": Sum", cellOps(tbl, rs.rows, words(sumOff, 1), false, false),
		func(h *Table) error { _, err := h.Sum(sumField, rs.sel); return err })
	var groups []GroupRow
	got = moved(db, func() { groups, err = tbl.Group("a", sumField, rs.sel) })
	if want := cellsOf(tbl, rs.rows, 2, false, false); err != nil || got != want {
		t.Fatalf("%s: Group: %v, moved the counters %+v, want %+v", how, err, got, want)
	}
	checkTraced(t, tbl, how+": Group", cellOps(tbl, rs.rows, []int{0, sumOff}, false, false),
		func(h *Table) error { _, err := h.Group("a", sumField, rs.sel); return err })
	var wantSum uint64
	byKey := map[uint64]GroupRow{}
	for _, row := range rs.rows {
		v := ref(row, sumOff)
		wantSum += v
		g := byKey[ref(row, 0)]
		g.Key, g.Sum, g.Count = ref(row, 0), g.Sum+v, g.Count+1
		byKey[g.Key] = g
	}
	if sum != wantSum {
		t.Fatalf("%s: Sum = %d, want %d", how, sum, wantSum)
	}
	if len(groups) != len(byKey) {
		t.Fatalf("%s: Group: %d groups, want %d", how, len(groups), len(byKey))
	}
	for _, g := range groups {
		if byKey[g.Key] != g {
			t.Fatalf("%s: Group %d = %+v, want %+v", how, g.Key, g, byKey[g.Key])
		}
	}

	// Project every field of the rows, in their order: the fetch
	// orientation.
	var fields []string
	for _, f := range schema.Fields {
		fields = append(fields, f.Name)
	}
	var tuples [][]uint64
	got = moved(db, func() { tuples, err = tbl.Project(rs.rows, fields) })
	if want := cellsOf(tbl, rs.rows, L, true, false); err != nil || got != want {
		t.Fatalf("%s: Project: %v, moved the counters %+v, want %+v", how, err, got, want)
	}
	checkTraced(t, tbl, how+": Project", cellOps(tbl, rs.rows, words(0, L), true, false),
		func(h *Table) error { _, err := h.Project(rs.rows, fields); return err })
	for i, row := range rs.rows {
		for w, v := range tuples[i] {
			if want := ref(row, w); v != want {
				t.Fatalf("%s: Project row %d word %d = %d, want %d", how, row, w, v, want)
			}
		}
	}

	// ScanWhere over every live row of the widest field, along the scan.
	if !rs.sel.all {
		return
	}
	wideOff, n, _ := schema.FieldOffset(wideField)
	var seen [][]uint64
	var rows []int
	got = moved(db, func() {
		rows, err = tbl.ScanWhere(wideField, func(vals []uint64) bool {
			seen = append(seen, slices.Clone(vals))
			return vals[0]&1 == 0
		})
	})
	if want := cellsOf(tbl, rs.rows, n, false, false); err != nil || got != want {
		t.Fatalf("%s: ScanWhere: %v, moved the counters %+v, want %+v", how, err, got, want)
	}
	checkTraced(t, tbl, how+": ScanWhere", cellOps(tbl, rs.rows, words(wideOff, n), false, false),
		func(h *Table) error {
			_, err := h.ScanWhere(wideField, func([]uint64) bool { return false })
			return err
		})
	var wantRows []int
	for i, row := range rs.rows {
		for k, v := range seen[i] {
			if want := ref(row, wideOff+k); v != want {
				t.Fatalf("%s: ScanWhere row %d word %d = %d, want %d", how, row, k, v, want)
			}
		}
		if seen[i][0]&1 == 0 {
			wantRows = append(wantRows, row)
		}
	}
	if !slices.Equal(rows, wantRows) {
		t.Fatalf("%s: ScanWhere matched %v, want %v", how, rows, wantRows)
	}
}

// TestRunIndexFirstReadsConcurrent has readers make the first reads of a
// freshly loaded table at once, under the shared lock, as the server's
// sessions would: as Load left its index, and with an index that has
// learned nothing, so that the readers list the runs and learn the pages
// themselves. Run it with -race.
func TestRunIndexFirstReadsConcurrent(t *testing.T) {
	const capacity = 16385 // 1 025-tuple chunks: a first run and two more
	schema := runSchemas[2]
	db, _ := Open()
	src, err := db.CreateTable("r", schema, capacity)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	rows := make([][]uint64, capacity-1) // the last chunk is one row short
	for i := range rows {
		rows[i] = make([]uint64, schema.TupleWords())
		for w := range rows[i] {
			rows[i][w] = uint64(rng.Intn(1000))
		}
	}
	if _, err := src.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	if err := src.Delete(listed([]int{3, 700, 9000})); err != nil {
		t.Fatal(err)
	}
	read := func(tbl *Table) (string, error) {
		sum, err := tbl.Sum("c", All)
		if err != nil {
			return "", err
		}
		sel, err := tbl.Where("a", Lt, 500, All)
		if err != nil {
			return "", err
		}
		tuples, err := tbl.Project(tbl.RowIDs(sel, 0), []string{"w", "c"})
		if err != nil {
			return "", err
		}
		groups, err := tbl.Group("a", "c", sel)
		if err != nil {
			return "", err
		}
		return fmt.Sprint(sum, tuples, groups), nil
	}
	want, err := read(src)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := db.Save(&snap); err != nil {
		t.Fatal(err)
	}
	for _, forget := range []bool{false, true} {
		loaded, _ := Open()
		if err := loaded.Load(bytes.NewReader(snap.Bytes())); err != nil {
			t.Fatal(err)
		}
		tbl, _ := loaded.Table("r")
		if forget {
			tbl.runs = newRunIndex(loaded.mem, tbl.place)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				loaded.RLock()
				defer loaded.RUnlock()
				got, err := read(tbl)
				if err == nil && got != want {
					err = fmt.Errorf("read %.60s…, want %.60s…", got, want)
				}
				errs <- err
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("forget=%v: %v", forget, err)
			}
		}
	}
}
