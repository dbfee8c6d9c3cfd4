package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rcnvm/internal/fault"
	"rcnvm/internal/funcmem"
	"rcnvm/internal/imdb"
	"rcnvm/internal/trace"
)

// appendSchemas are the tuple shapes of the append model test: one word,
// a wide field between narrow ones, one field of five words.
var appendSchemas = []imdb.Schema{
	{Name: "a", Fields: []imdb.Field{{Name: "x", Words: 1}}},
	{Name: "a", Fields: []imdb.Field{{Name: "id", Words: 1}, {Name: "w", Words: 2}, {Name: "v", Words: 1}}},
	{Name: "a", Fields: []imdb.Field{{Name: "wide", Words: 5}}},
}

// appendWorld is one database of the append model test, with the wear
// model on and its table reached through a handle that records into stream.
type appendWorld struct {
	db     *DB
	t      *Table
	stream *trace.Stream
}

func newAppendWorld(t *testing.T, schema imdb.Schema, capacity int) appendWorld {
	t.Helper()
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	db.EnableFaults(fault.Config{Enabled: true, Seed: 11})
	tbl, err := db.CreateTable("a", schema, capacity)
	if err != nil {
		t.Fatal(err)
	}
	stream := new(trace.Stream)
	return appendWorld{db, tbl.Traced(stream), stream}
}

// appendCells is the tuple-at-a-time append AppendRows replaced, the
// reference of the append model test: its checks, then one refWriteCell per
// word in the tuple's fetch orientation.
func appendCells(t *Table, vals []uint64) error {
	if L := t.Schema().TupleWords(); len(vals) != L {
		return fmt.Errorf("engine: tuple needs %d words, got %d", L, len(vals))
	}
	if t.rows >= t.capacity {
		return fmt.Errorf("engine: table full (%d rows)", t.capacity)
	}
	row := t.rows
	t.rows++
	if len(t.live.bits) < (t.rows+63)>>6 {
		t.live.bits = append(t.live.bits, 0)
	}
	t.live.bits[row>>6] |= 1 << uint(row&63)
	t.live.n++
	o := t.place.FetchOrient(row)
	for w, v := range vals {
		refWriteCell(t, row, w, o, v)
	}
	return nil
}

// TestAppendRowsMatchesAppend: seeded lists of tuples, some with a tuple of
// the wrong width in the middle and most running past the table's capacity,
// go into one table through AppendRows, into another through Append, and
// into a third through appendCells, one tuple at a time until the first
// error. Between lists the tables lose the same rows to Delete. Every count and error text, the stored tuples, Rows and
// Live, the Save bytes, the memory counters, the recorded stream and the
// wear of every subarray the table uses must agree.
func TestAppendRowsMatchesAppend(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		schema := appendSchemas[rng.Intn(len(appendSchemas))]
		L := schema.TupleWords()
		capacity := 1 + rng.Intn(3000)
		blk, one, ref := newAppendWorld(t, schema, capacity), newAppendWorld(t, schema, capacity), newAppendWorld(t, schema, capacity)
		for list := 0; list < 6; list++ {
			rows := make([][]uint64, rng.Intn(capacity/2+2))
			room := capacity - ref.t.Rows()
			for i := range rows {
				width := L
				// A bad width now and then, and always on the first tuple
				// that does not fit in odd seeds' tables.
				if rng.Intn(400) == 0 || (i == room && seed%2 == 1) {
					width = L + 1 - 2*rng.Intn(2)
				}
				rows[i] = make([]uint64, width)
				for k := range rows[i] {
					rows[i][k] = rng.Uint64()
				}
			}
			name := fmt.Sprintf("seed %d list %d (%d rows, %d stored)", seed, list, len(rows), ref.t.Rows())
			want, wantErr := 0, error(nil)
			for _, vals := range rows {
				if wantErr = appendCells(ref.t, vals); wantErr != nil {
					break
				}
				want++
			}
			n, err := blk.t.AppendRows(rows)
			if n != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: AppendRows stored %d, %v; want %d, %v", name, n, err, want, wantErr)
			}
			n, err = 0, nil
			for _, vals := range rows {
				if _, err = one.t.Append(vals...); err != nil {
					break
				}
				n++
			}
			if n != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: Append stored %d, %v; want %d, %v", name, n, err, want, wantErr)
			}
			var dead []int
			for _, row := range ref.t.LiveRows() {
				if rng.Intn(5) == 0 {
					dead = append(dead, row)
				}
			}
			for _, w := range []appendWorld{blk, one, ref} {
				if err := w.t.Delete(listed(dead)); err != nil {
					t.Fatal(err)
				}
			}
			compareAppendWorlds(t, name, ref, map[string]appendWorld{"AppendRows": blk, "Append": one})
		}
	}
}

// compareAppendWorlds reads every world the same way, each once, and
// fails at the first thing a world other than ref shows differently.
func compareAppendWorlds(t *testing.T, name string, ref appendWorld, others map[string]appendWorld) {
	t.Helper()
	type view struct {
		rows, live int
		tuples     [][]uint64
		snapshot   []byte
		mem        funcmem.Counts
		faults     fault.Counts
		wear       []int64
		stream     trace.Stream
	}
	look := func(w appendWorld) view {
		v := view{rows: w.t.Rows(), live: w.t.Live()}
		for _, row := range w.t.LiveRows() {
			vals, err := w.t.Tuple(row)
			if err != nil {
				t.Fatal(err)
			}
			v.tuples = append(v.tuples, vals)
		}
		var snap bytes.Buffer
		if err := w.db.Save(&snap); err != nil {
			t.Fatal(err)
		}
		v.snapshot = snap.Bytes()
		v.mem, v.faults = w.db.Mem().Counts(), w.db.Faults().Counts()
		for row := 0; row < w.t.Capacity(); row++ {
			v.wear = append(v.wear, w.db.Faults().SubarrayWrites(w.t.CellCoord(row, 0)))
		}
		v.stream, *w.stream = *w.stream, nil
		return v
	}
	want := look(ref)
	for how, w := range others {
		got := look(w)
		switch {
		case got.rows != want.rows || got.live != want.live:
			t.Fatalf("%s, %s: rows/live %d/%d, want %d/%d", name, how, got.rows, got.live, want.rows, want.live)
		case !reflect.DeepEqual(got.tuples, want.tuples):
			t.Fatalf("%s, %s: stored tuples differ", name, how)
		case !bytes.Equal(got.snapshot, want.snapshot):
			t.Fatalf("%s, %s: snapshots differ", name, how)
		case got.mem != want.mem:
			t.Fatalf("%s, %s: memory counters %+v, want %+v", name, how, got.mem, want.mem)
		case got.faults != want.faults:
			t.Fatalf("%s, %s: fault counters %+v, want %+v", name, how, got.faults, want.faults)
		case !reflect.DeepEqual(got.wear, want.wear):
			t.Fatalf("%s, %s: subarray wear differs", name, how)
		case !reflect.DeepEqual(got.stream, want.stream):
			t.Fatalf("%s, %s: recorded streams differ (%d and %d records)", name, how, len(got.stream), len(want.stream))
		}
	}
}

// BenchmarkAppendRows is the engine under one olap_scan load statement: 256
// tuples of (id, grp, val) into a 16 384-row table, which is replaced by an
// empty one off the clock when full. What a table's first write to a place
// makes — the memory pages its tuples will occupy and its run index's lists
// of runs — is made off the clock too, so that allocs/op — which CI's
// zero-alloc gate holds at 0 — counts the writer's own.
func BenchmarkAppendRows(b *testing.B) {
	rows := make([][]uint64, 256)
	for i := range rows {
		rows[i] = []uint64{uint64(i), uint64(i % 8), uint64(3 * i)}
	}
	b.ReportAllocs()
	var t *Table
	for i := 0; i < b.N; i++ {
		if i%(benchRows/len(rows)) == 0 {
			b.StopTimer()
			t = benchTable(b, benchRows, 0)
			for w := 0; w < 3; w++ {
				for row := 0; row < benchRows; {
					r := t.runs.find(row, w)
					r.view(t.db.mem, row, true)
					row = r.first + r.n
				}
			}
			b.StartTimer()
		}
		if _, err := t.AppendRows(rows); err != nil {
			b.Fatal(err)
		}
	}
}
