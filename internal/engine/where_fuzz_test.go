package engine

import (
	"fmt"
	"slices"
	"testing"

	"rcnvm/internal/fault"
)

// FuzzWhere holds Where to refWhere with the equivalent closure on twin
// tables decoded from data, one byte a row: bit 7 tombstones the row, bit
// 6 puts its key near MaxUint64 (^b&63) instead of near 0 (b&63). shape
// picks the operator, the row list — nil, every live row ascending or
// descending, or ascending with a dead row (or one past the end) half way
// — and whether a trace is recorded; pick the value — 0, a stored key, the
// key ±1, MaxUint64 — and its row; faults adds transient bit errors and,
// at 2, a hard double-bit error on the key of the middle live row. Rows,
// error (its coordinate and orientation with it), memory counters, the
// recorded stream and the injector's counters must agree.
func FuzzWhere(f *testing.F) {
	data := make([]byte, 600)
	for i := range data {
		data[i] = byte(i * 7)
	}
	for shape := uint8(0); shape < 48; shape += 5 {
		f.Add(shape, shape/3, shape%3, data[:int(shape)*13])
	}
	f.Add(uint8(19), uint8(4), uint8(2), data)
	f.Fuzz(func(t *testing.T, shape, pick, faults uint8, data []byte) {
		if len(data) > 1100 {
			data = data[:1100]
		}
		keys := make([]uint64, len(data))
		var dead []int
		for i, b := range data {
			keys[i] = uint64(b & 63)
			if b&0x40 != 0 {
				keys[i] = ^keys[i]
			}
			if b&0x80 != 0 {
				dead = append(dead, i)
			}
		}
		build := func() (*DB, *Table) {
			db, err := Open()
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := db.CreateTable("f", goldenSchema, max(len(keys), 1))
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range keys {
				if _, err := tbl.Append(k, uint64(i), 0, 0, 0); err != nil {
					t.Fatal(err)
				}
			}
			if err := tbl.Delete(dead); err != nil {
				t.Fatal(err)
			}
			if faults%3 != 0 {
				db.EnableFaults(fault.Config{Enabled: true, Seed: uint64(pick), RBER: 1e-3})
				if live := tbl.LiveRows(); faults%3 == 2 && len(live) > 0 {
					db.Faults().AddStuck(tbl.CellCoord(live[len(live)/2], 0), 2)
				}
			}
			return db, tbl
		}
		db, tbl := build()
		refDB, refTbl := build()

		op := Op(shape % 6)
		var v uint64
		if len(keys) > 0 {
			v = keys[int(pick/5)%len(keys)]
		}
		switch pick % 5 {
		case 0:
			v = 0
		case 2:
			v++
		case 3:
			v--
		case 4:
			v = ^uint64(0)
		}
		var rows []int
		live := tbl.LiveRows()
		switch shape / 6 % 4 {
		case 1:
			rows = live
		case 2:
			rows = slices.Clone(live)
			slices.Reverse(rows)
		case 3:
			wrong := tbl.Rows()
			if len(dead) > 0 {
				wrong = dead[len(dead)/2]
			}
			rows = slices.Insert(slices.Clone(live), len(live)/2, wrong)
		}
		traced := shape/24%2 == 1

		var nilAnswer bool
		got := edgeRun(db, tbl, traced, func(t *Table) (any, error) {
			res, err := t.Where("k", op, v, rows)
			nilAnswer = err == nil && res == nil
			return res, err
		})
		want := edgeRun(refDB, refTbl, traced, func(t *Table) (any, error) { return refCompare(t, "k", op, v, rows) })
		name := fmt.Sprintf("%s %d rows, list %d, v %d, faults %d", whereOps[op].name, len(keys), shape/6%4, v, faults%3)
		if got != want {
			t.Fatalf("%s:\n Where    %.400s\n refWhere %.400s", name, got, want)
		}
		if nilAnswer {
			t.Fatalf("%s: Where answered nil without an error", name)
		}
		if c, rc := db.Mem().Counts(), refDB.Mem().Counts(); c != rc {
			t.Fatalf("%s: memory counters %+v, ref %+v", name, c, rc)
		}
	})
}
