package engine

import (
	"fmt"
	"slices"
	"testing"

	"rcnvm/internal/fault"
)

// FuzzWhere holds a conjunction of one to three Where conditions to
// refWhere with the equivalent closures, each later one over the rows the
// ones before it matched, on twin tables decoded from data, one byte a row:
// bit 7 tombstones the row, bit 6 puts its key near MaxUint64 (^b&63)
// instead of near 0 (b&63). shape picks the first operator (each later
// condition takes the next), the input selection — All, a bitmap of every
// live row, or listed rows descending, or ascending with a dead row (or
// one past the end) half way — whether a trace is recorded and how many
// conditions there are; pick the value — 0, a stored key, the key ±1,
// MaxUint64 — and its row (each later condition takes a key seven rows on);
// faults adds transient bit errors and, at 2, a hard double-bit error on
// the key of the middle live row. Rows, error (its coordinate and
// orientation with it), memory counters, the recorded stream and the
// injector's counters must agree.
func FuzzWhere(f *testing.F) {
	data := make([]byte, 600)
	for i := range data {
		data[i] = byte(i * 7)
	}
	for shape := uint8(0); shape < 144; shape += 5 {
		f.Add(shape, shape/3, shape%3, data[:int(shape%46)*13])
	}
	f.Add(uint8(19), uint8(4), uint8(2), data)
	f.Add(uint8(115), uint8(9), uint8(2), data)
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
			if err := tbl.Delete(listed(dead)); err != nil {
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

		type cond struct {
			op Op
			v  uint64
		}
		conds := make([]cond, 1+int(shape)/48%3)
		for j := range conds {
			var v uint64
			if len(keys) > 0 {
				v = keys[(int(pick/5)+7*j)%len(keys)]
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
			conds[j] = cond{Op((int(shape) + j) % 6), v}
		}
		var rows []int
		in := All
		live := tbl.LiveRows()
		switch shape / 6 % 4 {
		case 1:
			rows, in = live, bitmapOf(tbl, live)
		case 2:
			rows = slices.Clone(live)
			slices.Reverse(rows)
			in = listed(rows)
		case 3:
			wrong := tbl.Rows()
			if len(dead) > 0 {
				wrong = dead[len(dead)/2]
			}
			rows = slices.Insert(slices.Clone(live), len(live)/2, wrong)
			in = listed(rows)
		}
		traced := shape/24%2 == 1

		var counted string
		got := edgeRun(db, tbl, traced, func(t *Table) (any, error) {
			sel := in
			for _, c := range conds {
				var err error
				if sel, err = t.Where("k", c.op, c.v, sel); err != nil {
					return nil, err
				}
			}
			ids := t.RowIDs(sel, 0)
			if t.Count(sel) != len(ids) {
				counted = fmt.Sprintf("Count %d of %d rows", t.Count(sel), len(ids))
			}
			return ids, nil
		})
		want := edgeRun(refDB, refTbl, traced, func(t *Table) (any, error) {
			rows := rows
			for _, c := range conds {
				m, err := refCompare(t, "k", c.op, c.v, rows)
				if err != nil {
					return nil, err
				}
				rows = sortedSet(m)
			}
			return rows, nil
		})
		name := fmt.Sprintf("%s %d rows, input %d, %d conditions, v %d, faults %d",
			whereOps[conds[0].op].name, len(keys), shape/6%4, len(conds), conds[0].v, faults%3)
		if got != want {
			t.Fatalf("%s:\n Where    %.400s\n refWhere %.400s", name, got, want)
		}
		if counted != "" {
			t.Fatalf("%s: %s", name, counted)
		}
		if c, rc := db.Mem().Counts(), refDB.Mem().Counts(); c != rc {
			t.Fatalf("%s: memory counters %+v, ref %+v", name, c, rc)
		}
	})
}
