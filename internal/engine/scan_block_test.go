package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"rcnvm/internal/addr"
	"rcnvm/internal/fault"
	"rcnvm/internal/imdb"
	"rcnvm/internal/trace"
)

// The block loop against a per-cell reference: the same operators written
// as one refCell per word in (tuple, wanted word) order, run on a twin
// database. Result, error, memory counters, expanded trace and the
// injector's counters must agree at every block edge.

// refCell reads one stored word on its own: the memory's read, the trace
// op, then the fault check, whose corrected word it returns.
func refCell(t *Table, row, off int, o addr.Orientation) (uint64, error) {
	c := t.place.Cell(row, off)
	v := t.db.mem.ReadCoord(c, o)
	t.record(c, o, false)
	if t.db.inj == nil {
		return v, nil
	}
	return t.db.inj.CheckWord(c, o, v)
}

// refWriteCell writes one word on its own, as Set and AppendRows wrote
// every cell before the scanner stored them: the trace op, the memory's
// write, then the wear count.
func refWriteCell(t *Table, row, off int, o addr.Orientation, v uint64) {
	c := t.place.Cell(row, off)
	t.record(c, o, true)
	t.db.mem.WriteCoord(c, o, v)
	if t.db.inj != nil {
		t.db.inj.RecordWrite(c)
	}
}

// refSet is Set's contract, cell by cell: each row of rows (nil: every live
// row) checked, then every word of the field written, in the row's
// field-scan orientation for a one-word field and its fetch orientation for
// a wider one.
func refSet(t *Table, rows []int, field string, vals ...uint64) error {
	off, words, err := t.Schema().FieldOffset(field)
	if err != nil {
		return err
	}
	if rows == nil {
		rows = t.LiveRows()
	}
	for _, row := range rows {
		if err := t.checkLive(row); err != nil {
			return err
		}
		o := t.place.FetchOrient(row)
		if words == 1 {
			o = t.place.ScanOrient(row)
		}
		for k, v := range vals {
			refWriteCell(t, row, off+k, o, v)
		}
	}
	return nil
}

// stored is a digest of every word of every row of t as the memory holds
// it, read a run at a time without counting or observing a cell.
func stored(t *Table) string {
	h := sha256.New()
	var buf []byte
	for w := 0; w < t.Schema().TupleWords(); w++ {
		for row := 0; row < t.Rows(); {
			c, o, step, n := t.place.ScanRun(row, w)
			sp := t.db.mem.Span(c, o, step, min(n, t.Rows()-row))
			run := sp.Run(t.db.mem.Page(sp.Key, false))
			vals := make([]uint64, run.Len())
			run.Copy(vals, run.Len())
			for _, v := range vals {
				buf = binary.LittleEndian.AppendUint64(buf[:0], v)
				h.Write(buf)
			}
			row += run.Len()
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// refScan is Table.scan's contract, cell by cell: each cell in its row's
// scan orientation, or with fetch in its fetch orientation.
func refScan(t *Table, rows []int, offs []int, fetch bool, f func(row int, vals []uint64)) error {
	list := rows
	if rows == nil {
		list = t.LiveRows()
	}
	vals := make([]uint64, len(offs))
	for _, row := range list {
		if err := t.checkLive(row); err != nil {
			return err
		}
		o := t.place.ScanOrient(row)
		if fetch {
			o = t.place.FetchOrient(row)
		}
		for k, off := range offs {
			v, err := refCell(t, row, off, o)
			if err != nil {
				return err
			}
			vals[k] = v
		}
		f(row, vals)
	}
	return nil
}

func refOffs(t *Table, field string) []int {
	off, words, err := t.Schema().FieldOffset(field)
	if err != nil {
		panic(err)
	}
	offs := make([]int, words)
	for k := range offs {
		offs[k] = off + k
	}
	return offs
}

// refWhere is ScanWhere's contract for a nil rows and Where's for a row
// list, which reads each listed row as a tuple read does: the per-row
// filter Where replaced.
func refWhere(t *Table, field string, pred func([]uint64) bool, rows []int) ([]int, error) {
	out := []int{}
	err := refScan(t, rows, refOffs(t, field), rows != nil, func(row int, vals []uint64) {
		if pred(vals) {
			out = append(out, row)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// whereOps is every comparison with the closure it stands for.
var whereOps = []struct {
	name string
	op   Op
	test func(x, v uint64) bool
}{
	{"eq", Eq, func(x, v uint64) bool { return x == v }},
	{"ne", Ne, func(x, v uint64) bool { return x != v }},
	{"lt", Lt, func(x, v uint64) bool { return x < v }},
	{"le", Le, func(x, v uint64) bool { return x <= v }},
	{"gt", Gt, func(x, v uint64) bool { return x > v }},
	{"ge", Ge, func(x, v uint64) bool { return x >= v }},
}

// refCompare is Where through refWhere with the equivalent closure.
func refCompare(t *Table, field string, op Op, v uint64, rows []int) ([]int, error) {
	test := whereOps[op].test
	return refWhere(t, field, func(x []uint64) bool { return test(x[0], v) }, rows)
}

func refSum(t *Table, field string, rows []int) (uint64, error) {
	var sum uint64
	err := refScan(t, rows, refOffs(t, field), false, func(_ int, vals []uint64) { sum += vals[0] })
	if err != nil {
		return 0, err
	}
	return sum, nil
}

func refMinMax(t *Table, field string, rows []int) ([2]uint64, error) {
	var all []uint64
	err := refScan(t, rows, refOffs(t, field), false, func(_ int, vals []uint64) { all = append(all, vals[0]) })
	if err != nil {
		return [2]uint64{}, err
	}
	if len(all) == 0 {
		return [2]uint64{}, fmt.Errorf("engine: MIN/MAX over zero rows")
	}
	return [2]uint64{slices.Min(all), slices.Max(all)}, nil
}

func refGroup(t *Table, key, sum string, rows []int) ([]GroupRow, error) {
	acc := make(map[uint64]*GroupRow)
	offs := append(refOffs(t, key), refOffs(t, sum)...)
	err := refScan(t, rows, offs, false, func(_ int, kv []uint64) {
		g, ok := acc[kv[0]]
		if !ok {
			g = &GroupRow{Key: kv[0]}
			acc[kv[0]] = g
		}
		g.Sum += kv[1]
		g.Count++
	})
	if err != nil {
		return nil, err
	}
	out := make([]GroupRow, 0, len(acc))
	for _, g := range acc {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// bitmapOf is the bitmap selection of rows, which ascend and are live.
func bitmapOf(t *Table, rows []int) Sel {
	bm := make([]uint64, (t.Rows()+63)>>6)
	for _, row := range rows {
		bm[row>>6] |= 1 << uint(row&63)
	}
	return Sel{bits: bm, n: len(rows)}
}

// sortedSet is rows ascending without repeats: a selection's rows.
func sortedSet(rows []int) []int {
	out := slices.Clone(rows)
	slices.Sort(out)
	return slices.Compact(out)
}

// refFetch is the tuple read of words offs of rows (nil: every live row),
// cell by cell in fetch orientation, flattened as fetch returns them.
func refFetch(t *Table, rows, offs []int) ([]uint64, error) {
	out := []uint64{}
	err := refScan(t, rows, offs, true, func(_ int, vals []uint64) { out = append(out, vals...) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// edgeTable builds a goldenSchema table of rows tuples in a table of that
// capacity (so 64 rows are sixteen 4-row chunks) with the rows of dead
// tombstoned. Keys repeat (k < 200) so that GROUP BY — whose table of groups
// outgrows its first 64 slots — has something to merge.
func edgeTable(t *testing.T, rows int, dead []int) (*DB, *Table) {
	return edgeTableCap(t, rows, rows, dead)
}

// edgeTableCap is edgeTable in a table of the given capacity.
func edgeTableCap(t *testing.T, capacity, rows int, dead []int) (*DB, *Table) {
	t.Helper()
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("e", goldenSchema, capacity)
	if err != nil {
		t.Fatal(err)
	}
	x := uint64(rows)
	next := func(n uint64) uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 33) % n
	}
	for i := 0; i < rows; i++ {
		if _, err := tbl.Append(next(200), next(1<<40), next(1<<40), next(1<<40), next(1<<20)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Delete(listed(dead)); err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

// edgeDead lists the tombstone patterns that make sense in a table of rows
// tuples. Blocks are 512, 256 (GROUP BY) and 170 (the 3-word field) tuples.
func edgeDead(rows int) map[string][]int {
	in := func(cand ...int) []int {
		var out []int
		for _, r := range cand {
			if r < rows && !slices.Contains(out, r) {
				out = append(out, r)
			}
		}
		return out
	}
	span := func(lo, hi int) []int {
		var out []int
		for r := lo; r < hi && r < rows; r++ {
			out = append(out, r)
		}
		return out
	}
	pats := map[string][]int{
		"none": nil,
		// First and last slot of each kind of block, and of the table.
		"edges": in(0, 169, 170, 255, 256, 339, 340, 511, 512, 1023, 1024, rows-1),
	}
	if rows > 512 {
		pats["block0"] = span(0, 512)    // the first block of every kind, whole
		pats["block1"] = span(512, 1024) // a whole block (1025 rows) or the tail (513)
	} else {
		pats["all"] = span(0, rows)
	}
	return pats
}

type edgeOp struct {
	name     string
	run, ref func(t *Table) (any, error)
}

// edgeSel is a selection with the rows the reference reads or writes for it
// (nil: every live row).
type edgeSel struct {
	name string
	sel  Sel
	rows []int
}

// edgeSels is every selection shape of tbl's live rows: All, row lists —
// ascending, backwards with repeats, naming a row it may not, empty, runs
// of consecutive rows — and bitmaps, whose rows ascend without repeats.
func edgeSels(tbl *Table) []edgeSel {
	live := tbl.LiveRows()
	var asc, desc []int
	for _, row := range live {
		if row%3 != 1 {
			asc = append(asc, row)
		}
	}
	for i := len(live) - 1; i >= 0; i-- {
		if live[i]%2 == 0 {
			desc = append(desc, live[i])
		}
	}
	if len(desc) > 3 {
		desc = slices.Insert(desc, 3, desc[2]) // a repeat next to itself
		desc = append(desc, desc[0])           // and one far from its first visit
	}
	// A list that names a row it may not, half way (mid-block in the larger
	// tables): a tombstoned one if there is one, else one past the end.
	wrong := tbl.Rows()
	for row := 0; row < tbl.Rows(); row++ {
		if !tbl.IsLive(row) {
			wrong = row
		}
	}
	bad := slices.Insert(slices.Clone(asc), len(asc)/2, wrong)

	// The longest stretch of consecutive live rows less its first, so that
	// it starts inside a chunk; in the larger tables it crosses 512-row
	// blocks and chunk edges. Listed, it is read as a span — but not with a
	// row repeated, and only up to a dead row put in its middle.
	var consec []int
	for i := 0; i < len(live); {
		j := i + 1
		for j < len(live) && live[j] == live[j-1]+1 {
			j++
		}
		if j-i > len(consec) {
			consec = live[i:j]
		}
		i = j
	}
	if len(consec) > 1 {
		consec = consec[1:]
	}
	consec = append([]int{}, consec...) // a list even when empty
	consecDead := slices.Insert(slices.Clone(consec), len(consec)/2, wrong)
	consecDup := slices.Clone(consec)
	if len(consec) > 0 {
		consecDup = slices.Insert(consecDup, len(consec)/2, consec[len(consec)/2])
	}
	return []edgeSel{
		{"all", All, nil}, {"asc", listed(asc), asc}, {"desc", listed(desc), desc},
		{"bad", listed(bad), bad}, {"empty", listed([]int{}), []int{}},
		{"consec", listed(consec), consec}, {"consec+dead", listed(consecDead), consecDead},
		{"consec-dup", listed(consecDup), consecDup},
		{"bits/asc", bitmapOf(tbl, asc), asc}, {"bits/consec", bitmapOf(tbl, consec), consec},
		{"bits/live", bitmapOf(tbl, live), live}, {"bits/none", bitmapOf(tbl, nil), []int{}},
	}
}

// edgeOps is every operator over every selection shape of tbl's live rows.
func edgeOps(tbl *Table) []edgeOp {
	odd := func(v []uint64) bool { return v[0]%3 == 0 }
	wide := func(v []uint64) bool { return len(v) == 3 && (v[0]^v[2])&1 == 1 }
	ops := []edgeOp{
		{"where/k",
			func(t *Table) (any, error) { return t.ScanWhere("k", odd) },
			func(t *Table) (any, error) { return refWhere(t, "k", odd, nil) }},
		{"where/w",
			func(t *Table) (any, error) { return t.ScanWhere("w", wide) },
			func(t *Table) (any, error) { return refWhere(t, "w", wide, nil) }},
	}
	// A Where over any selection selects its matches as a bitmap,
	// ascending and without repeats.
	for _, lc := range edgeSels(tbl) {
		sel, rows := lc.sel, lc.rows
		for _, w := range whereOps {
			op := w.op
			ops = append(ops, edgeOp{"where/" + w.name + "/" + lc.name,
				func(t *Table) (any, error) {
					m, err := t.Where("k", op, 100, sel)
					if err != nil {
						return nil, err
					}
					return t.RowIDs(m, 0), nil
				},
				func(t *Table) (any, error) {
					m, err := refCompare(t, "k", op, 100, rows)
					if err != nil {
						return nil, err
					}
					return sortedSet(m), nil
				}})
		}
		ops = append(ops,
			edgeOp{"sum/" + lc.name,
				func(t *Table) (any, error) { return t.Sum("v", sel) },
				func(t *Table) (any, error) { return refSum(t, "v", rows) }},
			edgeOp{"minmax/" + lc.name,
				func(t *Table) (any, error) {
					lo, hi, err := t.MinMax("k", sel)
					return [2]uint64{lo, hi}, err
				},
				func(t *Table) (any, error) { return refMinMax(t, "k", rows) }},
			edgeOp{"group/" + lc.name,
				func(t *Table) (any, error) { return t.Group("k", "v", sel) },
				func(t *Table) (any, error) { return refGroup(t, "k", "v", rows) }},
			// Five words a tuple, out of order: 102 tuples a block.
			edgeOp{"fetch/" + lc.name,
				func(t *Table) (any, error) {
					vals, _, err := t.fetch(sel, []int{4, 1, 2, 3, 0})
					if err != nil {
						vals = nil
					}
					return vals, err
				},
				func(t *Table) (any, error) { return refFetch(t, rows, []int{4, 1, 2, 3, 0}) }},
		)
	}
	return ops
}

// edgeRun is what one operator call on tbl, a table of db, leaves behind;
// a traced call goes through a handle that records.
func edgeRun(db *DB, tbl *Table, traced bool, run func(*Table) (any, error)) string {
	c0 := db.Mem().Counts()
	var stream trace.Stream
	if traced {
		tbl = tbl.Traced(&stream)
	}
	res, err := run(tbl)
	out := fmt.Sprintf("res=%v err=%v n=%s", res, err, countsDelta(c0, db.Mem().Counts()))
	if traced {
		out += " tr=" + streamDigest(stream)
	}
	if db.Faults() != nil {
		out += fmt.Sprintf(" f=%+v", db.Faults().Counts())
	}
	return out
}

// TestScanBlockEdges: table sizes around the block sizes, the 64-row table
// of 4-row chunks, tombstones on block edges and over whole blocks, row
// lists across blocks, backwards with repeats, and naming a dead row; plain,
// traced, with seeded transient faults, and with a hard double-bit error on
// a word half way through the live rows (the second wanted word of GROUP BY
// and the middle word of the wide field: the cells of that tuple before it
// are counted, none after).
func TestScanBlockEdges(t *testing.T) {
	type setting struct {
		name   string
		traced bool
		faults *fault.Config
		stuck  int // tuple word to break, -1 for none
	}
	settings := []setting{
		{"plain", false, nil, -1},
		{"traced", true, nil, -1},
		{"transient", true, &fault.Config{Enabled: true, Seed: 0xb10c, RBER: 2e-4}, -1},
		{"stuck-v", true, &fault.Config{Enabled: true, Seed: 7, RBER: 1e-4}, 4},
		{"stuck-w", false, &fault.Config{Enabled: true, Seed: 8}, 2},
		{"stuck-k", true, &fault.Config{Enabled: true, Seed: 9}, 0},
	}
	for _, rows := range []int{1, 4, 63, 64, 511, 512, 513, 1025} {
		for pat, dead := range edgeDead(rows) {
			for _, set := range settings {
				name := fmt.Sprintf("%d/%s/%s", rows, pat, set.name)
				db, tbl := edgeTable(t, rows, dead)
				refDB, refTbl := edgeTable(t, rows, dead)
				if set.faults != nil {
					live := tbl.LiveRows()
					for _, d := range []*DB{db, refDB} {
						d.EnableFaults(*set.faults)
						if set.stuck >= 0 && len(live) > 0 {
							d.Faults().AddStuck(tbl.CellCoord(live[len(live)/2], set.stuck), 2)
						}
					}
				}
				refOps := edgeOps(refTbl)
				for i, op := range edgeOps(tbl) {
					got := edgeRun(db, tbl, set.traced, op.run)
					want := edgeRun(refDB, refTbl, set.traced, refOps[i].ref)
					if got != want {
						t.Fatalf("%s %s:\n block loop %.300s\n per cell   %.300s", name, op.name, got, want)
					}
				}
			}
		}
	}
}

// TestWriteBlockEdges is TestScanBlockEdges for the writes, against refSet
// and appendCells, which write one cell at a time: a Set of the one-word
// and of the wide field over every selection shape, then appends of 1, 170,
// 171 and 513 tuples and one past the capacity, in tables whose capacity
// leaves room for them. After each write, the stored words, the memory
// counters, the expanded trace and the injector's counters must agree.
func TestWriteBlockEdges(t *testing.T) {
	settings := []struct {
		name   string
		traced bool
		faults bool
	}{{"plain", false, false}, {"traced", true, false}, {"wear", true, true}}
	for _, rows := range []int{1, 4, 63, 64, 511, 512, 513, 1025} {
		for pat, dead := range edgeDead(rows) {
			for _, set := range settings {
				name := fmt.Sprintf("%d/%s/%s", rows, pat, set.name)
				capacity := rows + 1200
				db, tbl := edgeTableCap(t, capacity, rows, dead)
				refDB, refTbl := edgeTableCap(t, capacity, rows, dead)
				if set.faults {
					for _, d := range []*DB{db, refDB} {
						d.EnableFaults(fault.Config{Enabled: true, Seed: 0x5e7, RBER: 1e-4})
					}
				}
				type writeOp struct {
					name     string
					run, ref func(t *Table) error
				}
				var ops []writeOp
				for i, lc := range edgeSels(tbl) {
					sel, rows, v := lc.sel, lc.rows, uint64(1000+3*i)
					ops = append(ops,
						writeOp{"set/" + lc.name,
							func(t *Table) error { return t.Set(sel, "v", v) },
							func(t *Table) error { return refSet(t, rows, "v", v) }},
						writeOp{"set/w/" + lc.name,
							func(t *Table) error { return t.Set(sel, "w", v, v+1, v+2) },
							func(t *Table) error { return refSet(t, rows, "w", v, v+1, v+2) }})
				}
				for i, n := range []int{1, 170, 171, 513, 400} {
					tuples := make([][]uint64, n)
					for j := range tuples {
						x := uint64(i<<20 + j)
						tuples[j] = []uint64{x % 200, x, x + 1, x + 2, x * 3}
					}
					ops = append(ops, writeOp{fmt.Sprintf("append/%d", n),
						func(t *Table) error {
							k, err := t.AppendRows(tuples)
							return errors.Join(fmt.Errorf("stored %d", k), err)
						},
						func(t *Table) error {
							k := 0
							for _, vals := range tuples {
								if err := appendCells(t, vals); err != nil {
									return errors.Join(fmt.Errorf("stored %d", k), err)
								}
								k++
							}
							return errors.Join(fmt.Errorf("stored %d", k), nil)
						}})
				}
				for _, op := range ops {
					got := edgeRun(db, tbl, set.traced, func(t *Table) (any, error) {
						err := op.run(t)
						return stored(t), err
					})
					want := edgeRun(refDB, refTbl, set.traced, func(t *Table) (any, error) {
						err := op.ref(t)
						return stored(t), err
					})
					if got != want {
						t.Fatalf("%s %s:\n block store %.300s\n per cell    %.300s", name, op.name, got, want)
					}
				}
			}
		}
	}
}

// TestScanWiderThanABlock: a field of more words than a block holds goes a
// tuple at a time.
func TestScanWiderThanABlock(t *testing.T) {
	const words = blockWords + 88
	pred := func(v []uint64) bool { return len(v) == words && v[0] >= 2000 && v[words-1] == v[0]+words-1 }
	var left [2]string
	for side, scan := range []func(*Table) (any, error){
		func(t *Table) (any, error) { return t.ScanWhere("big", pred) },
		func(t *Table) (any, error) { return refWhere(t, "big", pred, nil) },
	} {
		db, err := Open()
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.CreateTable("x", imdb.Schema{Name: "x", Fields: []imdb.Field{
			{Name: "k", Words: 1}, {Name: "big", Words: words},
		}}, 8)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			vals := make([]uint64, 1+words)
			for j := range vals {
				vals[j] = uint64(i*1000 + j)
			}
			if _, err := tbl.Append(vals...); err != nil {
				t.Fatal(err)
			}
		}
		if err := tbl.Delete(listed([]int{3})); err != nil {
			t.Fatal(err)
		}
		left[side] = edgeRun(db, tbl, true, scan)
	}
	if left[0] != left[1] || !strings.HasPrefix(left[0], "res=[2 4] err=<nil> ") {
		t.Fatalf("block loop %s\n per cell   %s", left[0], left[1])
	}
}

// TestScanWherePredContract: pred runs exactly once per live row, in
// ascending row order, whatever it answers — sql's join-key scan collects
// its keys from a predicate that never matches.
func TestScanWherePredContract(t *testing.T) {
	for _, rows := range []int{64, 1025} {
		for pat, dead := range edgeDead(rows) {
			_, tbl := edgeTable(t, rows, dead)
			var want []uint64
			for _, row := range tbl.LiveRows() {
				f, err := tbl.Field(row, "k")
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, f[0])
			}
			for _, answer := range []bool{false, true} {
				var seen []uint64
				match, err := tbl.ScanWhere("k", func(v []uint64) bool {
					seen = append(seen, v[0])
					return answer
				})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(seen, want) {
					t.Fatalf("%d/%s: pred saw %d values, want the %d live rows' in row order", rows, pat, len(seen), len(want))
				}
				if answer && !slices.Equal(match, tbl.LiveRows()) || !answer && match != nil {
					t.Fatalf("%d/%s: pred always %v matched %d rows", rows, pat, answer, len(match))
				}
			}
		}
	}
}

// TestWhereContract: a Where that matches nothing selects nothing, so the
// next condition and an aggregate over it read no cell — a nil row list
// once read as every live row — and Where refuses what it cannot compare.
func TestWhereContract(t *testing.T) {
	db, tbl := edgeTable(t, 64, []int{5})
	for i, in := range []Sel{All, {}, listed([]int{0, 1, 2}), bitmapOf(tbl, []int{0, 1, 2})} {
		for _, c := range []struct {
			op Op
			v  uint64
		}{{Gt, ^uint64(0)}, {Lt, 0}} {
			got, err := tbl.Where("k", c.op, c.v, in)
			if err != nil || tbl.Count(got) != 0 || len(tbl.RowIDs(got, 0)) != 0 {
				t.Fatalf("input %d, op %d %d: matched %d rows, err %v", i, c.op, c.v, tbl.Count(got), err)
			}
			c0 := db.Mem().Counts()
			sum, err := tbl.Sum("v", got)
			if err != nil || sum != 0 || db.Mem().Counts() != c0 {
				t.Fatalf("input %d: SUM over no match is %d (err %v) and read %s", i, sum, err, countsDelta(c0, db.Mem().Counts()))
			}
		}
	}
	for _, c := range []struct {
		field string
		op    Op
		want  string
	}{
		{"w", Eq, "engine: WHERE on multi-word field w"},
		{"nope", Eq, "no field"},
		{"k", Ge + 1, "engine: unknown comparison 6"},
	} {
		if _, err := tbl.Where(c.field, c.op, 1, All); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("Where(%q, %d): err %v, want %q", c.field, c.op, err, c.want)
		}
	}
}

// TestGroupSumKeys: a key below 64 indexes its group directly and the rest
// go through the hash table. Both kinds in one GROUP BY — 0 … 63, 64, 2^63
// and MaxUint64, with tombstones — over every live row and over listed
// rows give refGroup's groups, ordered by key, with the same counters and
// trace.
func TestGroupSumKeys(t *testing.T) {
	keys := []uint64{64, 1 << 63, ^uint64(0)}
	for k := uint64(0); k < 64; k++ {
		keys = append(keys, k)
	}
	const rows = 1100
	build := func() (*DB, *Table) {
		db, err := Open()
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.CreateTable("g", goldenSchema, rows)
		if err != nil {
			t.Fatal(err)
		}
		var dead []int
		for i := 0; i < rows; i++ {
			if _, err := tbl.Append(keys[i*37%len(keys)], 0, 0, 0, uint64(i)); err != nil {
				t.Fatal(err)
			}
			if i%9 == 4 {
				dead = append(dead, i)
			}
		}
		if err := tbl.Delete(listed(dead)); err != nil {
			t.Fatal(err)
		}
		return db, tbl
	}
	db, tbl := build()
	refDB, refTbl := build()
	live := tbl.LiveRows()
	var desc []int
	for i := len(live) - 1; i >= 0; i -= 2 {
		desc = append(desc, live[i])
	}
	for _, lc := range []struct {
		name string
		rows []int
	}{{"nil", nil}, {"asc", live[100:900]}, {"desc", desc}} {
		got := edgeRun(db, tbl, true, func(t *Table) (any, error) { return t.GroupSum("k", "v", lc.rows) })
		want := edgeRun(refDB, refTbl, true, func(t *Table) (any, error) { return refGroup(t, "k", "v", lc.rows) })
		if got != want {
			t.Fatalf("%s:\n direct %.300s\n ref    %.300s", lc.name, got, want)
		}
	}
	g, err := tbl.GroupSum("k", "v", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != len(keys) || g[63].Key != 63 || g[64].Key != 64 || g[65].Key != 1<<63 || g[66].Key != ^uint64(0) {
		t.Fatalf("%d groups, want %d ordered by key: %v", len(g), len(keys), g)
	}
}

// TestBitmapWalkPastEmptyStretch: a block of a field wider than 8 words
// holds fewer than 64 rows, so a stretch of a bitmap word can have no set
// bit while a later row of the same word does. The walk steps over it: a
// Set over the bitmap reaches row 120, and an export of the live rows after
// a DELETE reaches the rows past the gap.
func TestBitmapWalkPastEmptyStretch(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("x", imdb.Schema{Name: "x", Fields: []imdb.Field{
		{Name: "k", Words: 1}, {Name: "w", Words: 9},
	}}, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := tbl.Append(make([]uint64, 10)...); err != nil {
			t.Fatal(err)
		}
	}
	want := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if err := tbl.Set(Sel{bits: []uint64{1, 1 << 56, 0, 0}, n: 2}, "w", want...); err != nil {
		t.Fatal(err)
	}
	for _, row := range []int{0, 120} {
		if got, err := tbl.Field(row, "w"); err != nil || !slices.Equal(got, want) {
			t.Fatalf("row %d: w = %v, %v; want %v", row, got, err, want)
		}
	}
	gap := make([]int, 0, 119)
	for row := 1; row < 120; row++ {
		gap = append(gap, row)
	}
	if err := tbl.Delete(listed(gap)); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := tbl.ExportCSV(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 1+81 || lines[2] != "0,1,2,3,4,5,6,7,8,9" {
		t.Fatalf("export of the 81 live rows has %d lines, row 120 %q", len(lines), lines[min(2, len(lines)-1)])
	}
}
