package engine

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"rcnvm/internal/fault"
	"rcnvm/internal/imdb"
)

// The block loop against a per-cell reference: the same operators written
// as one readCell per word in (tuple, wanted word) order, run on a twin
// database. Result, error, memory counters, expanded trace and the
// injector's counters must agree at every block edge.

// refScan is Table.scan's contract, cell by cell.
func refScan(t *Table, rows []int, offs []int, f func(row int, vals []uint64)) error {
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
		for k, off := range offs {
			v, err := t.db.readCell(t.place.Cell(row, off), o)
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

func refWhere(t *Table, field string, pred func([]uint64) bool) ([]int, error) {
	var out []int
	err := refScan(t, nil, refOffs(t, field), func(row int, vals []uint64) {
		if pred(vals) {
			out = append(out, row)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func refSum(t *Table, field string, rows []int) (uint64, error) {
	var sum uint64
	err := refScan(t, rows, refOffs(t, field), func(_ int, vals []uint64) { sum += vals[0] })
	if err != nil {
		return 0, err
	}
	return sum, nil
}

func refMinMax(t *Table, field string, rows []int) ([2]uint64, error) {
	var all []uint64
	err := refScan(t, rows, refOffs(t, field), func(_ int, vals []uint64) { all = append(all, vals[0]) })
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
	err := refScan(t, rows, offs, func(_ int, kv []uint64) {
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

func refJoin(a *Table, aField string, b *Table, bField string) ([][2]int, error) {
	build := make(map[uint64][]int)
	err := refScan(a, nil, refOffs(a, aField), func(row int, k []uint64) { build[k[0]] = append(build[k[0]], row) })
	if err != nil {
		return nil, err
	}
	var out [][2]int
	err = refScan(b, nil, refOffs(b, bField), func(row int, k []uint64) {
		for _, ar := range build[k[0]] {
			out = append(out, [2]int{ar, row})
		}
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out, nil
}

// edgeTable builds a goldenSchema table of rows tuples in a table of that
// capacity (so 64 rows are sixteen 4-row chunks) with the rows of dead
// tombstoned. Keys repeat (k < 200) so that GROUP BY — whose table of groups
// outgrows its first 64 slots — and the self-join have something to merge.
func edgeTable(t *testing.T, mode Mode, rows int, dead []int) (*DB, *Table) {
	t.Helper()
	db, err := Open(mode)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("e", goldenSchema, rows)
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
	if err := tbl.Delete(dead); err != nil {
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

// edgeOps is every operator over every row-list shape of tbl's live rows.
func edgeOps(tbl *Table) []edgeOp {
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

	odd := func(v []uint64) bool { return v[0]%3 == 0 }
	wide := func(v []uint64) bool { return len(v) == 3 && (v[0]^v[2])&1 == 1 }
	ops := []edgeOp{
		{"where/k",
			func(t *Table) (any, error) { return t.ScanWhere("k", odd) },
			func(t *Table) (any, error) { return refWhere(t, "k", odd) }},
		{"where/w",
			func(t *Table) (any, error) { return t.ScanWhere("w", wide) },
			func(t *Table) (any, error) { return refWhere(t, "w", wide) }},
		{"join",
			func(t *Table) (any, error) { return Join(t, "k", t, "k") },
			func(t *Table) (any, error) { return refJoin(t, "k", t, "k") }},
	}
	for _, lc := range []struct {
		name string
		rows []int
	}{{"nil", nil}, {"asc", asc}, {"desc", desc}, {"bad", bad}, {"empty", []int{}}} {
		rows := lc.rows
		ops = append(ops,
			edgeOp{"sum/" + lc.name,
				func(t *Table) (any, error) { return t.SumField("v", rows) },
				func(t *Table) (any, error) { return refSum(t, "v", rows) }},
			edgeOp{"minmax/" + lc.name,
				func(t *Table) (any, error) {
					lo, hi, err := t.MinMaxField("k", rows)
					return [2]uint64{lo, hi}, err
				},
				func(t *Table) (any, error) { return refMinMax(t, "k", rows) }},
			edgeOp{"group/" + lc.name,
				func(t *Table) (any, error) { return t.GroupSum("k", "v", rows) },
				func(t *Table) (any, error) { return refGroup(t, "k", "v", rows) }},
		)
	}
	return ops
}

// edgeRun is what one operator call leaves behind.
func edgeRun(db *DB, traced bool, run func() (any, error)) string {
	c0 := db.Mem().Counts()
	if traced {
		db.StartTrace()
	}
	res, err := run()
	out := fmt.Sprintf("res=%v err=%v n=%s", res, err, countsDelta(c0, db.Mem().Counts()))
	if traced {
		out += " tr=" + streamDigest(db.StopTrace())
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
	for _, mode := range []Mode{DualAddress, RowOnly} {
		for _, rows := range []int{1, 4, 63, 64, 511, 512, 513, 1025} {
			for pat, dead := range edgeDead(rows) {
				for _, set := range settings {
					name := fmt.Sprintf("%s/%d/%s/%s", mode, rows, pat, set.name)
					db, tbl := edgeTable(t, mode, rows, dead)
					refDB, refTbl := edgeTable(t, mode, rows, dead)
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
						got := edgeRun(db, set.traced, func() (any, error) { return op.run(tbl) })
						want := edgeRun(refDB, set.traced, func() (any, error) { return refOps[i].ref(refTbl) })
						if got != want {
							t.Fatalf("%s %s:\n block loop %.300s\n per cell   %.300s", name, op.name, got, want)
						}
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
	for _, mode := range []Mode{DualAddress, RowOnly} {
		var left [2]string
		for side, scan := range []func(*Table) (any, error){
			func(t *Table) (any, error) { return t.ScanWhere("big", pred) },
			func(t *Table) (any, error) { return refWhere(t, "big", pred) },
		} {
			db, err := Open(mode)
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
			if err := tbl.Delete([]int{3}); err != nil {
				t.Fatal(err)
			}
			left[side] = edgeRun(db, true, func() (any, error) { return scan(tbl) })
		}
		if left[0] != left[1] || !strings.HasPrefix(left[0], "res=[2 4] err=<nil> ") {
			t.Fatalf("%s:\n block loop %s\n per cell   %s", mode, left[0], left[1])
		}
	}
}

// TestScanWherePredContract: pred runs exactly once per live row, in
// ascending row order, whatever it answers — sql's join-key scan collects
// its keys from a predicate that never matches.
func TestScanWherePredContract(t *testing.T) {
	for _, mode := range []Mode{DualAddress, RowOnly} {
		for _, rows := range []int{64, 1025} {
			for pat, dead := range edgeDead(rows) {
				_, tbl := edgeTable(t, mode, rows, dead)
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
						t.Fatalf("%s/%d/%s: pred saw %d values, want the %d live rows' in row order", mode, rows, pat, len(seen), len(want))
					}
					if answer && !slices.Equal(match, tbl.LiveRows()) || !answer && match != nil {
						t.Fatalf("%s/%d/%s: pred always %v matched %d rows", mode, rows, pat, answer, len(match))
					}
				}
			}
		}
	}
}
