package engine

import (
	"fmt"
	"testing"

	"rcnvm/internal/addr"
	"rcnvm/internal/fault"
	"rcnvm/internal/imdb"
	"rcnvm/internal/trace"
)

// pinTable is TestScanObservePinned's table: 2 000 tuples of goldenSchema
// (k, a 3-word w, v), built with the injector on so the appends feed the
// wear model; with tombstones, every 7th row and the rows 600–639 are
// deleted.
func pinTable(t *testing.T, tombstones bool) (*DB, *Table) {
	t.Helper()
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	db.EnableFaults(fault.Config{Enabled: true, Seed: 0x0b5e, RBER: 1e-4})
	tbl, err := db.CreateTable("p", goldenSchema, 2000)
	if err != nil {
		t.Fatal(err)
	}
	x := uint64(77)
	next := func(n uint64) uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 33) % n
	}
	for i := 0; i < 2000; i++ {
		if _, err := tbl.Append(next(100), next(1<<40), next(1<<40), next(1<<40), next(1<<20)); err != nil {
			t.Fatal(err)
		}
	}
	if tombstones {
		var dead []int
		for row := 0; row < 2000; row++ {
			if row%7 == 3 || (row >= 600 && row < 640) {
				dead = append(dead, row)
			}
		}
		if err := tbl.Delete(listed(dead)); err != nil {
			t.Fatal(err)
		}
	}
	return db, tbl
}

// pinOps are the scanner's block shapes: each op, and the cell a double
// stuck bit makes uncorrectable, in the middle of one of its blocks.
var pinOps = []struct {
	name       string
	tombstones bool
	bad        func(t *testing.T, tbl *Table) addr.Coord
	run        func(tbl *Table) (any, error)
}{
	// Two words a tuple, 256 tuples a block: the key of block 1's tuple 144.
	{"group", false,
		func(t *testing.T, tbl *Table) addr.Coord { return tbl.CellCoord(400, 0) },
		func(tbl *Table) (any, error) { return tbl.GroupSum("k", "v", nil) }},
	// The second condition reads its listed rows in their fetch orientation.
	{"where2", false,
		func(t *testing.T, tbl *Table) addr.Coord {
			sel, err := tbl.Where("k", Lt, 40, All)
			if err != nil {
				t.Fatal(err)
			}
			rows := tbl.RowIDs(sel, 0)
			return tbl.CellCoord(rows[len(rows)/2], 4)
		},
		func(tbl *Table) (any, error) {
			sel, err := tbl.Where("k", Lt, 40, All)
			if err == nil {
				sel, err = tbl.Where("v", Ge, 1<<19, sel)
			}
			if err != nil {
				return nil, err
			}
			return tbl.RowIDs(sel, 0), nil
		}},
	{"sumlist", false,
		func(t *testing.T, tbl *Table) addr.Coord {
			sel, err := tbl.Where("k", Ge, 70, All)
			if err != nil {
				t.Fatal(err)
			}
			rows := tbl.RowIDs(sel, 0)
			return tbl.CellCoord(rows[len(rows)/2], 4)
		},
		func(tbl *Table) (any, error) {
			sel, err := tbl.Where("k", Ge, 70, All)
			if err != nil {
				return nil, err
			}
			return tbl.Sum("v", sel)
		}},
	// Three words a tuple, 170 tuples a block: the middle word of block 1's
	// tuple 80. The predicate folds every word it is shown into the result.
	{"wherewide", false,
		func(t *testing.T, tbl *Table) addr.Coord { return tbl.CellCoord(250, 2) },
		func(tbl *Table) (any, error) {
			var fold uint64
			rows, err := tbl.ScanWhere("w", func(v []uint64) bool {
				fold = fold*31 + v[0] ^ v[1]<<1 ^ v[2]<<2
				return (v[0]^v[2])&1 == 1
			})
			return [2]any{fold, rows}, err
		}},
	// Tombstones inside a block, skipped unread: the value of a live row of
	// block 2, past the deleted rows 600–639.
	{"tomb", true,
		func(t *testing.T, tbl *Table) addr.Coord { return tbl.CellCoord(701, 4) },
		func(tbl *Table) (any, error) { return tbl.GroupSum("k", "v", nil) }},
}

// TestScanObservePinned pins what the memory, a recorded trace and the
// fault injector see of each block shape the scanner reads: GROUP BY's
// two-word blocks, a conjunction's listed fetch, a SUM over a WHERE list,
// a multi-word ScanWhere and blocks holding tombstones. Each op runs traced
// twice on an injector with transient errors: once clean, then with a
// double stuck bit in the middle of one of its blocks. Each line holds the
// result or the error text, the Counts delta (row reads/col reads/row
// writes/col writes), the stream's SHA-256, the injector's counters and
// the wear of the failing cell's subarray. The constants were recorded
// before the strips were stored column after column and blocks went
// field-major; a change to either must leave them as they are.
func TestScanObservePinned(t *testing.T) {
	got := make(map[string]string)
	for _, op := range pinOps {
		db, tbl := pinTable(t, op.tombstones)
		bad := op.bad(t, tbl)
		for _, phase := range []string{"clean", "unc"} {
			if phase == "unc" {
				db.Faults().AddStuck(bad, 2)
			}
			c0 := db.Mem().Counts()
			var stream trace.Stream
			res, err := op.run(tbl.Traced(&stream))
			out := "res=" + shortDigest(res)
			if err != nil {
				out = "err=" + err.Error()
			}
			f := db.Faults().Counts()
			got[op.name+"/"+phase] = fmt.Sprintf("%s n=%s tr=%s f=%d/%d/%d/%d/%d w=%d/%d", out,
				countsDelta(c0, db.Mem().Counts()), streamDigest(stream),
				f.TransientBits, f.StuckBits, f.Corrected, f.Uncorrectable, f.Miscorrected,
				f.Writes, db.Faults().SubarrayWrites(bad))
		}
	}
	checkGolden(t, pinnedObserve, got)

	// The benchmark's tables: 16 384 and 4 096 tuples of three words.
	for _, tc := range []struct{ rows, want int }{{16384, 1 << 20}, {4096, 512 << 10}} {
		db, err := Open()
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.CreateTable("t", imdb.Uniform("t", 3), tc.rows)
		if err != nil {
			t.Fatal(err)
		}
		for id := uint64(0); id < uint64(tc.rows); id++ {
			if _, err := tbl.Append(id, id%8, 3*id); err != nil {
				t.Fatal(err)
			}
		}
		if got := db.Mem().FootprintBytes(); got != int64(tc.want) {
			t.Errorf("%d-row table: footprint %d bytes, want %d", tc.rows, got, tc.want)
		}
	}
}

var pinnedObserve = map[string]string{
	"group/clean":     "res=0f632e5d1613ce37 n=0/4000/0/0 tr=4000:0f131b257729589517479dd12b925645f463969c4d2eed5ac0bbc74dc0fc621f f=31/0/31/0/0 w=10000/625",
	"group/unc":       "err=fault: uncorrectable memory error at ch1 rk1 bk0 sa0 row25 col0 (column read) n=0/801/0/0 tr=801:f2f3fb8236012a0701c1250b481e959c4fc993a339be46dcceb51c0f3dc90e9c f=38/2/38/1/0 w=10000/625",
	"sumlist/clean":   "res=0ddaef48733dc060 n=0/2609/0/0 tr=2609:513df32a77ca27e0803a6af6ff43219c48c7e626d9ff567b902a73deee063ea4 f=33/0/33/0/0 w=10000/625",
	"sumlist/unc":     "err=fault: uncorrectable memory error at ch1 rk3 bk0 sa0 row87 col4 (column read) n=0/2305/0/0 tr=2305:0d034f823e26374f941dec610c811c1ed0d988974fa3f0b3e3810bbc0990cffb f=47/2/47/1/0 w=10000/625",
	"tomb/clean":      "res=c0bcfabd14caf77b n=0/3358/0/0 tr=3358:054f802f795e8663910ffc15f3e044c0cc3255bf3941481bd2c0e3404f7c7c13 f=26/0/26/0/0 w=10000/625",
	"tomb/unc":        "err=fault: uncorrectable memory error at ch1 rk2 bk0 sa0 row76 col4 (column read) n=0/1134/0/0 tr=1134:0a632d70ddda116bb4b92e7694e641aa619a7bcbfb8d431bf9ffceb15fd0434e f=38/2/38/1/0 w=10000/625",
	"where2/clean":    "res=a3af3932854648fe n=761/2000/0/0 tr=2761:ef7e525a81977de351041d705969dbc4f12eb5f5343372b609932c6d3dab55a8 f=37/0/37/0/0 w=10000/625",
	"where2/unc":      "err=fault: uncorrectable memory error at ch1 rk3 bk0 sa0 row119 col4 (row read) n=381/2000/0/0 tr=2381:5ee815c9b1bef939687bc31846e165bbc9518e41684b89552d95ff1e312cb2f2 f=52/2/52/1/0 w=10000/625",
	"wherewide/clean": "res=9cd313ed51423a04 n=0/6000/0/0 tr=6000:602212770ecdc854e1dbacfae7030c2f6747d61c4a7e870a4551a08f39b77614 f=43/0/43/0/0 w=10000/625",
	"wherewide/unc":   "err=fault: uncorrectable memory error at ch0 rk1 bk0 sa0 row0 col2 (column read) n=0/752/0/0 tr=752:aaeb46f114a7b22789a1686df7e7235f8716eec470c5d6d555e7f14b2a52c8f0 f=44/2/44/1/0 w=10000/625",
}
