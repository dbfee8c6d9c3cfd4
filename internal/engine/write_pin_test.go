package engine

import (
	"fmt"
	"slices"
	"testing"

	"rcnvm/internal/fault"
	"rcnvm/internal/trace"
)

// wearFaults is the injector TestWriteObservePinned writes under: seeded
// transient errors, and stuck bits that appear once a subarray has taken
// 50 writes, so what the writes wore shows in the read after them.
var wearFaults = fault.Config{Enabled: true, Seed: 0x3717e, RBER: 1e-4, WearThresholdWrites: 50, WearStuckRate: 0.002}

// appendTable is TestWriteObservePinned's table to append to: 300 tuples of
// goldenSchema in a table of 700, every 7th one tombstoned when tombstones
// is set.
func appendTable(t *testing.T, tombstones bool) (*DB, *Table) {
	t.Helper()
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("a", goldenSchema, 700)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.AppendRows(appendRows(300, 5, 0)); err != nil {
		t.Fatal(err)
	}
	if tombstones {
		var dead []int
		for row := 3; row < 300; row += 7 {
			dead = append(dead, row)
		}
		if err := tbl.Delete(listed(dead)); err != nil {
			t.Fatal(err)
		}
	}
	return db, tbl
}

// appendRows is n reproducible tuples of width words, seeded by seed.
func appendRows(n, width int, seed uint64) [][]uint64 {
	x := seed + uint64(n)
	rows := make([][]uint64, n)
	for i := range rows {
		rows[i] = make([]uint64, width)
		for k := range rows[i] {
			x = x*6364136223846793005 + 1442695040888963407
			rows[i][k] = x >> 24
		}
	}
	return rows
}

// The tables writeOps run on: pinTable's with and without tombstones, and
// appendTable's with room to append, with and without.
var (
	tombs     = func(t *testing.T) (*DB, *Table) { return pinTable(t, true) }
	whole     = func(t *testing.T) (*DB, *Table) { return pinTable(t, false) }
	fresh     = func(t *testing.T) (*DB, *Table) { return appendTable(t, false) }
	freshTomb = func(t *testing.T) (*DB, *Table) { return appendTable(t, true) }
)

// writeOps are the writes: Set over every selection shape on a single-word
// and on the wide field, and AppendRows into tables with and without
// tombstones. target is a cell the op writes, whose subarray's wear is
// shown and which carries a stuck bit in the read after the op.
var writeOps = []struct {
	name   string
	table  func(t *testing.T) (*DB, *Table)
	target func(tbl *Table) (row, word int)
	run    func(tbl *Table) (any, error)
}{
	{"set/all/v", tombs,
		func(tbl *Table) (int, int) { return tbl.LiveRows()[800], 4 },
		func(tbl *Table) (any, error) { return nil, tbl.Set(All, "v", 7) }},
	{"set/all/w", tombs,
		func(tbl *Table) (int, int) { return tbl.LiveRows()[800], 3 },
		func(tbl *Table) (any, error) { return nil, tbl.Set(All, "w", 1, 2, 3) }},
	{"set/bits/k", tombs,
		func(tbl *Table) (int, int) { return whereRows(tbl)[40], 0 },
		func(tbl *Table) (any, error) {
			sel, err := tbl.Where("k", Lt, 40, All)
			if err != nil {
				return nil, err
			}
			return tbl.Count(sel), tbl.Set(sel, "k", 1<<33)
		}},
	{"set/bits/w", tombs,
		func(tbl *Table) (int, int) { return whereRows(tbl)[40], 2 },
		func(tbl *Table) (any, error) {
			sel, err := tbl.Where("k", Lt, 40, All)
			if err != nil {
				return nil, err
			}
			return tbl.Count(sel), tbl.Set(sel, "w", 4, 5, 6)
		}},
	// Every row but one at each end, on a table without tombstones: blocks
	// of nothing but set rows, written as spans.
	{"set/all/whole", whole,
		func(tbl *Table) (int, int) { return 1500, 4 },
		func(tbl *Table) (any, error) { return nil, tbl.Set(All, "v", 8) }},
	{"set/bits/span", whole,
		func(tbl *Table) (int, int) { return 1500, 2 },
		func(tbl *Table) (any, error) {
			return nil, tbl.Set(bitmapOf(tbl, tbl.LiveRows()[1:1999]), "w", 22, 23, 24)
		}},
	// Every live row of the table as a bitmap.
	{"set/bits/live", tombs,
		func(tbl *Table) (int, int) { return tbl.LiveRows()[1200], 4 },
		func(tbl *Table) (any, error) { return nil, tbl.Set(bitmapOf(tbl, tbl.LiveRows()), "v", 9) }},
	// Descending, with a repeat next to itself and one far from its first
	// visit.
	{"set/list/v", tombs,
		func(tbl *Table) (int, int) { return fetchList(tbl)[100], 4 },
		func(tbl *Table) (any, error) { return nil, tbl.Set(listed(fetchList(tbl)), "v", 11) }},
	{"set/list/w", tombs,
		func(tbl *Table) (int, int) { return fetchList(tbl)[100], 1 },
		func(tbl *Table) (any, error) { return nil, tbl.Set(listed(fetchList(tbl)), "w", 12, 13, 14) }},
	// Ascending live rows, in runs of up to six between tombstones.
	{"set/asc/k", tombs,
		func(tbl *Table) (int, int) { return tbl.LiveRows()[500], 0 },
		func(tbl *Table) (any, error) { return nil, tbl.Set(listed(tbl.LiveRows()[100:1300]), "k", 15) }},
	// A tombstoned row mid-list: the rows before it are written.
	{"set/dead/v", tombs,
		func(tbl *Table) (int, int) { return fetchList(tbl)[50], 4 },
		func(tbl *Table) (any, error) { return nil, tbl.Set(listed(deadList(tbl)), "v", 16) }},
	{"set/dead/w", tombs,
		func(tbl *Table) (int, int) { return fetchList(tbl)[50], 3 },
		func(tbl *Table) (any, error) { return nil, tbl.Set(listed(deadList(tbl)), "w", 17, 18, 19) }},
	// A row past the end mid-list, and a selection of nothing.
	{"set/range/k", tombs,
		func(tbl *Table) (int, int) { return 1999, 0 },
		func(tbl *Table) (any, error) { return nil, tbl.Set(listed([]int{1997, 1999, 2000, 1996}), "k", 20) }},
	{"set/none/v", tombs,
		func(tbl *Table) (int, int) { return 0, 4 },
		func(tbl *Table) (any, error) { return nil, tbl.Update(nil, "v", 21) }},
	{"append/1", fresh,
		func(tbl *Table) (int, int) { return 300, 2 },
		func(tbl *Table) (any, error) { return tbl.Append(appendRows(1, 5, 1)[0]...) }},
	// Into a table with tombstones.
	{"append/256", freshTomb,
		func(tbl *Table) (int, int) { return 428, 4 },
		func(tbl *Table) (any, error) { return tbl.AppendRows(appendRows(256, 5, 2)) }},
	// Past the capacity: 400 stored.
	{"append/full", fresh,
		func(tbl *Table) (int, int) { return 650, 0 },
		func(tbl *Table) (any, error) { return tbl.AppendRows(appendRows(500, 5, 3)) }},
	// The sixth tuple is a word short: five stored.
	{"append/width", fresh,
		func(tbl *Table) (int, int) { return 302, 1 },
		func(tbl *Table) (any, error) {
			rows := appendRows(10, 5, 4)
			rows[5] = rows[5][:4]
			return tbl.AppendRows(rows)
		}},
}

// whereRows is what set/bits selects: the rows whose k is below 40.
func whereRows(tbl *Table) []int {
	var rows []int
	for _, row := range tbl.LiveRows() {
		if f, _ := tbl.Field(row, "k"); f[0] < 40 {
			rows = append(rows, row)
		}
	}
	return rows
}

// deadList is fetchList with the tombstoned row 605 half way.
func deadList(tbl *Table) []int {
	rows := fetchList(tbl)
	return slices.Insert(rows, len(rows)/2, 605)
}

// TestWriteObservePinned pins what the memory, a recorded trace and the
// fault injector see of every write: Set over All, bitmaps and row lists —
// descending with repeats, ascending, naming a dead row or one past the end
// — on a single-word and on the wide field, and AppendRows of one tuple,
// of 256, past the capacity and with a tuple of the wrong width. Each op
// runs through a handle that records, under an injector whose stuck bits
// grow with wear; then a stuck bit goes on one cell it wrote and every
// live tuple is read back through another. Each line holds the op's result
// or error, its Counts delta (row reads/col reads/row writes/col writes),
// stream and injector counters, the wear of the stuck cell's subarray, and
// the same for the read. The constants were recorded from the per-cell
// writes; a change of how tuples are written must leave them as they are.
func TestWriteObservePinned(t *testing.T) {
	got := make(map[string]string)
	for _, op := range writeOps {
		db, tbl := op.table(t)
		db.EnableFaults(wearFaults)
		row, word := op.target(tbl)
		bad := tbl.CellCoord(row, word)

		c0 := db.Mem().Counts()
		var stream trace.Stream
		res, err := op.run(tbl.Traced(&stream))
		f := db.Faults().Counts()
		line := fmt.Sprintf("res=%v err=%v n=%s tr=%s f=%d/%d/%d/%d/%d/%d w=%d", res, err,
			countsDelta(c0, db.Mem().Counts()), streamDigest(stream),
			f.TransientBits, f.StuckBits, f.Corrected, f.Uncorrectable, f.Miscorrected,
			f.Writes, db.Faults().SubarrayWrites(bad))

		db.Faults().AddStuck(bad, 1)
		c0, stream = db.Mem().Counts(), nil
		vals, n, err := tbl.Traced(&stream).fetch(All, appendWords(nil, 0, goldenSchema.TupleWords()))
		f = db.Faults().Counts()
		got[op.name] = line + fmt.Sprintf(" | read=%s/%d err=%v n=%s tr=%s f=%d/%d/%d/%d/%d", shortDigest(vals), n, err,
			countsDelta(c0, db.Mem().Counts()), streamDigest(stream),
			f.TransientBits, f.StuckBits, f.Corrected, f.Uncorrectable, f.Miscorrected)
	}
	checkGolden(t, pinnedWrite, got)

}

var pinnedWrite = map[string]string{
	"append/1":      "res=300 err=<nil> n=0/0/5/0 tr=5:15babd6927bc477b8d72f709ce2977aaa4afd0cd862b721cb543e6ca5d43d4ca f=0/0/0/0/0/5 w=5 | read=c2fdb9edb5805cb0/301 err=<nil> n=1505/0/0/0 tr=1505:4d991d93115022da1b4be2daa651389f443f0457249718c0488e3b3f10db037a f=15/1/16/0/0",
	"append/256":    "res=256 err=<nil> n=0/0/1280/0 tr=1280:fcf1c8cc105f7352c790edad362cf862d61c0e8d544a7ae25daa39fab89cde88 f=0/0/0/0/0/1280 w=220 | read=acbb2ad15a3fe9c9/513 err=<nil> n=2565/0/0/0 tr=2565:ec73e6339d148a911bebb1475ca475eecea112a2fce6c5febd7afc99bb29cade f=16/3/19/0/0",
	"append/full":   "res=400 err=engine: table full (700 rows) n=0/0/2000/0 tr=2000:73704103da7e27d46948cad2820aa7b7c143ab2303ecc74b1a6132ce6b39fde3 f=0/0/0/0/0/2000 w=220 | read=f1cdac8b3d7565b4/650 err=fault: uncorrectable memory error at ch0 rk3 bk1 sa0 row34 col0 (row read) n=3251/0/0/0 tr=3251:f0658a24f1a5ff929a742607d770370c14df2fea81a16539642a27a623bf3697 f=27/6/31/1/0",
	"append/width":  "res=5 err=engine: tuple needs 5 words, got 4 n=0/0/25/0 tr=25:471a01bc7116ab6dee5b825f011d929ec345f1d08c9da485515ae116b67c9ec8 f=0/0/0/0/0/25 w=25 | read=d79ab4fb701e3219/305 err=<nil> n=1525/0/0/0 tr=1525:492158ba12ef780d61d4c0335d71cf7fbbe6c4a0f2303050c5ae99405448f1c3 f=15/1/16/0/0",
	"set/all/v":     "res=<nil> err=<nil> n=0/0/0/1679 tr=1679:b70a87cf605cd17ad593416b233de564ec6d5c26866ca52bf67d0f1d5af45758 f=0/0/0/0/0/1679 w=107 | read=891be28479dd500a/1679 err=<nil> n=8395/0/0/0 tr=8395:1dd74898abcf109ce339cf2c08e7956d6bacf97a45595a48b6fea3afa379b177 f=56/18/74/0/0",
	"set/all/w":     "res=<nil> err=<nil> n=0/0/5037/0 tr=5037:c8e7728359f8466fcffe0cd871564951e39d28f2c671dd08b83e7c0433e616c8 f=0/0/0/0/0/5037 w=321 | read=98cc697b140a5be9/1679 err=<nil> n=8395/0/0/0 tr=8395:1dd74898abcf109ce339cf2c08e7956d6bacf97a45595a48b6fea3afa379b177 f=56/18/74/0/0",
	"set/all/whole": "res=<nil> err=<nil> n=0/0/0/2000 tr=2000:6fad7c0d5026ba48cf8b6adb25e775208074b8c26a693dd5a9ab478ee94418d9 f=0/0/0/0/0/2000 w=125 | read=6f69442f1ded5aed/2000 err=<nil> n=10000/0/0/0 tr=10000:50141e8df5fbe898f56e15f27d704dbc9280661e59877fc5824dfb72d0891af5 f=81/22/103/0/0",
	"set/asc/k":     "res=<nil> err=<nil> n=0/0/0/1200 tr=1200:a67de36ed3273ff1d6b8bad5657042bd6cf5ef50c7720983972e5e86fcf79492 f=0/0/0/0/0/1200 w=85 | read=e208ff171a974ebb/1679 err=<nil> n=8395/0/0/0 tr=8395:1dd74898abcf109ce339cf2c08e7956d6bacf97a45595a48b6fea3afa379b177 f=56/9/65/0/0",
	"set/bits/k":    "res=642 err=<nil> n=0/1679/0/642 tr=2321:ae2e6698c135e0eb8e317eeb04c61cf5d0a0e5264071c00e9df0abfec6316210 f=16/0/16/0/0/642 w=44 | read=513920c1e20d7671/1679 err=<nil> n=8395/0/0/0 tr=8395:1dd74898abcf109ce339cf2c08e7956d6bacf97a45595a48b6fea3afa379b177 f=75/1/76/0/0",
	"set/bits/live": "res=<nil> err=<nil> n=0/0/0/1679 tr=1679:b70a87cf605cd17ad593416b233de564ec6d5c26866ca52bf67d0f1d5af45758 f=0/0/0/0/0/1679 w=107 | read=c0640194005b1e8d/1679 err=<nil> n=8395/0/0/0 tr=8395:1dd74898abcf109ce339cf2c08e7956d6bacf97a45595a48b6fea3afa379b177 f=56/18/74/0/0",
	"set/bits/span": "res=<nil> err=<nil> n=0/0/5994/0 tr=5994:7b8cad04ebb7c39030d510f1d279f89cb68ee8901815336e7c86de13e2971523 f=0/0/0/0/0/5994 w=375 | read=4d0f7c0314255789/2000 err=<nil> n=10000/0/0/0 tr=10000:50141e8df5fbe898f56e15f27d704dbc9280661e59877fc5824dfb72d0891af5 f=81/22/103/0/0",
	"set/bits/w":    "res=642 err=<nil> n=0/1679/1926/0 tr=3605:877e315213b007df2a8012779e3a9d8bd8664b4c55a898b2f897291eec695d9c f=16/0/16/0/0/1926 w=132 | read=bd773b87e9ebfa7f/496 err=fault: uncorrectable memory error at ch0 rk2 bk0 sa0 row79 col3 (row read) n=2484/0/0/0 tr=2484:98a4b743ad817461f8f88ea3cc9d78e8a753df4762e415a6d8d7a4f09e3add4b f=29/8/35/1/0",
	"set/dead/v":    "res=<nil> err=engine: row 605 is deleted n=0/0/0/169 tr=169:785b3611b8c719eaf6a9a2a3070213f258db251fa5576688b68db36768d62186 f=0/0/0/0/0/169 w=21 | read=cb86fbf9c74fad30/1679 err=<nil> n=8395/0/0/0 tr=8395:1dd74898abcf109ce339cf2c08e7956d6bacf97a45595a48b6fea3afa379b177 f=56/1/57/0/0",
	"set/dead/w":    "res=<nil> err=engine: row 605 is deleted n=0/0/507/0 tr=507:269cc662f0cc821502316ce198a0990b0410ec446daff861b2a324f6ec36c646 f=0/0/0/0/0/507 w=63 | read=960c9f048254f0ad/1679 err=<nil> n=8395/0/0/0 tr=8395:1dd74898abcf109ce339cf2c08e7956d6bacf97a45595a48b6fea3afa379b177 f=56/1/57/0/0",
	"set/list/v":    "res=<nil> err=<nil> n=0/0/0/338 tr=338:fc8ff1a191c416aadfe38b4dfd2104934d51054812348257efdc19f9fe8d1691 f=0/0/0/0/0/338 w=21 | read=b24f05a114e9d552/1679 err=<nil> n=8395/0/0/0 tr=8395:1dd74898abcf109ce339cf2c08e7956d6bacf97a45595a48b6fea3afa379b177 f=56/1/57/0/0",
	"set/list/w":    "res=<nil> err=<nil> n=0/0/1014/0 tr=1014:7185abaebac7b50c3b3510ea0ba18ae026e5df83cb752d19dabd83f7fa5b03f6 f=0/0/0/0/0/1014 w=63 | read=94e927f107313bf8/1679 err=<nil> n=8395/0/0/0 tr=8395:1dd74898abcf109ce339cf2c08e7956d6bacf97a45595a48b6fea3afa379b177 f=56/1/57/0/0",
	"set/none/v":    "res=<nil> err=<nil> n=0/0/0/0 tr=0:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f=0/0/0/0/0/0 w=0 | read=59eee6a401da5223/1679 err=<nil> n=8395/0/0/0 tr=8395:1dd74898abcf109ce339cf2c08e7956d6bacf97a45595a48b6fea3afa379b177 f=56/1/57/0/0",
	"set/range/k":   "res=<nil> err=engine: row 2000 out of range [0,2000) n=0/0/0/2 tr=2:76ae97ed1852496d1ab3c4fe209d6bbef88bf0bd72c14cc5dbb1477e76ab6a57 f=0/0/0/0/0/2 w=2 | read=2cf831f6ca0b6913/1679 err=<nil> n=8395/0/0/0 tr=8395:1dd74898abcf109ce339cf2c08e7956d6bacf97a45595a48b6fea3afa379b177 f=56/1/57/0/0",
}
