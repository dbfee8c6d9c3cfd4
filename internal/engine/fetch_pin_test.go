package engine

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"rcnvm/internal/addr"
	"rcnvm/internal/fault"
	"rcnvm/internal/trace"
)

// fetchList is a listed read of pinTable's table with tombstones: live rows
// from the top down with a repeat next to itself and one far from its first
// visit, so no block of it is a span.
func fetchList(tbl *Table) []int {
	var rows []int
	for row := tbl.Rows() - 1; row >= 0; row -= 5 {
		if tbl.IsLive(row) {
			rows = append(rows, row)
		}
	}
	rows = slices.Insert(rows, 3, rows[2])
	return append(rows, rows[0])
}

// calls renders a sequence of reads, each result or error in turn.
func calls(results ...any) string {
	var sb strings.Builder
	for i := 0; i < len(results); i += 2 {
		if err, _ := results[i+1].(error); err != nil {
			fmt.Fprintf(&sb, "[err %v]", err)
			continue
		}
		fmt.Fprintf(&sb, "[%v]", results[i])
	}
	return sb.String()
}

// fetchOps are the tuple reads: Tuple and Field, Project over listed rows,
// Save and ExportCSV. bad, when set, is the cell a double stuck bit makes
// uncorrectable before the op runs.
var fetchOps = []struct {
	name string
	bad  func(tbl *Table) addr.Coord
	run  func(db *DB, tbl *Table) (string, error)
}{
	// Live rows, a tombstoned one, rows out of range; Field's row is checked
	// before its name.
	{"tuple", nil, func(db *DB, tbl *Table) (string, error) {
		a, aErr := tbl.Tuple(0)
		b, bErr := tbl.Tuple(1999)
		c, cErr := tbl.Tuple(3)
		d, dErr := tbl.Tuple(2000)
		e, eErr := tbl.Tuple(-1)
		return calls(a, aErr, b, bErr, c, cErr, d, dErr, e, eErr), nil
	}},
	{"field", nil, func(db *DB, tbl *Table) (string, error) {
		a, aErr := tbl.Field(0, "w")
		b, bErr := tbl.Field(1, "k")
		c, cErr := tbl.Field(1997, "v")
		d, dErr := tbl.Field(3, "nope")
		e, eErr := tbl.Field(0, "nope")
		f, fErr := tbl.Field(2000, "k")
		return calls(a, aErr, b, bErr, c, cErr, d, dErr, e, eErr, f, fErr), nil
	}},
	{"tuple/unc", func(tbl *Table) addr.Coord { return tbl.CellCoord(1001, 2) },
		func(db *DB, tbl *Table) (string, error) {
			vals, err := tbl.Tuple(1001)
			return fmt.Sprint(vals), err
		}},
	{"field/unc", func(tbl *Table) addr.Coord { return tbl.CellCoord(1001, 2) },
		func(db *DB, tbl *Table) (string, error) {
			vals, err := tbl.Field(1001, "w")
			return fmt.Sprint(vals), err
		}},
	// Descending with repeats, over a multi-word field between two narrow ones.
	{"project", nil, func(db *DB, tbl *Table) (string, error) {
		out, err := tbl.Project(fetchList(tbl), []string{"v", "w", "k"})
		return shortDigest(out), err
	}},
	{"project/wide", nil, func(db *DB, tbl *Table) (string, error) {
		out, err := tbl.Project(tbl.LiveRows()[100:700], []string{"w"})
		return shortDigest(out), err
	}},
	// A tombstoned row mid-list: the rows before it are read.
	{"project/dead", nil, func(db *DB, tbl *Table) (string, error) {
		rows := fetchList(tbl)
		rows = slices.Insert(rows, len(rows)/2, 605)
		out, err := tbl.Project(rows, []string{"k", "w"})
		return shortDigest(out), err
	}},
	{"project/unc", func(tbl *Table) addr.Coord { return tbl.CellCoord(fetchList(tbl)[150], 4) },
		func(db *DB, tbl *Table) (string, error) {
			out, err := tbl.Project(fetchList(tbl), []string{"k", "v"})
			return shortDigest(out), err
		}},
	// No rows reads nothing; no fields gives an empty tuple per row, listed
	// rows unchecked.
	{"project/edges", nil, func(db *DB, tbl *Table) (string, error) {
		a, aErr := tbl.Project(nil, []string{"k"})
		b, bErr := tbl.Project([]int{}, []string{"k"})
		c, cErr := tbl.Project([]int{0, 3, 2000}, []string{})
		d, dErr := tbl.Project([]int{3}, []string{"nope"})
		e, eErr := tbl.Project([]int{0}, []string{"nope"})
		return calls(len(a), aErr, len(b), bErr, c, cErr, d, dErr, e, eErr), nil
	}},
	{"save", nil, func(db *DB, tbl *Table) (string, error) {
		var buf bytes.Buffer
		err := db.Save(&buf)
		return shortDigest(buf.Bytes()), err
	}},
	{"save/unc", func(tbl *Table) addr.Coord { return tbl.CellCoord(1001, 2) },
		func(db *DB, tbl *Table) (string, error) {
			var buf bytes.Buffer
			err := db.Save(&buf)
			return shortDigest(buf.Bytes()), err
		}},
	{"csv", nil, func(db *DB, tbl *Table) (string, error) {
		var buf bytes.Buffer
		err := tbl.ExportCSV(&buf)
		return shortDigest(buf.Bytes()), err
	}},
	// What reached the writer before the failing row is pinned too.
	{"csv/unc", func(tbl *Table) addr.Coord { return tbl.CellCoord(1500, 0) },
		func(db *DB, tbl *Table) (string, error) {
			var buf bytes.Buffer
			err := tbl.ExportCSV(&buf)
			return shortDigest(buf.Bytes()), err
		}},
}

// TestFetchObservePinned pins what the memory, a recorded trace and the
// fault injector see of every tuple read: Tuple, Field, Project, Save and
// ExportCSV, each through a handle that records (Save reads through the
// database's own handles, which record nothing), on pinTable's table with
// tombstones and a fresh injector drawing transient errors. Each line holds the
// result or the error text, the Counts delta (row reads/col reads/row
// writes/col writes), the stream's SHA-256 and the injector's counters. The
// constants were recorded from the per-cell reads before the scanner became
// the only reader; a change of how a tuple is read must leave them as they
// are.
func TestFetchObservePinned(t *testing.T) {
	got := make(map[string]string)
	for _, op := range fetchOps {
		db, tbl := pinTable(t, true)
		db.EnableFaults(fault.Config{Enabled: true, Seed: 0xfe7c, RBER: 2e-5})
		if op.bad != nil {
			db.Faults().AddStuck(op.bad(tbl), 2)
		}
		c0 := db.Mem().Counts()
		var stream trace.Stream
		res, err := op.run(db, tbl.Traced(&stream))
		out := "res=" + res
		if err != nil {
			out += " err=" + err.Error()
		}
		f := db.Faults().Counts()
		got[op.name] = fmt.Sprintf("%s n=%s tr=%s f=%d/%d/%d/%d/%d", out,
			countsDelta(c0, db.Mem().Counts()), streamDigest(stream),
			f.TransientBits, f.StuckBits, f.Corrected, f.Uncorrectable, f.Miscorrected)
	}
	checkGolden(t, pinnedFetch, got)
}

var pinnedFetch = map[string]string{
	"csv":           "res=0a0db99ff1b11fbe n=8395/0/0/0 tr=8395:1dd74898abcf109ce339cf2c08e7956d6bacf97a45595a48b6fea3afa379b177 f=12/0/12/0/0",
	"csv/unc":       "res=a6e0369acc333956 err=fault: uncorrectable memory error at ch0 rk2 bk1 sa0 row0 col0 (row read) n=6256/0/0/0 tr=6256:5269855bffafce255720cd3421b5717b3d94c1b0b5404c1fbeec7fab5908a53d f=6/2/6/1/0",
	"field":         "res=[[1063578469 1973753972 2121820334]][[42]][[291600]][err engine: row 3 is deleted][err imdb: schema \"g\" has no field \"nope\"][err engine: row 2000 out of range [0,2000)] n=5/0/0/0 tr=5:1530e071dd8f13636d105b9a1bbbc91ba65def676ec8005a1d189c44507eca72 f=0/0/0/0/0",
	"field/unc":     "res=[] err=fault: uncorrectable memory error at ch0 rk0 bk1 sa0 row1 col2 (row read) n=2/0/0/0 tr=2:be227d013557e275a81a98ec69dc2f69ae293014b82f17f509290bbfe5f76c8d f=0/2/0/1/0",
	"project":       "res=01f3f9722a5d46d5 n=1690/0/0/0 tr=1690:c998e35158ffd463b96afcce3d9421f855732b2bd48efa62ea46be183b04a268 f=0/0/0/0/0",
	"project/dead":  "res=4f53cda18c2baa0c err=engine: row 605 is deleted n=676/0/0/0 tr=676:2df7cc166d08a9046343dcdbdba0741b4752d30a2406e9617e73f1ec4b5c503b f=0/0/0/0/0",
	"project/edges": "res=[0][0][[[] [] []]][err engine: row 3 is deleted][err imdb: schema \"g\" has no field \"nope\"] n=0/0/0/0 tr=0:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f=0/0/0/0/0",
	"project/unc":   "res=4f53cda18c2baa0c err=fault: uncorrectable memory error at ch1 rk0 bk1 sa0 row4 col4 (row read) n=302/0/0/0 tr=302:818d443728d869317e98aeb9143fd1a3ca0f139cee1e87c69cf748649ddf542a f=1/2/1/1/0",
	"project/wide":  "res=60ad2e52ab5fb5ac n=1800/0/0/0 tr=1800:b60cee4420e56ededc7be52a255fb5e0ab7bfbd579f06c66c2c531e803ca1bee f=3/0/3/0/0",
	"save":          "res=cc09453e2c57e162 n=8395/0/0/0 tr=0:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f=12/0/12/0/0",
	"save/unc":      "res=4f53cda18c2baa0c err=engine: save p row 1001: fault: uncorrectable memory error at ch0 rk0 bk1 sa0 row1 col2 (row read) n=4118/0/0/0 tr=0:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f=3/2/3/1/0",
	"tuple":         "res=[[91 1063578469 1973753972 2121820334 356803]][[68 1843003652 1173922343 1772816816 478050]][err engine: row 3 is deleted][err engine: row 2000 out of range [0,2000)][err engine: row -1 out of range [0,2000)] n=10/0/0/0 tr=10:ff63ec7a980fd6b4cc20ef3d4d078c4c2521716c9b3496c7062478a070d4cf9d f=0/0/0/0/0",
	"tuple/unc":     "res=[] err=fault: uncorrectable memory error at ch0 rk0 bk1 sa0 row1 col2 (row read) n=3/0/0/0 tr=3:f5ef009d9a8e7c914f33e2a7f4119d3059f3632fa2f192db4284f6a9c8637762 f=0/2/0/1/0",
}
