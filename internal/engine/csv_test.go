package engine

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rcnvm/internal/fault"
	"rcnvm/internal/imdb"
)

func TestImportExportCSV(t *testing.T) {
	db, _ := Open()
	tbl, err := db.CreateTable("t", imdb.Schema{Name: "t", Fields: []imdb.Field{
		{Name: "id", Words: 1}, {Name: "w", Words: 2},
	}}, 16)
	if err != nil {
		t.Fatal(err)
	}
	in := "id,w_0,w_1\n1,10,11\n2,20,21\n"
	n, err := tbl.ImportCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || tbl.Rows() != 2 {
		t.Fatalf("imported %d rows", n)
	}
	vals, _ := tbl.Tuple(1)
	if !reflect.DeepEqual(vals, []uint64{2, 20, 21}) {
		t.Fatalf("row 1 = %v", vals)
	}

	var out bytes.Buffer
	if err := tbl.ExportCSV(&out); err != nil {
		t.Fatal(err)
	}
	if out.String() != in {
		t.Fatalf("export = %q, want %q", out.String(), in)
	}
}

func TestImportNoHeader(t *testing.T) {
	db, _ := Open()
	tbl, _ := db.CreateTable("t", imdb.Uniform("t", 2), 8)
	n, err := tbl.ImportCSV(strings.NewReader("5,6\n7,8\n"))
	if err != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	vals, _ := tbl.Tuple(0)
	if vals[0] != 5 || vals[1] != 6 {
		t.Fatalf("row 0 = %v", vals)
	}
}

func TestImportErrors(t *testing.T) {
	db, _ := Open()
	tbl, _ := db.CreateTable("t", imdb.Uniform("t", 2), 2)
	// Wrong arity.
	if _, err := tbl.ImportCSV(strings.NewReader("1,2,3\n")); err == nil {
		t.Fatal("wrong arity accepted")
	}
	// Garbage value after the first data row.
	if _, err := tbl.ImportCSV(strings.NewReader("1,2\nx,4\n")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Capacity overflow.
	db2, _ := Open()
	tiny, _ := db2.CreateTable("t", imdb.Uniform("t", 2), 1)
	if _, err := tiny.ImportCSV(strings.NewReader("1,2\n3,4\n")); err == nil {
		t.Fatal("overflow accepted")
	}
}

// TestImportAcrossBlocks: an import longer than a block stops at a bad
// value, a wrong arity or a full table with the records before it stored,
// and returns their count and the error the tuple-at-a-time import gave.
func TestImportAcrossBlocks(t *testing.T) {
	csvOf := func(n int, bad int, badRec string) string {
		var b strings.Builder
		b.WriteString("a,b\n")
		for i := 0; i < n; i++ {
			if i == bad {
				b.WriteString(badRec + "\n")
				continue
			}
			fmt.Fprintf(&b, "%d,%d\n", i, 3*i)
		}
		return b.String()
	}
	for _, tc := range []struct {
		name      string
		capacity  int
		in        string
		n         int
		err       string
		lastValue uint64
	}{
		{"two blocks", 2000, csvOf(1100, -1, ""), 1100, "", 3 * 1099},
		{"bad value in the second block", 2000, csvOf(1100, 600, "600,x"), 600,
			`engine: csv row 601 field 2: strconv.ParseUint: parsing "x": invalid syntax`, 3 * 599},
		{"wrong arity in the second block", 2000, csvOf(1100, 700, "1,2,3"), 700,
			"engine: csv: record on line 702: wrong number of fields", 3 * 699},
		{"full in the first block", 300, csvOf(1100, -1, ""), 300, "engine: table full (300 rows)", 3 * 299},
		{"full in the third block", 1030, csvOf(1100, -1, ""), 1030, "engine: table full (1030 rows)", 3 * 1029},
	} {
		db, _ := Open()
		tbl, _ := db.CreateTable("t", imdb.Uniform("t", 2), tc.capacity)
		n, err := tbl.ImportCSV(strings.NewReader(tc.in))
		got := ""
		if err != nil {
			got = err.Error()
		}
		if n != tc.n || got != tc.err || tbl.Rows() != tc.n {
			t.Fatalf("%s: imported %d (%d rows), %q; want %d, %q", tc.name, n, tbl.Rows(), got, tc.n, tc.err)
		}
		if vals, _ := tbl.Tuple(n - 1); vals[1] != tc.lastValue {
			t.Fatalf("%s: last row %v, want value %d", tc.name, vals, tc.lastValue)
		}
	}
}

func TestExportSkipsDeleted(t *testing.T) {
	db, _ := Open()
	tbl, _ := db.CreateTable("t", imdb.Uniform("t", 2), 8)
	tbl.Append(1, 2)
	tbl.Append(3, 4)
	tbl.Delete(listed([]int{0}))
	var out bytes.Buffer
	if err := tbl.ExportCSV(&out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "1,2") || !strings.Contains(out.String(), "3,4") {
		t.Fatalf("export = %q", out.String())
	}
}

// TestExportWritesRowsBeforeFailedRead: an uncorrectable word at row 100 of
// 600 fails the export, and the header and the 100 rows before it still
// reach the writer, each a whole line.
func TestExportWritesRowsBeforeFailedRead(t *testing.T) {
	db, _ := Open()
	tbl, _ := db.CreateTable("t", imdb.Uniform("t", 2), 600)
	for i := uint64(0); i < 600; i++ {
		tbl.Append(i, 2*i)
	}
	db.EnableFaults(fault.Config{Enabled: true, Seed: 1})
	db.Faults().AddStuck(tbl.CellCoord(100, 1), 2)
	var out bytes.Buffer
	err := tbl.ExportCSV(&out)
	var ue *fault.UncorrectableError
	if !errors.As(err, &ue) {
		t.Fatalf("export over a double stuck bit: err %v, want *fault.UncorrectableError", err)
	}
	lines := strings.SplitAfter(out.String(), "\n")
	if len(lines) != 1+100+1 || lines[0] != "f1,f2\n" || lines[100] != "99,198\n" || lines[101] != "" {
		t.Fatalf("export wrote %d bytes ending %q; want the header and rows 0-99", out.Len(), out.String()[max(0, out.Len()-20):])
	}
}
