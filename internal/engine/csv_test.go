package engine

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

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

func TestExportSkipsDeleted(t *testing.T) {
	db, _ := Open()
	tbl, _ := db.CreateTable("t", imdb.Uniform("t", 2), 8)
	tbl.Append(1, 2)
	tbl.Append(3, 4)
	tbl.Delete([]int{0})
	var out bytes.Buffer
	if err := tbl.ExportCSV(&out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "1,2") || !strings.Contains(out.String(), "3,4") {
		t.Fatalf("export = %q", out.String())
	}
}
