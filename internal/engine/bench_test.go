package engine

import (
	"io"
	"testing"

	"rcnvm/internal/imdb"
)

// benchRows is the benchmark's olap_scan table: 16 384 rows of
// (id, grp = id mod 8, val = 3·id).
const benchRows = 16384

// benchTable is a table of capacity tuples holding the first rows of them.
func benchTable(b testing.TB, capacity, rows int) *Table {
	b.Helper()
	db, err := Open()
	if err != nil {
		b.Fatal(err)
	}
	schema := imdb.Schema{Name: "t", Fields: []imdb.Field{
		{Name: "id", Words: 1}, {Name: "grp", Words: 1}, {Name: "val", Words: 1},
	}}
	t, err := db.CreateTable("t", schema, capacity)
	if err != nil {
		b.Fatal(err)
	}
	for id := uint64(0); id < uint64(rows); id++ {
		if _, err := t.Append(id, id%8, 3*id); err != nil {
			b.Fatal(err)
		}
	}
	return t
}

var benchScans = []struct {
	name string
	rows int
	run  func(t *Table) error
}{
	{"where", benchRows, func(t *Table) error {
		_, err := t.ScanWhere("grp", func(v []uint64) bool { return v[0] == 5 })
		return err
	}},
	// The same filter through the comparison kernel.
	{"compare", benchRows, func(t *Table) error {
		_, err := t.Where("grp", Eq, 5, All)
		return err
	}},
	{"sum", benchRows, func(t *Table) error {
		_, err := t.SumField("val", nil)
		return err
	}},
	{"group", benchRows, func(t *Table) error {
		_, err := t.GroupSum("grp", "val", nil)
		return err
	}},
	// oltp_point's point read: 64 rows in sixteen 4-row chunks, one match.
	{"where64", 64, func(t *Table) error {
		_, err := t.ScanWhere("id", func(v []uint64) bool { return v[0] == 41 })
		return err
	}},
	// A borrowing scan across the sixteen chunks.
	{"sum64", 64, func(t *Table) error {
		_, err := t.Sum("val", All)
		return err
	}},
}

// BenchmarkScan is the rung under olap_scan: one full-column operator over
// the 16 384-row table (where64 and sum64: the 64-row one, at CAPACITY 64).
// ns/row is the host cost of one tuple (two cells for group). sum and sum64
// are in CI's zero-alloc gate.
func BenchmarkScan(b *testing.B) {
	for _, sc := range benchScans {
		b.Run(sc.name, func(b *testing.B) {
			t := benchTable(b, sc.rows, sc.rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sc.run(t); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sc.rows), "ns/row")
		})
	}
}

// BenchmarkScanParallel runs SumField from GOMAXPROCS readers under the
// read lock: with -cpu 1,2 the ns/row of the second should be about half
// the first's — readers share no written cache line but the per-scan
// counter flush.
func BenchmarkScanParallel(b *testing.B) {
	t := benchTable(b, benchRows, benchRows)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			t.db.RLock()
			_, err := t.SumField("val", nil)
			t.db.RUnlock()
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchRows, "ns/row")
}

// The row-wise side of the strips: a tuple's words lie in one strip row,
// 4 KB apart in host memory, so a tuple read or written whole strides
// across the page. These are the engine under a checkpoint, an UPDATE and a
// single-row INSERT, over the olap_scan table.

// BenchmarkSave is one checkpoint of the 16 384-row table: every tuple read
// whole in one fetch, gob-encoded and framed.
func BenchmarkSave(b *testing.B) {
	t := benchTable(b, benchRows, benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := t.db.Save(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdate is UPDATE t SET val = … WHERE <cond>: the WHERE scan,
// then one cell written per match — point matches one row, grp 2 048.
func BenchmarkUpdate(b *testing.B) {
	for _, bc := range []struct {
		name  string
		field string
		v     uint64
	}{{"point", "id", 4242}, {"grp", "grp", 5}} {
		b.Run(bc.name, func(b *testing.B) {
			t := benchTable(b, benchRows, benchRows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sel, err := t.Where(bc.field, Eq, bc.v, All)
				if err == nil {
					err = t.Set(sel, "val", uint64(i))
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAppend is a single-row INSERT's engine work: one tuple of
// (id, grp, val) into a 16 384-row table, replaced by an empty one off the
// clock when full.
func BenchmarkAppend(b *testing.B) {
	b.ReportAllocs()
	var t *Table
	for i := 0; i < b.N; i++ {
		if i%benchRows == 0 {
			b.StopTimer()
			t = benchTable(b, benchRows, 0)
			b.StartTimer()
		}
		id := uint64(i % benchRows)
		if _, err := t.Append(id, id%8, 3*id); err != nil {
			b.Fatal(err)
		}
	}
}
