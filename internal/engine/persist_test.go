package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"rcnvm/internal/imdb"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	src, _ := Open()
	tbl, ref := buildPeople(t, src, 300)
	if err := tbl.Delete([]int{7, 100}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}

	dst, _ := Open()
	if err := dst.Load(&buf); err != nil {
		t.Fatal(err)
	}
	got, ok := dst.Table("person")
	if !ok {
		t.Fatal("table missing after load")
	}
	if got.Rows() != 300 || got.Live() != 298 {
		t.Fatalf("rows/live = %d/%d", got.Rows(), got.Live())
	}
	for i, want := range ref {
		if i == 7 || i == 100 {
			if got.IsLive(i) {
				t.Fatalf("row %d should still be deleted", i)
			}
			continue
		}
		vals, err := got.Tuple(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(vals, want) {
			t.Fatalf("row %d = %v, want %v", i, vals, want)
		}
	}

	// Queries agree before and after the round trip.
	sumA, _ := tbl.SumField("f2", nil)
	sumB, _ := got.SumField("f2", nil)
	if sumA != sumB {
		t.Fatalf("sums differ after reload: %d vs %d", sumA, sumB)
	}
}

// TestSaveBytesPinned pins the snapshot format: the SHA-256 of Save after a
// fixed history of two tables, a WIDE field and tombstones. A change to the
// frame, the gob payload or its field set moves every data dir's checkpoint
// and every /checksum string.
func TestSaveBytesPinned(t *testing.T) {
	var buf bytes.Buffer
	if err := pinnedHistory(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "a99a17f9a84d117c850cfc7458823d85854937123b656faa9a71bdc021a2fc2b"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("snapshot sha256 = %s, want %s", got, want)
	}
}

// pinnedHistory is TestSaveBytesPinned's database.
func pinnedHistory(t testing.TB) *DB {
	t.Helper()
	db, _ := Open()
	people, _ := buildPeople(t, db, 40)
	if err := people.Delete([]int{3, 17, 39}); err != nil {
		t.Fatal(err)
	}
	wide, err := db.CreateTable("wide", imdb.Schema{Name: "wide", Fields: []imdb.Field{
		{Name: "id", Words: 1}, {Name: "WIDE", Words: 5}, {Name: "n", Words: 1},
	}}, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 9; i++ {
		if _, err := wide.Append(i, 10*i, 10*i+1, 10*i+2, 10*i+3, 10*i+4, i*i); err != nil {
			t.Fatal(err)
		}
	}
	if err := wide.Delete([]int{0, 4}); err != nil {
		t.Fatal(err)
	}
	if err := wide.SetField(5, "WIDE", 1, 2, 3, 4, 5); err != nil {
		t.Fatal(err)
	}
	return db
}

// payloadOf gob-encodes snap as Save does, without the frame.
func payloadOf(t testing.TB, snap persistDB) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(snap); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// framed wraps a gob payload in a valid snapshot frame.
func framed(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint64(append([]byte(nil), snapMagic[:]...), uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, snapCRC))
}

// zeroWidthSnaps are valid frames around catalogs no table can be built
// from: a table without fields, and one whose only field is zero words wide.
func zeroWidthSnaps() []persistDB {
	return []persistDB{
		{Version: persistVersion, Tables: []persistTable{{Name: "z", Capacity: 4}}},
		{Version: persistVersion, Tables: []persistTable{{Name: "z", Capacity: 4,
			Fields: []persistField{{Name: "a", Words: 0}}, Tuples: [][]uint64{{}}}}},
	}
}

// TestLoadRejectsRowOnlySnapshot: a snapshot whose mode byte names the
// retired row-only engine is refused before any table is built; the same
// catalog with the byte at 0 loads.
func TestLoadRejectsRowOnlySnapshot(t *testing.T) {
	snap := persistDB{Version: persistVersion, Mode: 1, Tables: []persistTable{{
		Name: "t", Fields: []persistField{{Name: "a", Words: 1}}, Capacity: 4, Tuples: [][]uint64{{7}},
	}}}
	db, _ := Open()
	err := db.Load(bytes.NewReader(framed(payloadOf(t, snap))))
	if err == nil || !strings.Contains(err.Error(), "row-only") {
		t.Fatalf("row-only snapshot: got %v, want an error naming the row-only engine", err)
	}
	if len(db.tables) != 0 {
		t.Fatalf("refused snapshot left %d tables behind", len(db.tables))
	}
	snap.Mode = 0
	if err := db.Load(bytes.NewReader(framed(payloadOf(t, snap)))); err != nil {
		t.Fatal(err)
	}
}

// TestCreateTableRejectsZeroWidth: a schema without fields or with a field
// narrower than a word (or wider than a memory row) is an error, called
// directly or reached through Load from a snapshot with a valid frame.
func TestCreateTableRejectsZeroWidth(t *testing.T) {
	for _, fields := range [][]imdb.Field{
		nil,
		{{Name: "a", Words: 0}},
		{{Name: "a", Words: 0}, {Name: "b", Words: 0}},
		{{Name: "a", Words: 1}, {Name: "b", Words: -1}},
		{{Name: "a", Words: 1}, {Name: "b", Words: 1025}},
		{{Name: "a", Words: 1 << 62}, {Name: "b", Words: 1 << 62}},
	} {
		db, _ := Open()
		if _, err := db.CreateTable("z", imdb.Schema{Name: "z", Fields: fields}, 4); err == nil {
			t.Fatalf("fields %v accepted", fields)
		}
	}
	for _, snap := range zeroWidthSnaps() {
		db, _ := Open()
		if err := db.Load(bytes.NewReader(framed(payloadOf(t, snap)))); err == nil {
			t.Fatalf("snapshot %+v loaded", snap)
		}
	}
}

// TestLoadCatalogEdges: catalogs Save never writes, behind a valid frame.
// A tuple of the wrong width, or one past the capacity, fails the load with
// the append's error, named by table and row unless the row is a
// tombstone's placeholder; tombstone entries out of range or repeated are
// ignored. The expected texts and counts are the tuple-at-a-time loader's.
func TestLoadCatalogEdges(t *testing.T) {
	table := func(capacity int, deleted []int, tuples ...[]uint64) persistDB {
		return persistDB{Version: persistVersion, Tables: []persistTable{{
			Name: "t", Fields: []persistField{{Name: "a", Words: 1}}, Capacity: capacity,
			Tuples: tuples, Deleted: deleted,
		}}}
	}
	for _, tc := range []struct {
		name       string
		snap       persistDB
		err        string
		rows, live int
	}{
		{"wide tuple", table(4, []int{1}, []uint64{1}, nil, []uint64{2, 3}, []uint64{4}),
			"engine: load t row 2: engine: tuple needs 1 words, got 2", 2, 1},
		{"full at a tuple", table(2, []int{1}, []uint64{1}, nil, []uint64{2}),
			"engine: load t row 2: engine: table full (2 rows)", 2, 1},
		{"full at a tombstone", table(2, []int{0, 2}, nil, []uint64{1}, nil),
			"engine: table full (2 rows)", 2, 1},
		{"stray tombstones", table(8, []int{-1, 3, 3, 9, 1}, []uint64{1}, nil, []uint64{2}, nil),
			"", 4, 2},
	} {
		db, _ := Open()
		got := ""
		if err := db.Load(bytes.NewReader(framed(payloadOf(t, tc.snap)))); err != nil {
			got = err.Error()
		}
		if got != tc.err {
			t.Fatalf("%s: load error %q, want %q", tc.name, got, tc.err)
		}
		// A failed load leaves what it built: the stored rows and their
		// tombstones.
		tbl, _ := db.Table("t")
		if tbl.Rows() != tc.rows || tbl.Live() != tc.live {
			t.Fatalf("%s: rows/live %d/%d, want %d/%d", tc.name, tbl.Rows(), tbl.Live(), tc.rows, tc.live)
		}
	}
}

func TestLoadRejectsCorruptSnapshot(t *testing.T) {
	src, _ := Open()
	buildPeople(t, src, 64)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"flipped payload byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x40
			return c
		}},
		{"flipped checksum byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 0x01
			return c
		}},
		{"truncated payload", func(b []byte) []byte {
			return append([]byte(nil), b[:len(b)-7]...)
		}},
		{"truncated header", func(b []byte) []byte {
			return append([]byte(nil), b[:10]...)
		}},
		{"bad magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] = 'X'
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst, _ := Open()
			if err := dst.Load(bytes.NewReader(tc.mutate(snap))); err == nil {
				t.Fatal("corrupt snapshot accepted")
			}
			if n := len(dst.tables); n != 0 {
				// Rejection happens before any table is built: a corrupt
				// checkpoint must not leave a half-loaded database.
				t.Fatalf("corrupt load left %d tables behind", n)
			}
		})
	}
}

func TestLoadRequiresEmptyDB(t *testing.T) {
	src, _ := Open()
	buildPeople(t, src, 8)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst, _ := Open()
	if _, err := dst.CreateTable("x", imdb.Uniform("x", 2), 4); err != nil {
		t.Fatal(err)
	}
	if err := dst.Load(&buf); err == nil {
		t.Fatal("load into non-empty db accepted")
	}
}

func TestLoadGarbage(t *testing.T) {
	dst, _ := Open()
	if err := dst.Load(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSaveMultipleTables(t *testing.T) {
	src, _ := Open()
	buildPeople(t, src, 32)
	wide, err := src.CreateTable("c", imdb.Schema{Name: "c", Fields: []imdb.Field{
		{Name: "id", Words: 1}, {Name: "blob", Words: 3},
	}}, 16)
	if err != nil {
		t.Fatal(err)
	}
	wide.Append(1, 7, 8, 9)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst, _ := Open()
	if err := dst.Load(&buf); err != nil {
		t.Fatal(err)
	}
	c, ok := dst.Table("c")
	if !ok {
		t.Fatal("second table missing")
	}
	blob, err := c.Field(0, "blob")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(blob, []uint64{7, 8, 9}) {
		t.Fatalf("blob = %v", blob)
	}
}
