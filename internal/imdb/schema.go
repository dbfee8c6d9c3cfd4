// Package imdb implements the in-memory-database storage layer of the
// paper: relational schemas, tables, the slicing of tables into chunks
// (§4.5.1), the two intra-chunk data layouts of Figure 13 (row-oriented and
// column-oriented), and placement of chunks onto memory — linear placement
// for conventional row-only memories, and subarray placement with rotation
// via 2D online bin packing for RC-NVM (§4.5.3).
package imdb

import (
	"fmt"

	"rcnvm/internal/addr"
)

// Field is one schema column. Width is in 8-byte memory words; wide fields
// (Words > 1) are the §5 "wide field" case that motivates group caching.
type Field struct {
	Name  string
	Words int
}

// Schema is an ordered list of fields.
type Schema struct {
	Name   string
	Fields []Field
}

// TupleWords returns the tuple length in 8-byte words.
func (s Schema) TupleWords() int {
	n := 0
	for _, f := range s.Fields {
		n += f.Words
	}
	return n
}

// FieldIndex returns the position of the named field, or -1.
func (s Schema) FieldIndex(name string) int {
	for i, f := range s.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// FieldOffset returns the word offset and width of the named field.
func (s Schema) FieldOffset(name string) (offset, words int, err error) {
	for _, f := range s.Fields {
		if f.Name == name {
			return offset, f.Words, nil
		}
		offset += f.Words
	}
	return 0, 0, fmt.Errorf("imdb: schema %q has no field %q", s.Name, name)
}

// Uniform returns a schema of n single-word fields named f1..fn — the
// shapes of table-a (16 fields) and table-b (20 fields) in Table 2.
func Uniform(name string, n int) Schema {
	s := Schema{Name: name}
	for i := 1; i <= n; i++ {
		s.Fields = append(s.Fields, Field{Name: fmt.Sprintf("f%d", i), Words: 1})
	}
	return s
}

// Table is a relation instance: a schema plus a tuple count. Values are not
// materialized — the simulator models accesses, not data.
type Table struct {
	Schema Schema
	Tuples int
}

// NewTable builds a table.
func NewTable(s Schema, tuples int) *Table {
	return &Table{Schema: s, Tuples: tuples}
}

// Bytes returns the raw size of the table.
func (t *Table) Bytes() int64 {
	return int64(t.Tuples) * int64(t.Schema.TupleWords()) * addr.WordBytes
}

// Layout selects the intra-chunk data layout of Figure 13.
type Layout uint8

const (
	// RowMajor is Figure 13(a): tuples packed consecutively along memory
	// rows — the conventional row-store layout.
	RowMajor Layout = iota
	// ColMajor is Figure 13(b): consecutive tuples on consecutive memory
	// rows, so one field of successive tuples lies along a physical
	// column. The paper's default for RC-NVM.
	ColMajor
	// PAX is the software hybrid the paper's related work discusses
	// (Ailamaki et al., VLDB'01): each memory row is a page holding a
	// group of tuples column-wise — every word slot's values for the
	// page's tuples lie contiguously, so field scans are row-sequential
	// even on conventional memories, at the cost of scattering each
	// tuple across the page.
	PAX
)

func (l Layout) String() string {
	switch l {
	case RowMajor:
		return "row-major"
	case ColMajor:
		return "col-major"
	default:
		return "pax"
	}
}

// Placement maps table coordinates (tuple, word) to physical memory
// coordinates and tells planners which access orientation is efficient.
// Cell is for random access; a walk over a field or a tuple reads the
// placement a run at a time (ScanRun, FetchRun), so it asks once per run
// rather than once per word.
type Placement interface {
	Table() *Table
	Geom() addr.Geometry
	// Cell returns the physical word holding word w of tuple t.
	Cell(t, w int) addr.Coord
	// ScanRun describes word w of tuples t, t+1, …: for k < n (n >= 1),
	// Cell(t+k, w) is c.Along(o, k·step) with step >= 1, and t+k is in
	// t's chunk.
	ScanRun(t, w int) (c addr.Coord, o addr.Orientation, step, n int)
	// FetchRun describes words w, w+1, … of tuple t: for k < n (n >= 1),
	// Cell(t, w+k) is c.Along(o, k·step) with step >= 1.
	FetchRun(t, w int) (c addr.Coord, o addr.Orientation, step, n int)
	// ScanOrient is the orientation in which the same word of successive
	// tuples near t is contiguous (the field-scan direction).
	ScanOrient(t int) addr.Orientation
	// FetchOrient is the orientation in which the words of tuple t are
	// contiguous (the whole-tuple direction).
	FetchOrient(t int) addr.Orientation
	// ChunkRange returns the [first, first+n) tuple span of the chunk
	// containing t.
	ChunkRange(t int) (first, n int)
}
