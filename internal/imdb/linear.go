package imdb

import (
	"fmt"

	"rcnvm/internal/addr"
)

// LinearAllocator places tables consecutively in the flat row-oriented
// address space of a conventional memory (DRAM, plain RRAM, GS-DRAM) — the
// classical row-store storage engine.
type LinearAllocator struct {
	geom addr.Geometry
	next uint32
}

// NewLinearAllocator starts allocating at address zero of geom.
func NewLinearAllocator(geom addr.Geometry) *LinearAllocator {
	return &LinearAllocator{geom: geom}
}

// Place allocates the table, aligned to a memory-row boundary.
func (a *LinearAllocator) Place(t *Table) (*LinearPlacement, error) {
	rowBytes := uint32(a.geom.RowBytes())
	base := (a.next + rowBytes - 1) / rowBytes * rowBytes
	size := uint64(t.Bytes())
	if uint64(base)+size > uint64(a.geom.TotalBytes()) {
		return nil, fmt.Errorf("imdb: table %q (%d bytes) does not fit memory", t.Schema.Name, size)
	}
	a.next = base + uint32(size)
	return &LinearPlacement{geom: a.geom, table: t, base: base, words: t.Schema.TupleWords()}, nil
}

// Used returns the bytes allocated so far.
func (a *LinearAllocator) Used() int64 { return int64(a.next) }

// LinearPlacement is a table stored tuple-after-tuple in flat address
// space.
type LinearPlacement struct {
	geom  addr.Geometry
	table *Table
	base  uint32
	words int // tuple width, fixed at Place time
}

var _ Placement = (*LinearPlacement)(nil)

// Table returns the placed table.
func (p *LinearPlacement) Table() *Table { return p.table }

// Geom returns the device geometry.
func (p *LinearPlacement) Geom() addr.Geometry { return p.geom }

// Base returns the first byte address of the table.
func (p *LinearPlacement) Base() uint32 { return p.base }

// Cell maps (tuple, word) to its physical coordinate.
func (p *LinearPlacement) Cell(t, w int) addr.Coord {
	L := p.words
	if t < 0 || t >= p.table.Tuples || w < 0 || w >= L {
		panic(fmt.Sprintf("imdb: cell (%d,%d) out of table %q bounds", t, w, p.table.Schema.Name))
	}
	a := p.base + uint32(t*L+w)*addr.WordBytes
	return p.geom.Decode(a, addr.Row)
}

// ScanRun: word w of successive tuples lies a tuple width apart in flat
// address space, so a run goes along the device row of Cell(t, w) until
// the row or the table ends.
func (p *LinearPlacement) ScanRun(t, w int) (addr.Coord, addr.Orientation, int, int) {
	c := p.Cell(t, w)
	n := (p.geom.Columns() - int(c.Column) + p.words - 1) / p.words
	return c, addr.Row, p.words, min(n, p.table.Tuples-t)
}

// FetchRun: the words of a tuple are consecutive in flat address space, so
// a run goes along the device row until the row or the tuple ends.
func (p *LinearPlacement) FetchRun(t, w int) (addr.Coord, addr.Orientation, int, int) {
	c := p.Cell(t, w)
	return c, addr.Row, 1, min(p.words-w, p.geom.Columns()-int(c.Column))
}

// ScanOrient is always Row: conventional memories have one orientation.
func (p *LinearPlacement) ScanOrient(int) addr.Orientation { return addr.Row }

// FetchOrient is always Row.
func (p *LinearPlacement) FetchOrient(int) addr.Orientation { return addr.Row }

// ChunkRange: a linear placement is one contiguous chunk.
func (p *LinearPlacement) ChunkRange(int) (int, int) { return 0, p.table.Tuples }

// TuplesPerDeviceRow returns how many whole tuples one memory row holds
// (GS-DRAM eligibility: the gather pattern must stay within an open row).
func (p *LinearPlacement) TuplesPerDeviceRow() int {
	if p.words == 0 {
		return 0
	}
	return p.geom.Columns() / p.words
}
