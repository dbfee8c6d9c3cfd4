// Package funcmem is the functional (value-carrying) model of a
// dual-addressable memory: it stores actual 8-byte words and serves reads
// and writes through either the row-oriented or the column-oriented
// address encoding, with both views guaranteed to agree — the semantic
// contract of RC-NVM that the timing simulator (internal/device) does not
// carry because it models time, not data.
//
// Storage is a sparse map of 32 KB pages, so a 4 GB address space costs
// memory only where data lives. A page is a strip of a subarray, 512 rows
// by 8 columns, stored column after column: a column-oriented run — what a
// field scan of a table chunk walks — is one contiguous slice of host
// memory, and a row-oriented line is 8 words 4 KB apart. Run gives scans a
// view of such a span and copies it out densely.
package funcmem

import (
	"fmt"
	"sync/atomic"

	"rcnvm/internal/addr"
)

const (
	// stripBits: a strip is one row-oriented line (8 word columns) wide.
	stripBits = 3
	stripCols = 1 << stripBits
	// pageWords is the allocation granularity (32 KB pages).
	pageWords = 1 << 12
	// pageRowBits: a page holds 512 rows of a strip.
	pageRowBits = 9
	pageRows    = 1 << pageRowBits
)

// Memory is a functional dual-addressable word store.
//
// Memory is not synchronized as a whole — writers need external mutual
// exclusion (internal/engine holds its DB lock) — but the access counters
// are atomic, so any number of concurrent readers may share the memory:
// a read-only access mutates nothing except those counters.
type Memory struct {
	geom  addr.Geometry
	pages map[uint32][]uint64
	// rowLo is how many low row bits index a word within its strip column:
	// 9, or every row bit of a subarray of fewer than 512 rows.
	rowLo uint

	reads, writes [2]atomic.Int64 // indexed by orientation
}

// New returns an empty memory with the given geometry.
func New(geom addr.Geometry) (*Memory, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if geom.ColumnBits < stripBits {
		return nil, fmt.Errorf("funcmem: geometry has %d columns, fewer than one line", geom.Columns())
	}
	rowLo := min(geom.RowBits, pageRowBits)
	return &Memory{geom: geom, pages: make(map[uint32][]uint64), rowLo: rowLo}, nil
}

// Geom returns the memory geometry.
func (m *Memory) Geom() addr.Geometry { return m.geom }

// word returns the storage index of a coordinate: the subarray's fields,
// then Column>>3 | Row>>9 | Column&7 | Row&511 — strip, its 512-row page,
// column within the strip, row within the page.
func (m *Memory) word(c addr.Coord) uint32 {
	g, lo := &m.geom, m.rowLo
	a := c.Channel
	a = a<<g.RankBits | c.Rank
	a = a<<g.BankBits | c.Bank
	a = a<<g.SubarrayBits | c.Subarray
	a = a<<(g.ColumnBits-stripBits) | c.Column>>stripBits
	a = a<<(g.RowBits-lo) | c.Row>>lo
	a = a<<stripBits | c.Column&(stripCols-1)
	return a<<lo | c.Row&(1<<lo-1)
}

// page returns the page holding storage index w: nil if it was never
// written, unless alloc asks for it to be made.
func (m *Memory) page(w uint32, alloc bool) []uint64 {
	p, ok := m.pages[w/pageWords]
	if !ok && alloc {
		p = make([]uint64, pageWords)
		m.pages[w/pageWords] = p
	}
	return p
}

func (m *Memory) slot(c addr.Coord, alloc bool) *uint64 {
	w := m.word(c)
	if p := m.page(w, alloc); p != nil {
		return &p[w%pageWords]
	}
	return nil
}

// ReadCoord returns the word at a physical coordinate, noting the access
// orientation for accounting.
func (m *Memory) ReadCoord(c addr.Coord, o addr.Orientation) uint64 {
	m.reads[o].Add(1)
	if s := m.slot(c, false); s != nil {
		return *s
	}
	return 0
}

// WriteCoord stores a word at a physical coordinate.
func (m *Memory) WriteCoord(c addr.Coord, o addr.Orientation, v uint64) {
	m.writes[o].Add(1)
	*m.slot(c, true) = v
}

// Run is a view of words spaced evenly along one orientation inside one
// page. A Run from Run is read-only and stays valid until the memory is
// next written; one from WriteRun is written through with Set.
type Run struct {
	page      []uint64 // nil: the span was never written and reads zero
	stride, n int
}

// Len is the number of words in the run.
func (r Run) Len() int { return r.n }

// Words returns the run's first n words, n <= Len(), as the page itself
// when they lie one after the other, and nil when they do not or were
// never written. The caller only reads them, and only until the memory is
// next written.
func (r Run) Words(n int) []uint64 {
	if r.stride != 1 || r.page == nil {
		return nil
	}
	return r.page[:n:n]
}

// Copy stores the run's first n words, n <= Len(), at dst[:n].
func (r Run) Copy(dst []uint64, n int) {
	if n <= 0 {
		return
	}
	dst = dst[:n]
	switch {
	case r.page == nil:
		clear(dst)
	case r.stride == 1:
		copy(dst, r.page)
	default:
		for k, i := 0, 0; k < n; k, i = k+1, i+r.stride {
			dst[k] = r.page[i]
		}
	}
}

// Gather stores word idx[k]-idx[0] of the run at dst[k] for k = 0, 1, …
// until idx ends or names a word outside the run, and returns how many it
// stored: at least one, word 0.
func (r Run) Gather(dst []uint64, idx []int) int {
	for k, j := range idx {
		i := j - idx[0]
		if uint(i) >= uint(r.n) {
			return k
		}
		var v uint64
		if r.page != nil {
			v = r.page[i*r.stride]
		}
		dst[k] = v
	}
	return len(idx)
}

// Run returns a view of the words at c.Along(o, k·step), k = 0, 1, …: at
// most n of them (n >= 1, step >= 1), fewer when the span would leave c's
// page — a row-oriented run ends with its 8-column line, a column-oriented
// one at the next multiple of 512 rows. Reading through a Run is not
// counted; the reader reports its cells to CountReads.
func (m *Memory) Run(c addr.Coord, o addr.Orientation, step, n int) Run {
	return m.run(c, o, step, n, false)
}

// WriteRun is Run for writing: it allocates the page of a span never
// written. Writing through it is not counted; the writer reports its cells
// to CountWrites.
func (m *Memory) WriteRun(c addr.Coord, o addr.Orientation, step, n int) Run {
	return m.run(c, o, step, n, true)
}

// Set stores v as word k < Len() of a Run from WriteRun.
func (r Run) Set(k int, v uint64) { r.page[k*r.stride] = v }

func (m *Memory) run(c addr.Coord, o addr.Orientation, step, n int, alloc bool) Run {
	room, stride := stripCols-int(c.Column)%stripCols, step<<m.rowLo
	if o == addr.Column {
		room, stride = pageRows-int(c.Row)%pageRows, step
		if rows := m.geom.Rows() - int(c.Row); rows < room {
			room = rows
		}
	}
	if most := (room-1)/step + 1; n > most {
		n = most
	}
	r := Run{stride: stride, n: n}
	w := m.word(c)
	if p := m.page(w, alloc); p != nil {
		r.page = p[w%pageWords:]
	}
	return r
}

// CountReads accounts n word reads of orientation o made through a Run.
func (m *Memory) CountReads(o addr.Orientation, n int) { m.reads[o].Add(int64(n)) }

// CountWrites accounts n word writes of orientation o made through a Run.
func (m *Memory) CountWrites(o addr.Orientation, n int) { m.writes[o].Add(int64(n)) }

// ReadWord reads through an encoded address of the given orientation —
// the software-visible load / cload.
func (m *Memory) ReadWord(a uint32, o addr.Orientation) uint64 {
	return m.ReadCoord(m.geom.Decode(a, o), o)
}

// WriteWord writes through an encoded address — the store / cstore.
func (m *Memory) WriteWord(a uint32, o addr.Orientation, v uint64) {
	m.WriteCoord(m.geom.Decode(a, o), o, v)
}

// ReadLine reads the 64-byte line containing address a in orientation o:
// 8 consecutive words along a row for Row, down a column for Column.
func (m *Memory) ReadLine(a uint32, o addr.Orientation) [addr.LineWords]uint64 {
	var out [addr.LineWords]uint64
	id := m.geom.LineOf(m.geom.Decode(a, o), o)
	for i := 0; i < addr.LineWords; i++ {
		out[i] = m.ReadCoord(id.WordCoord(i), o)
	}
	return out
}

// Counts reports word accesses by orientation.
type Counts struct {
	RowReads, RowWrites int64
	ColReads, ColWrites int64
}

// Counts returns the access counters.
func (m *Memory) Counts() Counts {
	return Counts{
		RowReads: m.reads[addr.Row].Load(), RowWrites: m.writes[addr.Row].Load(),
		ColReads: m.reads[addr.Column].Load(), ColWrites: m.writes[addr.Column].Load(),
	}
}

// ResetCounts zeroes the access counters.
func (m *Memory) ResetCounts() {
	for o := range m.reads {
		m.reads[o].Store(0)
		m.writes[o].Store(0)
	}
}

// FootprintBytes returns the allocated backing storage.
func (m *Memory) FootprintBytes() int64 {
	return int64(len(m.pages)) * pageWords * addr.WordBytes
}

func (m *Memory) String() string {
	c := m.Counts()
	return fmt.Sprintf("funcmem: %d pages, reads row/col %d/%d, writes %d/%d",
		len(m.pages), c.RowReads, c.ColReads, c.RowWrites, c.ColWrites)
}
