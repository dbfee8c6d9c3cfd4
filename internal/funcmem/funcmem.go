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
// memory, and a row-oriented line is 8 words 4 KB apart. Span locates such
// a run of words in its page, and a Run is the view of it that scans copy
// out densely.
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
	pages map[uint32]*Page
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
	return &Memory{geom: geom, pages: make(map[uint32]*Page), rowLo: rowLo}, nil
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

// Page is one page of storage, 32 KB. A page once made stays where it is
// for the memory's lifetime, so a reader may hold on to a pointer to it.
type Page [pageWords]uint64

// Page returns the page of key k (a Span's Key): nil if it was never
// written, unless alloc asks for it to be made. Making a page is a write:
// it needs the writers' mutual exclusion; a lookup is a read.
func (m *Memory) Page(k uint32, alloc bool) *Page {
	p := m.pages[k]
	if p == nil && alloc {
		p = new(Page)
		m.pages[k] = p
	}
	return p
}

func (m *Memory) slot(c addr.Coord, alloc bool) *uint64 {
	w := m.word(c)
	if p := m.Page(w/pageWords, alloc); p != nil {
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
// page: a Span on its page. A read-only one (its page looked up without
// alloc) shows the words as they are until the memory is next written;
// one on a page made for writing is written through with Put and Scatter.
// It is four words, so that it can live in registers: its length is at
// most a page's 4096 words, and a stride too long for 32 bits leaves the
// page after the run's first word, so only word 0 is ever indexed.
type Run struct {
	page      []uint64 // nil: the span was never written and reads zero
	stride, n int32
}

// Len is the number of words in the run.
func (r Run) Len() int { return int(r.n) }

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
	switch stride := int(r.stride); {
	case r.page == nil:
		clear(dst)
	case stride == 1:
		copy(dst, r.page)
	default:
		for k, i := 0, 0; k < n; k, i = k+1, i+stride {
			dst[k] = r.page[i]
		}
	}
}

// Gather stores word idx[k]-idx[0] of the run at dst[k] for k = 0, 1, …
// until idx ends or names a word outside the run, and returns how many it
// stored: at least one, word 0.
func (r Run) Gather(dst []uint64, idx []int) int {
	stride := int(r.stride)
	for k, j := range idx {
		i := j - idx[0]
		if uint(i) >= uint(r.n) {
			return k
		}
		var v uint64
		if r.page != nil {
			v = r.page[i*stride]
		}
		dst[k] = v
	}
	return len(idx)
}

// Put stores src[:n] as the run's first n words, n <= Len(), of a Run on a
// page made for writing: Copy the other way.
func (r Run) Put(src []uint64, n int) {
	stride := int(r.stride)
	if stride == 1 {
		copy(r.page[:n], src)
		return
	}
	for k, i := 0, 0; k < n; k, i = k+1, i+stride {
		r.page[i] = src[k]
	}
}

// Scatter stores src[k] as word idx[k]-idx[0] of a Run on a page made for
// writing, as far as Gather would read, and returns how many it stored:
// Gather the other way.
func (r Run) Scatter(src []uint64, idx []int) int {
	stride := int(r.stride)
	for k, j := range idx {
		i := j - idx[0]
		if uint(i) >= uint(r.n) {
			return k
		}
		r.page[i*stride] = src[k]
	}
	return len(idx)
}

// Span is where a run of words lies in storage: N words, Stride apart,
// from word Off of the page keyed Key.
type Span struct {
	Key            uint32
	Off, Stride, N int
}

// Span locates the words at c.Along(o, k·step), k = 0, 1, …: at most n of
// them (n >= 1, step >= 1), fewer when the span would leave c's page — a
// row-oriented run ends with its 8-column line, a column-oriented one at
// the next multiple of 512 rows. Reading or writing through its Run is
// not counted; the reader reports its cells to CountReads, the writer to
// CountWrites.
func (m *Memory) Span(c addr.Coord, o addr.Orientation, step, n int) Span {
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
	w := m.word(c)
	return Span{Key: w / pageWords, Off: int(w % pageWords), Stride: stride, N: n}
}

// Drop is the span less its first j words, j < N.
func (s Span) Drop(j int) Span {
	s.Off += j * s.Stride
	s.N -= j
	return s
}

// Run is the view of the span on p, its page: nil if it was never written,
// and then the run reads zero.
func (s Span) Run(p *Page) Run {
	r := Run{stride: int32(s.Stride), n: int32(s.N)}
	if p != nil {
		r.page = p[s.Off:]
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
