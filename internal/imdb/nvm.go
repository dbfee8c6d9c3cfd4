package imdb

import (
	"fmt"

	"rcnvm/internal/addr"
	"rcnvm/internal/binpack"
)

// NVMAllocator places tables onto RC-NVM subarrays. Tables are sliced into
// chunks of at most one subarray (§4.5.1); chunks are placed online with
// the rotatable 2D bin packer (§4.5.3), one bin per subarray, spreading
// bins across channels, ranks and banks for parallelism.
type NVMAllocator struct {
	geom   addr.Geometry
	packer *binpack.Packer

	// spread > 0 trades packing density for bandwidth: tables are sliced
	// into at least `spread` chunks and each chunk gets a subarray of its
	// own, assigned round-robin across channels/ranks/banks. This is the
	// §4.2.2 "explicit data layout control": a parallel DBMS places
	// partitions for bank parallelism, not for minimal footprint.
	spread  int
	nextBin int
}

// NewNVMAllocator builds a space-efficient allocator (bin-packed chunks)
// over the dual-addressable geometry.
func NewNVMAllocator(geom addr.Geometry) *NVMAllocator {
	return &NVMAllocator{
		geom:   geom,
		packer: binpack.New(geom.Columns(), geom.Rows()),
	}
}

// NewNVMAllocatorSpread builds a bandwidth-oriented allocator: every table
// is sliced into at least chunksPerTable chunks and chunks land on distinct
// subarrays round-robin across the banks.
func NewNVMAllocatorSpread(geom addr.Geometry, chunksPerTable int) *NVMAllocator {
	a := NewNVMAllocator(geom)
	if chunksPerTable < 1 {
		chunksPerTable = 1
	}
	a.spread = chunksPerTable
	return a
}

// placedChunk is one table chunk mapped onto a subarray region.
type placedChunk struct {
	first, n int // tuple span [first, first+n)
	h        int // local rows per column group (ColMajor) / rows used (RowMajor)
	sub      addr.Coord
	x, y     int
	rotated  bool
}

// NVMPlacement is a table sliced and placed on RC-NVM.
type NVMPlacement struct {
	geom     addr.Geometry
	table    *Table
	layout   Layout
	chunks   []placedChunk
	perChunk int
	words    int // tuple width, fixed at Place time
}

var _ Placement = (*NVMPlacement)(nil)

// Place slices the table into chunks and packs them.
func (a *NVMAllocator) Place(t *Table, layout Layout) (*NVMPlacement, error) {
	L := t.Schema.TupleWords()
	if L > a.geom.Columns() {
		return nil, fmt.Errorf("imdb: tuple of %q is %d words, longer than a memory row (%d)",
			t.Schema.Name, L, a.geom.Columns())
	}
	groupsPerSub := a.geom.Columns() / L
	perChunk := groupsPerSub * a.geom.Rows()
	if a.spread > 0 {
		want := (t.Tuples + a.spread - 1) / a.spread
		if want < 1 {
			want = 1
		}
		if want < perChunk {
			perChunk = want
		}
	}

	p := &NVMPlacement{geom: a.geom, table: t, layout: layout, perChunk: perChunk, words: L}
	for first := 0; first < t.Tuples; first += perChunk {
		n := t.Tuples - first
		if n > perChunk {
			n = perChunk
		}
		var w, h, localH int
		if layout == ColMajor {
			// Figure 13(b): one tuple per row, column groups of width L
			// side by side.
			localH = min(n, a.geom.Rows())
			groups := (n + localH - 1) / localH
			w, h = groups*L, localH
		} else {
			// Figure 13(a) row-major and PAX share the footprint: tpr
			// tuples per memory row.
			tpr := groupsPerSub
			localH = tpr // reused as tuples-per-row
			rows := (n + tpr - 1) / tpr
			w, h = tpr*L, rows
		}
		var pl binpack.Placement
		if a.spread > 0 {
			// Dedicated subarray per chunk, round-robin over banks.
			pl = binpack.Placement{Bin: a.nextBin, W: w, H: h}
			a.nextBin++
		} else {
			var err error
			pl, err = a.packer.Place(binpack.Rect{W: w, H: h})
			if err != nil {
				return nil, fmt.Errorf("imdb: placing chunk of %q: %w", t.Schema.Name, err)
			}
		}
		sub, err := a.subarrayCoord(pl.Bin)
		if err != nil {
			return nil, err
		}
		p.chunks = append(p.chunks, placedChunk{
			first: first, n: n, h: localH,
			sub: sub, x: pl.X, y: pl.Y, rotated: pl.Rotated,
		})
	}
	return p, nil
}

// SubarraysUsed reports how many subarrays the allocator has opened so far
// (across all tables placed through it).
func (a *NVMAllocator) SubarraysUsed() int {
	if a.spread > 0 {
		return a.nextBin
	}
	return a.packer.Bins()
}

// subarrayCoord maps a bin index to a subarray, interleaving across
// channels, then ranks, then banks — chunks land on different banks for
// parallelism.
func (a *NVMAllocator) subarrayCoord(bin int) (addr.Coord, error) {
	g := a.geom
	total := g.TotalBanks() * g.Subarrays()
	if bin >= total {
		return addr.Coord{}, fmt.Errorf("imdb: out of subarrays (%d needed, %d available)", bin+1, total)
	}
	c := addr.Coord{}
	c.Channel = uint32(bin % g.Channels())
	bin /= g.Channels()
	c.Rank = uint32(bin % g.Ranks())
	bin /= g.Ranks()
	c.Bank = uint32(bin % g.Banks())
	bin /= g.Banks()
	c.Subarray = uint32(bin)
	return c, nil
}

// Table returns the placed table.
func (p *NVMPlacement) Table() *Table { return p.table }

// Geom returns the device geometry.
func (p *NVMPlacement) Geom() addr.Geometry { return p.geom }

// Layout returns the intra-chunk layout.
func (p *NVMPlacement) Layout() Layout { return p.layout }

// Chunks returns the number of chunks the table was sliced into.
func (p *NVMPlacement) Chunks() int { return len(p.chunks) }

func (p *NVMPlacement) chunkOf(t int) *placedChunk {
	return &p.chunks[t/p.perChunk]
}

// ChunkRange returns the tuple span of t's chunk.
func (p *NVMPlacement) ChunkRange(t int) (int, int) {
	c := p.chunkOf(t)
	return c.first, c.n
}

// Cell maps (tuple, word) to its physical coordinate.
func (p *NVMPlacement) Cell(t, w int) addr.Coord {
	p.check(t, w)
	ck := p.chunkOf(t)
	return p.cell(ck, t-ck.first, w)
}

// check panics unless (t, w) is a cell of the table.
func (p *NVMPlacement) check(t, w int) {
	if t < 0 || t >= p.table.Tuples || w < 0 || w >= p.words {
		panic(fmt.Sprintf("imdb: cell (%d,%d) out of table %q bounds", t, w, p.table.Schema.Name))
	}
}

// cell is Cell of word w of local tuple l of chunk ck.
func (p *NVMPlacement) cell(ck *placedChunk, l, w int) addr.Coord {
	L := p.words
	var lr, lc int // local row/column before rotation
	switch p.layout {
	case ColMajor:
		g := l / ck.h
		lr = l % ck.h
		lc = g*L + w
	case PAX:
		// One page per row; within the page, word slot w's values for
		// all tpr tuples are contiguous.
		tpr := ck.h
		lr = l / tpr
		lc = w*tpr + l%tpr
	default: // RowMajor
		tpr := ck.h
		lr = l / tpr
		lc = (l%tpr)*L + w
	}
	if ck.rotated {
		lr, lc = lc, lr
	}
	c := ck.sub
	c.Row = uint32(ck.y + lr)
	c.Column = uint32(ck.x + lc)
	return c
}

// ScanOrient returns the orientation along which the same field of
// consecutive tuples is contiguous near t.
func (p *NVMPlacement) ScanOrient(t int) addr.Orientation {
	return p.scanOrient(p.chunkOf(t))
}

func (p *NVMPlacement) scanOrient(ck *placedChunk) addr.Orientation {
	if p.layout == ColMajor {
		// Tuples advance down local rows.
		if ck.rotated {
			return addr.Row
		}
		return addr.Column
	}
	// RowMajor and PAX: tuples advance along local rows.
	if ck.rotated {
		return addr.Column
	}
	return addr.Row
}

// ScanRun describes the field scan from tuple t on: for k < n (n >= 1),
// Cell(t+k, w) is c.Along(o, k·step), o is ScanOrient(t+k), and t+k is in
// t's chunk. Word w of successive tuples stays on one line of the chunk's
// region until its column group (ColMajor) or memory row (RowMajor, PAX)
// ends; only RowMajor interleaves the other words of each tuple. The
// planner reads its field scans through it, and the engine the coordinates
// of the cells a trace or a fault injector observes. It looks t's chunk up
// once.
func (p *NVMPlacement) ScanRun(t, w int) (addr.Coord, addr.Orientation, int, int) {
	p.check(t, w)
	ck := p.chunkOf(t)
	l := t - ck.first
	step, n := 1, ck.h-l%ck.h
	if p.layout == RowMajor {
		step = p.words
	}
	return p.cell(ck, l, w), p.scanOrient(ck), step, min(n, ck.n-l)
}

// FetchRun describes tuple t's words from w on: they lie along
// FetchOrient(t), one apart (PAX: a page's tuple count apart), to the end
// of the tuple.
func (p *NVMPlacement) FetchRun(t, w int) (addr.Coord, addr.Orientation, int, int) {
	p.check(t, w)
	ck := p.chunkOf(t)
	step := 1
	if p.layout == PAX {
		step = ck.h
	}
	return p.cell(ck, t-ck.first, w), fetchOrient(ck), step, p.words - w
}

// FetchOrient returns the orientation along which the words of tuple t are
// contiguous.
func (p *NVMPlacement) FetchOrient(t int) addr.Orientation {
	return fetchOrient(p.chunkOf(t))
}

func fetchOrient(ck *placedChunk) addr.Orientation {
	if ck.rotated {
		return addr.Column
	}
	return addr.Row
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
