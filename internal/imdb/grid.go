package imdb

import (
	"fmt"

	"rcnvm/internal/addr"
)

// GridAllocator emulates the chunked grid layouts of Figure 13 on a
// conventional linear memory: the table is sliced and laid out exactly as
// on RC-NVM (virtual 1024x1024-word grids), but each virtual grid is stored
// row-major in the flat address space of the target device. This is what
// the Figure 17 micro-benchmarks need: the same software data layout on
// DRAM, RRAM and RC-NVM, with only the hardware access capabilities
// differing.
type GridAllocator struct {
	target addr.Geometry
	virt   *NVMAllocator
	vgeom  addr.Geometry
}

// NewGridAllocator builds a grid allocator whose virtual grids mirror the
// RC-NVM subarray geometry.
func NewGridAllocator(target addr.Geometry) *GridAllocator {
	vgeom := addr.Geometry{
		ChannelBits: 1, RankBits: 2, BankBits: 3, SubarrayBits: 3,
		RowBits: 10, ColumnBits: 10, DualAddress: true,
	}
	return &GridAllocator{target: target, virt: NewNVMAllocator(vgeom), vgeom: vgeom}
}

// Place slices and lays out the table on the virtual grids, then flattens.
func (a *GridAllocator) Place(t *Table, layout Layout) (*GridPlacement, error) {
	inner, err := a.virt.Place(t, layout)
	if err != nil {
		return nil, err
	}
	// Flattened grids must fit the target memory.
	gridBytes := int64(a.vgeom.SubarrayBytes())
	if int64(a.virt.SubarraysUsed())*gridBytes > a.target.TotalBytes() {
		return nil, fmt.Errorf("imdb: flattened grids exceed target memory")
	}
	return &GridPlacement{target: a.target, vgeom: a.vgeom, inner: inner}, nil
}

// GridPlacement is a grid-laid-out table flattened into linear memory.
type GridPlacement struct {
	target addr.Geometry
	vgeom  addr.Geometry
	inner  *NVMPlacement
}

var _ Placement = (*GridPlacement)(nil)

// Table returns the placed table.
func (p *GridPlacement) Table() *Table { return p.inner.Table() }

// Geom returns the target (linear) geometry.
func (p *GridPlacement) Geom() addr.Geometry { return p.target }

// Cell flattens the virtual grid coordinate into the target address space.
func (p *GridPlacement) Cell(t, w int) addr.Coord { return p.flat(p.inner.Cell(t, w)) }

// flat maps a virtual grid coordinate to the target address space: grid g,
// row r, column c live at byte (g*1024*1024 + r*1024 + c) * 8.
func (p *GridPlacement) flat(vc addr.Coord) addr.Coord {
	grid := p.gridOrdinal(vc)
	words := int64(grid)*int64(p.vgeom.Rows())*int64(p.vgeom.Columns()) +
		int64(vc.Row)*int64(p.vgeom.Columns()) + int64(vc.Column)
	return p.target.Decode(uint32(words*addr.WordBytes), addr.Row)
}

// ScanRun is the virtual layout's scan run, flattened.
func (p *GridPlacement) ScanRun(t, w int) (addr.Coord, addr.Orientation, int, int) {
	return p.flatRun(p.inner.ScanRun(t, w))
}

// FetchRun is the virtual layout's fetch run, flattened.
func (p *GridPlacement) FetchRun(t, w int) (addr.Coord, addr.Orientation, int, int) {
	return p.flatRun(p.inner.FetchRun(t, w))
}

// flatRun flattens a virtual run: a step along a virtual row is step words
// of flat address space, a step down a virtual column step·1024 words. The
// flattened run goes along the target's device row and ends with it.
func (p *GridPlacement) flatRun(vc addr.Coord, o addr.Orientation, step, n int) (addr.Coord, addr.Orientation, int, int) {
	if o == addr.Column {
		step *= p.vgeom.Columns()
	}
	c := p.flat(vc)
	return c, addr.Row, step, min(n, (p.target.Columns()-int(c.Column)+step-1)/step)
}

// gridOrdinal inverts the allocator's bin -> subarray interleaving.
func (p *GridPlacement) gridOrdinal(c addr.Coord) int {
	g := p.vgeom
	return int(c.Channel) + g.Channels()*(int(c.Rank)+g.Ranks()*(int(c.Bank)+g.Banks()*int(c.Subarray)))
}

// ScanOrient is always Row on a conventional memory.
func (p *GridPlacement) ScanOrient(int) addr.Orientation { return addr.Row }

// FetchOrient is always Row.
func (p *GridPlacement) FetchOrient(int) addr.Orientation { return addr.Row }

// ChunkRange delegates to the virtual layout.
func (p *GridPlacement) ChunkRange(t int) (int, int) { return p.inner.ChunkRange(t) }
