package funcmem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rcnvm/internal/addr"
	"rcnvm/internal/device"
)

func newMem(t *testing.T) *Memory {
	t.Helper()
	m, err := New(device.NVMGeometry(true))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestZeroInitialized(t *testing.T) {
	m := newMem(t)
	if got := m.ReadCoord(addr.Coord{Row: 7, Column: 9}, addr.Row); got != 0 {
		t.Fatalf("fresh word = %d", got)
	}
	if m.FootprintBytes() != 0 {
		t.Fatal("read allocated storage")
	}
}

// TestDualViewAgreement is THE semantic contract: a word written through
// either orientation reads back identically through both.
func TestDualViewAgreement(t *testing.T) {
	m := newMem(t)
	geom := m.Geom()
	prop := func(row, col uint16, v uint64, viaCol bool) bool {
		c := addr.Coord{Row: uint32(row) % 1024, Column: uint32(col) % 1024}
		rowAddr := geom.Encode(c, addr.Row)
		colAddr := geom.Encode(c, addr.Column)
		if viaCol {
			m.WriteWord(colAddr, addr.Column, v)
		} else {
			m.WriteWord(rowAddr, addr.Row, v)
		}
		return m.ReadWord(rowAddr, addr.Row) == v && m.ReadWord(colAddr, addr.Column) == v
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestReadLineOrientations(t *testing.T) {
	m := newMem(t)
	geom := m.Geom()
	// Fill an 8x8 block with distinctive values.
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			m.WriteCoord(addr.Coord{Row: uint32(r), Column: uint32(c)}, addr.Row, uint64(r*100+c))
		}
	}
	rowLine := m.ReadLine(geom.Encode(addr.Coord{Row: 3, Column: 0}, addr.Row), addr.Row)
	for i, v := range rowLine {
		if v != uint64(300+i) {
			t.Fatalf("row line word %d = %d", i, v)
		}
	}
	colLine := m.ReadLine(geom.Encode(addr.Coord{Row: 0, Column: 5}, addr.Column), addr.Column)
	for i, v := range colLine {
		if v != uint64(i*100+5) {
			t.Fatalf("col line word %d = %d", i, v)
		}
	}
}

func TestCounts(t *testing.T) {
	m := newMem(t)
	c := addr.Coord{Row: 1, Column: 2}
	m.WriteCoord(c, addr.Row, 42)
	m.ReadCoord(c, addr.Column)
	m.ReadCoord(c, addr.Row)
	var got4 [4]uint64
	m.Run(c, addr.Row, 1, 4).Copy(got4[:], 1, 4) // uncounted until its reader reports
	m.CountReads(addr.Row, 4)
	got := m.Counts()
	if got.RowWrites != 1 || got.ColReads != 1 || got.RowReads != 5 || got.ColWrites != 0 {
		t.Fatalf("counts = %+v", got)
	}
	m.ResetCounts()
	if m.Counts() != (Counts{}) {
		t.Fatal("reset failed")
	}
	if m.String() == "" {
		t.Fatal("empty string")
	}
}

// TestRunAgreesWithReadCoord is the storage-shape property: words written
// through either encoding around every page edge — rows 511/512, columns
// 7/8, the subarray's last row and column — read back the same through
// ReadCoord in both orientations and through Run along both — copied out
// whole at any destination stride, gathered by any index list up to its
// first index outside the run — a Run stops exactly at its page's edge, and
// never-written words read zero.
func TestRunAgreesWithReadCoord(t *testing.T) {
	m := newMem(t)
	geom := m.Geom()
	rng := rand.New(rand.NewSource(20))
	near := func(edges ...int) []uint32 {
		var out []uint32
		for _, e := range edges {
			for d := -3; d <= 3; d++ {
				if v := e + d; v >= 0 && v < 1024 {
					out = append(out, uint32(v))
				}
			}
		}
		return out
	}
	rows, cols := near(0, 512, 1023), near(0, 8, 16, 1023)
	sub := addr.Coord{Channel: 1, Rank: 2, Bank: 5, Subarray: 7}
	model := make(map[addr.Coord]uint64)
	for i := 0; i < 300; i++ {
		c := sub
		c.Row, c.Column = rows[rng.Intn(len(rows))], cols[rng.Intn(len(cols))]
		o := addr.Orientation(rng.Intn(2))
		v := rng.Uint64() | 1
		m.WriteWord(geom.Encode(c, o), o, v)
		model[c] = v
	}
	pages := m.FootprintBytes()
	for _, empty := range []bool{false, true} {
		for i := 0; i < 4000; i++ {
			c := sub
			c.Row, c.Column = rows[rng.Intn(len(rows))], cols[rng.Intn(len(cols))]
			if empty {
				c.Subarray = 2 // nothing was ever written here
			}
			for _, o := range []addr.Orientation{addr.Row, addr.Column} {
				if got, want := m.ReadCoord(c, o), model[c]; got != want {
					t.Fatalf("ReadCoord(%+v, %s) = %d, want %d", c, o, got, want)
				}
				step, n := 1+rng.Intn(5), 1+rng.Intn(24)
				r := m.Run(c, o, step, n)
				if r.Len() < 1 || r.Len() > n {
					t.Fatalf("Run(%+v, %s, %d, %d).Len() = %d", c, o, step, n, r.Len())
				}
				stride := 1 + rng.Intn(3)
				dst := make([]uint64, stride*n+1)
				for k := range dst {
					dst[k] = ^uint64(0)
				}
				r.Copy(dst, stride, r.Len())
				for k, got := range dst {
					want := ^uint64(0) // untouched between and after the copied words
					if k%stride == 0 && k/stride < r.Len() {
						want = model[c.Along(o, k/stride*step)]
					}
					if got != want {
						t.Fatalf("Run(%+v, %s, %d, %d).Copy stride %d: dst[%d] = %d, want %d", c, o, step, n, stride, k, got, want)
					}
				}
				// Indices relative to idx[0]: any order, repeats, and now and
				// then one before or past the run, where Gather must stop.
				base := rng.Intn(1000)
				idx := []int{base}
				for more := rng.Intn(12); more > 0; more-- {
					idx = append(idx, base+rng.Intn(r.Len()+1)-rng.Intn(2)*rng.Intn(2))
				}
				stop := len(idx)
				for k, j := range idx {
					if j < base || j >= base+r.Len() {
						stop = k
						break
					}
				}
				dst = make([]uint64, stride*len(idx)+1)
				for k := range dst {
					dst[k] = ^uint64(0)
				}
				if got := r.Gather(dst, stride, idx); got != stop {
					t.Fatalf("Run(%+v, %s, %d, %d).Gather(%v) = %d, want %d", c, o, step, n, idx, got, stop)
				}
				for k, got := range dst {
					want := ^uint64(0)
					if k%stride == 0 && k/stride < stop {
						want = model[c.Along(o, (idx[k/stride]-base)*step)]
					}
					if got != want {
						t.Fatalf("Run(%+v, %s, %d, %d).Gather(%v) stride %d: dst[%d] = %d, want %d", c, o, step, n, idx, stride, k, got, want)
					}
				}
				if r.Len() < n {
					// Cut short: the next word must be over a page edge.
					last, next := c.Along(o, (r.Len()-1)*step), c.Along(o, r.Len()*step)
					samePage := last.Column/8 == next.Column/8 && last.Row/512 == next.Row/512 && next.Row < 1024
					if samePage {
						t.Fatalf("Run(%+v, %s, %d, %d) stopped at %d inside its page", c, o, step, n, r.Len())
					}
				}
			}
		}
	}
	if m.FootprintBytes() != pages {
		t.Fatal("reading allocated storage")
	}
}

// TestWriteRunAgreesWithReadCoord: a WriteRun around the same page edges
// is cut where a Run is, allocates the page of a span never written, and
// the words set through it — and no others — read back through ReadCoord
// in both orientations. Nothing is counted until the writer reports it.
func TestWriteRunAgreesWithReadCoord(t *testing.T) {
	m := newMem(t)
	rng := rand.New(rand.NewSource(21))
	edge := func(lim int, edges ...int) uint32 {
		v := edges[rng.Intn(len(edges))] + rng.Intn(7) - 3
		return uint32(min(max(v, 0), lim-1))
	}
	model := make(map[addr.Coord]uint64)
	for i := 0; i < 2000; i++ {
		c := addr.Coord{Channel: 1, Rank: 2, Bank: 5, Subarray: uint32(rng.Intn(3))}
		c.Row, c.Column = edge(1024, 0, 512, 1023), edge(1024, 0, 8, 16, 1023)
		o := addr.Orientation(rng.Intn(2))
		step, n := 1+rng.Intn(5), 1+rng.Intn(24)
		r := m.WriteRun(c, o, step, n)
		if want := m.Run(c, o, step, n).Len(); r.Len() != want {
			t.Fatalf("WriteRun(%+v, %s, %d, %d).Len() = %d, Run's %d", c, o, step, n, r.Len(), want)
		}
		for k := 0; k < r.Len(); k++ {
			v := rng.Uint64()
			r.Set(k, v)
			model[c.Along(o, k*step)] = v
		}
	}
	if m.Counts() != (Counts{}) {
		t.Fatalf("writes through a run counted: %+v", m.Counts())
	}
	for c, want := range model {
		if got := m.ReadCoord(c, addr.Column); got != want {
			t.Fatalf("ReadCoord(%+v, column) = %d, want %d", c, got, want)
		}
	}
	for sub := uint32(0); sub < 4; sub++ {
		for _, row := range []uint32{0, 1, 2, 3, 509, 510, 511, 512, 513, 514, 515, 1020, 1021, 1022, 1023} {
			for col := uint32(0); col < 1024; col++ {
				c := addr.Coord{Channel: 1, Rank: 2, Bank: 5, Subarray: sub, Row: row, Column: col}
				for _, o := range []addr.Orientation{addr.Row, addr.Column} {
					if got, want := m.ReadCoord(c, o), model[c]; got != want {
						t.Fatalf("ReadCoord(%+v, %s) = %d, want %d", c, o, got, want)
					}
				}
			}
		}
	}
	m.ResetCounts()
	m.CountWrites(addr.Column, 3)
	if got := m.Counts(); got != (Counts{ColWrites: 3}) {
		t.Fatalf("CountWrites(Column, 3): counts %+v", got)
	}
}

func TestSparseAllocation(t *testing.T) {
	m := newMem(t)
	m.WriteCoord(addr.Coord{Row: 0, Column: 0}, addr.Row, 1)
	m.WriteCoord(addr.Coord{Channel: 1, Rank: 3, Bank: 7, Subarray: 7, Row: 1023, Column: 1023}, addr.Row, 2)
	// Two far-apart words: two pages, not 4 GB.
	if got := m.FootprintBytes(); got != 2*(1<<12)*8 {
		t.Fatalf("footprint = %d", got)
	}
}

func TestDistinctBanksDistinctStorage(t *testing.T) {
	m := newMem(t)
	a := addr.Coord{Bank: 0, Row: 5, Column: 5}
	b := addr.Coord{Bank: 1, Row: 5, Column: 5}
	m.WriteCoord(a, addr.Row, 111)
	m.WriteCoord(b, addr.Row, 222)
	if m.ReadCoord(a, addr.Row) != 111 || m.ReadCoord(b, addr.Row) != 222 {
		t.Fatal("bank aliasing")
	}
}

func TestInvalidGeometry(t *testing.T) {
	if _, err := New(addr.Geometry{RowBits: 30, ColumnBits: 30}); err == nil {
		t.Fatal("invalid geometry accepted")
	}
}
