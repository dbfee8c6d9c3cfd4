package funcmem

import (
	"math/rand"
	"slices"
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
	run(m, c, addr.Row, 1, 4, false).Copy(got4[:], 4) // uncounted until its reader reports
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

// run is the view of the words at c.Along(o, k·step), k < n, as a reader
// (or, with write, a writer) resolves it: its Span, on the span's page.
func run(m *Memory, c addr.Coord, o addr.Orientation, step, n int, write bool) Run {
	s := m.Span(c, o, step, n)
	return s.Run(m.Page(s.Key, write))
}

// runGeoms are the geometries the run tests walk: fewer rows than a page
// holds (256), exactly a page (512), two pages (1024) and 128 pages, each
// one line, a few strips and 128 strips wide.
func runGeoms() []addr.Geometry {
	var out []addr.Geometry
	for _, rowBits := range []uint{8, 9, 10, 16} {
		for _, colBits := range []uint{3, 8, 10} {
			out = append(out, addr.Geometry{ChannelBits: 1, RankBits: 1, SubarrayBits: 1,
				RowBits: rowBits, ColumnBits: colBits, DualAddress: true})
		}
	}
	return out
}

// near returns the values within 3 of each edge that lie in [0, lim).
func near(lim int, edges ...int) []uint32 {
	var out []uint32
	for _, e := range edges {
		for d := -3; d <= 3; d++ {
			if v := e + d; v >= 0 && v < lim {
				out = append(out, uint32(v))
			}
		}
	}
	return out
}

// pageOf is the page a coordinate's word lives in, worked out from the
// coordinate alone: its subarray, its 8-column strip and its 512-row
// stretch of that strip. In a subarray of fewer than 512 rows a page holds
// that many strips, adjacent in (subarray, strip) order.
func pageOf(g addr.Geometry, c addr.Coord) uint64 {
	f := uint64(c.Channel)
	f = f<<g.RankBits | uint64(c.Rank)
	f = f<<g.BankBits | uint64(c.Bank)
	f = f<<g.SubarrayBits | uint64(c.Subarray)
	strip := f<<(g.ColumnBits-stripBits) | uint64(c.Column>>stripBits)
	if g.RowBits < pageRowBits {
		return strip >> (pageRowBits - g.RowBits)
	}
	return strip<<(g.RowBits-pageRowBits) | uint64(c.Row>>pageRowBits)
}

// footprint is what FootprintBytes must be once the given words are
// written: one 32 KB page for each distinct page among them.
func footprint[V any](g addr.Geometry, written map[addr.Coord]V) int64 {
	pages := make(map[uint64]bool)
	for c := range written {
		pages[pageOf(g, c)] = true
	}
	return int64(len(pages)) * pageWords * addr.WordBytes
}

// checkCut fails unless a run of r.Len() of the n words asked for from c
// lies in c's strip, and, when cut short, its next word does not: a
// row-oriented run ends with its 8-column line, a column-oriented one at a
// multiple of 512 rows or the subarray's last row.
func checkCut(t *testing.T, g addr.Geometry, c addr.Coord, o addr.Orientation, step, n int, r Run) {
	t.Helper()
	if r.Len() < 1 || r.Len() > n {
		t.Fatalf("%+v: Run(%+v, %s, %d, %d).Len() = %d", g, c, o, step, n, r.Len())
	}
	same := func(a, b addr.Coord) bool {
		return a.Column/stripCols == b.Column/stripCols && a.Row/pageRows == b.Row/pageRows &&
			int(b.Column) < g.Columns() && int(b.Row) < g.Rows()
	}
	if last := c.Along(o, (r.Len()-1)*step); !same(c, last) {
		t.Fatalf("%+v: Run(%+v, %s, %d, %d) of %d leaves its strip at %+v", g, c, o, step, n, r.Len(), last)
	}
	if next := c.Along(o, r.Len()*step); r.Len() < n && same(c, next) {
		t.Fatalf("%+v: Run(%+v, %s, %d, %d) stopped at %d inside its strip", g, c, o, step, n, r.Len())
	}
}

// TestRunAgreesWithReadCoord is the storage-shape property, in every
// geometry of runGeoms: words written through either encoding around every
// page edge — rows 255/256, 511/512, the subarray's last row; columns 7/8,
// 15/16, the last column — read back the same through ReadCoord in both
// orientations and through Run along both — copied out whole, gathered by
// any index list up to its first index outside the run — a Run stops
// exactly at its strip's edge, a column-oriented one is contiguous, the
// footprint is one page per distinct page written, and never-written spans
// read zero and allocate nothing.
func TestRunAgreesWithReadCoord(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, geom := range runGeoms() {
		m, err := New(geom)
		if err != nil {
			t.Fatal(err)
		}
		rows := near(geom.Rows(), 0, 256, 512, geom.Rows()-1)
		cols := near(geom.Columns(), 0, 8, 16, geom.Columns()-1)
		sub := addr.Coord{Channel: 1, Rank: 1, Subarray: 1}
		model := make(map[addr.Coord]uint64)
		for i := 0; i < 300; i++ {
			c := sub
			c.Row, c.Column = rows[rng.Intn(len(rows))], cols[rng.Intn(len(cols))]
			o := addr.Orientation(rng.Intn(2))
			v := rng.Uint64() | 1
			m.WriteWord(geom.Encode(c, o), o, v)
			model[c] = v
		}
		if got, want := m.FootprintBytes(), footprint(geom, model); got != want {
			t.Fatalf("%+v: footprint %d bytes, want %d", geom, got, want)
		}
		for _, empty := range []bool{false, true} {
			for i := 0; i < 2000; i++ {
				c := sub
				c.Row, c.Column = rows[rng.Intn(len(rows))], cols[rng.Intn(len(cols))]
				if empty {
					c.Subarray = 0 // nothing was ever written here
				}
				for _, o := range []addr.Orientation{addr.Row, addr.Column} {
					if got, want := m.ReadCoord(c, o), model[c]; got != want {
						t.Fatalf("%+v: ReadCoord(%+v, %s) = %d, want %d", geom, c, o, got, want)
					}
					step, n := 1+rng.Intn(5), 1+rng.Intn(24)
					r := run(m, c, o, step, n, false)
					checkCut(t, geom, c, o, step, n, r)
					// The span less its first j words is the span from the
					// j-th word on.
					sp := m.Span(c, o, step, n)
					for j := 0; j < sp.N; j++ {
						if got, want := sp.Drop(j), m.Span(c.Along(o, j*step), o, step, n-j); got != want {
							t.Fatalf("%+v: Span(%+v, %s, %d, %d).Drop(%d) = %+v, want %+v", geom, c, o, step, n, j, got, want)
						}
					}
					if o == addr.Column && r.page != nil && int(r.stride) != step {
						t.Fatalf("%+v: column run of step %d has stride %d", geom, step, r.stride)
					}
					dst := make([]uint64, n+1)
					for k := range dst {
						dst[k] = ^uint64(0)
					}
					r.Copy(dst, r.Len())
					if w := r.Words(r.Len()); w != nil && !slices.Equal(w, dst[:r.Len()]) {
						t.Fatalf("%+v: Run(%+v, %s, %d, %d).Words = %v, Copy %v", geom, c, o, step, n, w, dst[:r.Len()])
					} else if w == nil && r.page != nil && r.stride == 1 {
						t.Fatalf("%+v: Run(%+v, %s, %d, %d).Words is nil at stride 1", geom, c, o, step, n)
					}
					for k, got := range dst {
						want := ^uint64(0) // untouched after the copied words
						if k < r.Len() {
							want = model[c.Along(o, k*step)]
						}
						if got != want {
							t.Fatalf("%+v: Run(%+v, %s, %d, %d).Copy: dst[%d] = %d, want %d", geom, c, o, step, n, k, got, want)
						}
					}
					// Indices relative to idx[0]: any order, repeats, and now
					// and then one before or past the run, where Gather must
					// stop.
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
					dst = make([]uint64, len(idx)+1)
					for k := range dst {
						dst[k] = ^uint64(0)
					}
					if got := r.Gather(dst, idx); got != stop {
						t.Fatalf("%+v: Run(%+v, %s, %d, %d).Gather(%v) = %d, want %d", geom, c, o, step, n, idx, got, stop)
					}
					for k, got := range dst {
						want := ^uint64(0)
						if k < stop {
							want = model[c.Along(o, (idx[k]-base)*step)]
						}
						if got != want {
							t.Fatalf("%+v: Run(%+v, %s, %d, %d).Gather(%v): dst[%d] = %d, want %d", geom, c, o, step, n, idx, k, got, want)
						}
					}
				}
			}
		}
		if got, want := m.FootprintBytes(), footprint(geom, model); got != want {
			t.Fatalf("%+v: reading moved the footprint from %d to %d bytes", geom, want, got)
		}
	}
}

// TestWriteRunAgreesWithReadCoord, in every geometry of runGeoms: a run
// on a page made for writing, around the same page edges, put whole or scattered, is cut where
// a Run is, allocates the page of a span never written and no other, and
// the words stored through it — and no others — read back through
// ReadCoord in both orientations.
// Nothing is counted until the writer reports it.
func TestWriteRunAgreesWithReadCoord(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, geom := range runGeoms() {
		m, err := New(geom)
		if err != nil {
			t.Fatal(err)
		}
		edge := func(lim int, edges ...int) uint32 {
			v := edges[rng.Intn(len(edges))] + rng.Intn(7) - 3
			return uint32(min(max(v, 0), lim-1))
		}
		rows := []int{0, 256, 512, geom.Rows() - 1}
		cols := []int{0, 8, 16, geom.Columns() - 1}
		model := make(map[addr.Coord]uint64)
		for i := 0; i < 1000; i++ {
			c := addr.Coord{Channel: 1, Rank: 1, Subarray: uint32(rng.Intn(2))}
			c.Row, c.Column = edge(geom.Rows(), rows...), edge(geom.Columns(), cols...)
			o := addr.Orientation(rng.Intn(2))
			step, n := 1+rng.Intn(5), 1+rng.Intn(24)
			r := run(m, c, o, step, n, true)
			checkCut(t, geom, c, o, step, n, r)
			if want := run(m, c, o, step, n, false).Len(); r.Len() != want {
				t.Fatalf("%+v: WriteRun(%+v, %s, %d, %d).Len() = %d, Run's %d", geom, c, o, step, n, r.Len(), want)
			}
			// Every other run is written whole, the others scattered: the
			// words at ascending offsets with gaps, until one past its end.
			src := make([]uint64, r.Len())
			for k := range src {
				src[k] = rng.Uint64()
			}
			if i%2 == 0 {
				r.Put(src, r.Len())
				for k, v := range src {
					model[c.Along(o, k*step)] = v
				}
			} else {
				var idx []int
				for k := 0; k <= r.Len(); k += 1 + rng.Intn(3) {
					idx = append(idx, 40+k)
				}
				want := len(idx)
				if idx[want-1]-40 >= r.Len() {
					want--
				}
				if got := r.Scatter(src, idx); got != want {
					t.Fatalf("%+v: Scatter over %v of a %d-word run stored %d, want %d", geom, idx, r.Len(), got, want)
				}
				for k := 0; k < want; k++ {
					model[c.Along(o, (idx[k]-40)*step)] = src[k]
				}
			}
			if got, want := m.FootprintBytes(), footprint(geom, model); got != want {
				t.Fatalf("%+v: after WriteRun(%+v, %s, %d, %d): footprint %d bytes, want %d", geom, c, o, step, n, got, want)
			}
		}
		if m.Counts() != (Counts{}) {
			t.Fatalf("%+v: writes through a run counted: %+v", geom, m.Counts())
		}
		for c, want := range model {
			if got := m.ReadCoord(c, addr.Column); got != want {
				t.Fatalf("%+v: ReadCoord(%+v, column) = %d, want %d", geom, c, got, want)
			}
		}
		for sub := uint32(0); sub < 2; sub++ {
			for _, row := range near(geom.Rows(), rows...) {
				for col := 0; col < geom.Columns(); col++ {
					c := addr.Coord{Channel: 1, Rank: 1, Subarray: sub, Row: row, Column: uint32(col)}
					for _, o := range []addr.Orientation{addr.Row, addr.Column} {
						if got, want := m.ReadCoord(c, o), model[c]; got != want {
							t.Fatalf("%+v: ReadCoord(%+v, %s) = %d, want %d", geom, c, o, got, want)
						}
					}
				}
			}
		}
	}
	m := newMem(t)
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
