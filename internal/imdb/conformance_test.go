package imdb

import (
	"fmt"
	"testing"

	"rcnvm/internal/addr"
	"rcnvm/internal/device"
)

// conformance runs the Placement contract against any implementation:
//
//  1. Cell is injective over (tuple, word).
//  2. Every cell lies within the geometry bounds.
//  3. ChunkRange tiles [0, Tuples) without gaps or overlaps, and a
//     chunk's tuples share their FetchOrient.
//  4. FetchOrient adjacency: within one tuple, consecutive words are
//     adjacent along the fetch orientation.
//  5. ScanOrient adjacency (ColMajor chunked placements): consecutive
//     tuples within one column group are adjacent along the scan
//     orientation.
//  6. ScanRun and FetchRun agree with Cell: for every (t, w) and every
//     k < n (n >= 1, step >= 1), Cell(t+k, w) (ScanRun) or Cell(t, w+k)
//     (FetchRun) is the run's first cell moved k·step along the run's
//     orientation, which is ScanOrient(t+k) or FetchOrient(t); a scan run
//     stays inside t's chunk, a fetch run inside the tuple; and from
//     inside a run, the run call describes its remainder.
func conformance(t *testing.T, name string, p Placement, checkScanAdj, checkFetchAdj bool) {
	t.Helper()
	tbl := p.Table()
	L := tbl.Schema.TupleWords()
	geom := p.Geom()

	// 3: chunk tiling.
	prev := 0
	for prev < tbl.Tuples {
		f, n := p.ChunkRange(prev)
		if f != prev || n <= 0 {
			t.Fatalf("%s: chunk at %d = [%d,+%d)", name, prev, f, n)
		}
		for tu := f + 1; tu < f+n; tu++ {
			if o := p.FetchOrient(tu); o != p.FetchOrient(f) {
				t.Fatalf("%s: tuple %d fetches along %v, its chunk's first %d along %v", name, tu, o, f, p.FetchOrient(f))
			}
		}
		prev = f + n
	}
	if prev != tbl.Tuples {
		t.Fatalf("%s: chunks cover %d of %d", name, prev, tbl.Tuples)
	}

	// 6: scan runs, for every (t, w). A run is checked cell by cell where
	// it starts; from inside it, ScanRun must describe its remainder.
	for w := 0; w < L; w++ {
		var cur run
		start := 0
		for tu := 0; tu < tbl.Tuples; tu++ {
			if tu < start+cur.n {
				if got, want := scanRun(p, tu, w), cur.from(tu-start); got != want {
					t.Fatalf("%s: ScanRun(%d,%d) = %+v inside the run %+v from %d", name, tu, w, got, cur, start)
				}
				continue
			}
			if err := checkScanRun(p, tu, w); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cur, start = scanRun(p, tu, w), tu
		}
	}
	// 1, 2, 4, 5 and 6's fetch runs over a sampled tuple set (full scan
	// for small tables).
	step := 1
	if tbl.Tuples > 4096 {
		step = tbl.Tuples / 4096
	}
	seen := make(map[addr.Coord]string)
	for tu := 0; tu < tbl.Tuples; tu += step {
		for w := 0; w < L; w++ {
			c := p.Cell(tu, w)
			if int(c.Row) >= geom.Rows() || int(c.Column) >= geom.Columns() ||
				int(c.Channel) >= geom.Channels() || int(c.Rank) >= geom.Ranks() ||
				int(c.Bank) >= geom.Banks() || int(c.Subarray) >= geom.Subarrays() {
				t.Fatalf("%s: cell (%d,%d) out of bounds: %+v", name, tu, w, c)
			}
			key := fmt.Sprintf("%d/%d", tu, w)
			if prevKey, ok := seen[c]; ok {
				t.Fatalf("%s: cells %s and %s collide at %+v", name, prevKey, key, c)
			}
			seen[c] = key
		}
		// 6: fetch runs, every word of the tuple.
		var cur run
		start := 0
		for w := 0; w < L; w++ {
			if w < start+cur.n {
				if got, want := fetchRun(p, tu, w), cur.from(w-start); got != want {
					t.Fatalf("%s: FetchRun(%d,%d) = %+v inside the run %+v from %d", name, tu, w, got, cur, start)
				}
				continue
			}
			if err := checkFetchRun(p, tu, w); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cur, start = fetchRun(p, tu, w), w
		}
		// 4: fetch adjacency (PAX scatters tuple words, so it is exempt).
		if checkFetchAdj && L >= 2 {
			a, b := p.Cell(tu, 0), p.Cell(tu, 1)
			if p.FetchOrient(tu) == addr.Row {
				if a.Row != b.Row || b.Column != a.Column+1 {
					t.Fatalf("%s: tuple %d words not row-adjacent: %+v %+v", name, tu, a, b)
				}
			} else {
				if a.Column != b.Column || b.Row != a.Row+1 {
					t.Fatalf("%s: tuple %d words not column-adjacent: %+v %+v", name, tu, a, b)
				}
			}
		}
		// 5: scan adjacency for column-friendly layouts.
		if checkScanAdj && tu+1 < tbl.Tuples {
			f, n := p.ChunkRange(tu)
			if tu+1 < f+n {
				a, b := p.Cell(tu, 0), p.Cell(tu+1, 0)
				sameGroup := (p.ScanOrient(tu) == addr.Column && a.Column == b.Column && b.Row == a.Row+1) ||
					(p.ScanOrient(tu) == addr.Row && a.Row == b.Row && b.Column == a.Column+1)
				groupBoundary := a.Subarray != b.Subarray || (b.Row != a.Row+1 && b.Column != a.Column+1)
				if !sameGroup && !groupBoundary {
					t.Fatalf("%s: tuples %d,%d neither scan-adjacent nor at a group boundary: %+v %+v",
						name, tu, tu+1, a, b)
				}
			}
		}
	}
}

// run is one answer of ScanRun or FetchRun.
type run struct {
	c       addr.Coord
	o       addr.Orientation
	step, n int
}

func scanRun(p Placement, t, w int) (r run) {
	r.c, r.o, r.step, r.n = p.ScanRun(t, w)
	return r
}

func fetchRun(p Placement, t, w int) (r run) {
	r.c, r.o, r.step, r.n = p.FetchRun(t, w)
	return r
}

// at is the run's k-th cell.
func (r run) at(k int) addr.Coord { return r.c.Along(r.o, k*r.step) }

// from is what the run is from its k-th cell on.
func (r run) from(k int) run { return run{r.at(k), r.o, r.step, r.n - k} }

// checkScanRun checks ScanRun(t, w) against Cell and ScanOrient, cell by
// cell, and against t's chunk.
func checkScanRun(p Placement, t, w int) error {
	r := scanRun(p, t, w)
	f, cn := p.ChunkRange(t)
	if r.n < 1 || r.step < 1 || t+r.n > f+cn {
		return fmt.Errorf("ScanRun(%d,%d) = %+v, chunk [%d,+%d)", t, w, r, f, cn)
	}
	for k := 0; k < r.n; k++ {
		if c := p.Cell(t+k, w); c != r.at(k) || p.ScanOrient(t+k) != r.o {
			return fmt.Errorf("ScanRun(%d,%d) = %+v, but cell %d is %+v (%s)", t, w, r, k, c, p.ScanOrient(t+k))
		}
	}
	return nil
}

// checkFetchRun checks FetchRun(t, w) against Cell and FetchOrient, cell
// by cell, and against the tuple's width.
func checkFetchRun(p Placement, t, w int) error {
	r := fetchRun(p, t, w)
	if r.n < 1 || r.step < 1 || w+r.n > p.Table().Schema.TupleWords() {
		return fmt.Errorf("FetchRun(%d,%d) = %+v", t, w, r)
	}
	for k := 0; k < r.n; k++ {
		if c := p.Cell(t, w+k); c != r.at(k) || p.FetchOrient(t) != r.o {
			return fmt.Errorf("FetchRun(%d,%d) = %+v, but word %d is %+v (%s)", t, w, r, w+k, c, p.FetchOrient(t))
		}
	}
	return nil
}

func mustPlace(t *testing.T, a *NVMAllocator, tuples int, layout Layout) *NVMPlacement {
	t.Helper()
	p, err := a.Place(NewTable(Uniform("t", 16), tuples), layout)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mustRotated guards a case's construction: the packer did rotate a chunk.
func mustRotated(t *testing.T, p *NVMPlacement) *NVMPlacement {
	t.Helper()
	for _, ck := range p.chunks {
		if ck.rotated {
			return p
		}
	}
	t.Fatal("no chunk was rotated")
	return nil
}

func mustPlaceGrid(t *testing.T, a *GridAllocator, tuples int, layout Layout) *GridPlacement {
	t.Helper()
	p, err := a.Place(NewTable(Uniform("t", 16), tuples), layout)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustRotatedGrid(t *testing.T, p *GridPlacement) *GridPlacement {
	t.Helper()
	mustRotated(t, p.inner)
	return p
}

func TestPlacementConformance(t *testing.T) {
	nvmGeom := device.NVMGeometry(true)
	nvmRowGeom := device.NVMGeometry(false)
	dramGeom := device.DRAMGeometry()

	cases := []struct {
		name     string
		build    func(t *testing.T) Placement
		scanAdj  bool
		noFetchA bool // layouts (PAX, rotated grids) whose tuple words are not adjacent
	}{
		{"linear", func(t *testing.T) Placement {
			p, err := NewLinearAllocator(dramGeom).Place(NewTable(Uniform("t", 20), 5000))
			if err != nil {
				t.Fatal(err)
			}
			return p
		}, false, false},
		{"nvm-colmajor-packed", func(t *testing.T) Placement {
			p, err := NewNVMAllocator(nvmGeom).Place(NewTable(Uniform("t", 16), 100_000), ColMajor)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}, true, false},
		{"nvm-colmajor-spread", func(t *testing.T) Placement {
			p, err := NewNVMAllocatorSpread(nvmGeom, 32).Place(NewTable(Uniform("t", 20), 100_000), ColMajor)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}, true, false},
		{"nvm-rowmajor", func(t *testing.T) Placement {
			p, err := NewNVMAllocator(nvmGeom).Place(NewTable(Uniform("t", 16), 100_000), RowMajor)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}, false, false},
		{"nvm-wide-schema", func(t *testing.T) Placement {
			schema := Schema{Name: "c", Fields: []Field{
				{Name: "a", Words: 1}, {Name: "w", Words: 4}, {Name: "b", Words: 3},
			}}
			p, err := NewNVMAllocatorSpread(nvmGeom, 8).Place(NewTable(schema, 20_000), ColMajor)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}, true, false},
		{"grid-colmajor", func(t *testing.T) Placement {
			p, err := NewGridAllocator(dramGeom).Place(NewTable(Uniform("t", 16), 70_000), ColMajor)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}, false, false},
		{"grid-rowmajor", func(t *testing.T) Placement {
			p, err := NewGridAllocator(dramGeom).Place(NewTable(Uniform("t", 16), 70_000), RowMajor)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}, false, false},
		{"nvm-pax", func(t *testing.T) Placement {
			p, err := NewNVMAllocatorSpread(nvmGeom, 16).Place(NewTable(Uniform("t", 16), 60_000), PAX)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}, false, true},
		{"nvm-colmajor-rotated", func(t *testing.T) Placement {
			// Two tables leave the bin a 1024-wide, 124-high remainder: a
			// 3-group ColMajor chunk fits it only lying down.
			a := NewNVMAllocator(nvmGeom)
			mustPlace(t, a, 900, ColMajor)
			mustPlace(t, a, 64*900, RowMajor)
			return mustRotated(t, mustPlace(t, a, 3000, ColMajor))
		}, true, false},
		{"nvm-rowmajor-rotated", func(t *testing.T) Placement {
			// One column group leaves a full-height remainder: the last,
			// partial chunk of a row-major table fits it only standing up.
			a := NewNVMAllocator(nvmGeom)
			mustPlace(t, a, 1024, ColMajor)
			return mustRotated(t, mustPlace(t, a, 70_000, RowMajor))
		}, false, false},
		{"nvm-pax-rotated", func(t *testing.T) Placement {
			a := NewNVMAllocator(nvmGeom)
			mustPlace(t, a, 1024, ColMajor)
			return mustRotated(t, mustPlace(t, a, 70_000, PAX))
		}, false, true},
		{"grid-colmajor-rotated", func(t *testing.T) Placement {
			a := NewGridAllocator(dramGeom)
			mustPlaceGrid(t, a, 900, ColMajor)
			mustPlaceGrid(t, a, 64*900, RowMajor)
			return mustRotatedGrid(t, mustPlaceGrid(t, a, 3000, ColMajor))
		}, false, true},
		{"grid-rowmajor-rotated", func(t *testing.T) Placement {
			a := NewGridAllocator(dramGeom)
			mustPlaceGrid(t, a, 1024, ColMajor)
			return mustRotatedGrid(t, mustPlaceGrid(t, a, 70_000, RowMajor))
		}, false, true},
		{"grid-pax-rotated", func(t *testing.T) Placement {
			a := NewGridAllocator(nvmRowGeom)
			mustPlaceGrid(t, a, 1024, ColMajor)
			return mustRotatedGrid(t, mustPlaceGrid(t, a, 70_000, PAX))
		}, false, true},
		{"linear-nvm", func(t *testing.T) Placement {
			p, err := NewLinearAllocator(nvmRowGeom).Place(NewTable(Uniform("t", 20), 5000))
			if err != nil {
				t.Fatal(err)
			}
			return p
		}, false, false},
		{"grid-pax", func(t *testing.T) Placement {
			p, err := NewGridAllocator(dramGeom).Place(NewTable(Uniform("t", 16), 60_000), PAX)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}, false, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			conformance(t, tc.name, tc.build(t), tc.scanAdj, !tc.noFetchA)
		})
	}
}

// FuzzPlacementRuns checks ScanRun and FetchRun at a fuzzed (t, w) of a
// fuzzed placement, cell by cell (item 6 of conformance). kind picks the
// placement: linear or a grid on either NVM geometry or DRAM, or the NVM
// layout packed or spread over chunks on either NVM geometry. A first table of pre tuples, placed before the one
// checked, lets the packer rotate its chunks.
func FuzzPlacementRuns(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint16(5000), uint16(0), uint8(16), uint32(4321), uint8(3))
	f.Add(uint8(1), uint8(0), uint16(3000), uint16(900), uint8(16), uint32(2000), uint8(7))
	f.Add(uint8(2), uint8(2), uint16(60000), uint16(0), uint8(20), uint32(59999), uint8(19))
	f.Add(uint8(3), uint8(1), uint16(3000), uint16(900), uint8(16), uint32(1500), uint8(0))
	f.Add(uint8(4), uint8(2), uint16(65000), uint16(1024), uint8(16), uint32(64999), uint8(15))
	f.Fuzz(func(t *testing.T, kind, layout uint8, tuples, pre uint16, words uint8, tu uint32, w uint8) {
		L := 1 + int(words)%24
		n := 1 + int(tuples)
		lay := Layout(layout % 3)
		tbl := NewTable(Uniform("t", L), n)
		first := NewTable(Uniform("pre", 16), 1+int(pre))
		geoms := []addr.Geometry{device.NVMGeometry(true), device.NVMGeometry(false), device.DRAMGeometry()}
		geom := geoms[int(kind/5)%len(geoms)]
		var p Placement
		var err error
		switch kind % 5 {
		case 0:
			p, err = NewLinearAllocator(geom).Place(tbl)
		case 1, 2:
			nvm := geoms[int(kind/5)%2]
			a := NewNVMAllocator(nvm)
			if kind%5 == 2 {
				a = NewNVMAllocatorSpread(nvm, 1+int(pre)%32)
			} else if _, err := a.Place(first, lay); err != nil {
				t.Skip(err)
			}
			p, err = a.Place(tbl, lay)
		default:
			a := NewGridAllocator(geom)
			if kind%5 == 4 {
				if _, err := a.Place(first, lay); err != nil {
					t.Skip(err)
				}
			}
			p, err = a.Place(tbl, lay)
		}
		if err != nil {
			t.Skip(err)
		}
		ti, wi := int(tu%uint32(n)), int(w)%L
		if err := checkScanRun(p, ti, wi); err != nil {
			t.Fatal(err)
		}
		if err := checkFetchRun(p, ti, wi); err != nil {
			t.Fatal(err)
		}
	})
}
