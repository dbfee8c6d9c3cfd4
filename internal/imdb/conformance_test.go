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
//  3. ChunkRange tiles [0, Tuples) without gaps or overlaps.
//  4. FetchOrient adjacency: within one tuple, consecutive words are
//     adjacent along the fetch orientation.
//  5. ScanOrient adjacency (ColMajor chunked placements): consecutive
//     tuples within one column group are adjacent along the scan
//     orientation.
//  6. NVMPlacement's ScanRun agrees with Cell and ScanOrient: for every
//     (t, w) and every k < n (n >= 1), Cell(t+k, w) is the run's first cell
//     moved k·step along the run's orientation, which is ScanOrient(t+k),
//     and the run stays inside t's chunk.
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
		prev = f + n
	}
	if prev != tbl.Tuples {
		t.Fatalf("%s: chunks cover %d of %d", name, prev, tbl.Tuples)
	}

	// 6: scan runs, for every (t, w). A run is checked cell by cell where
	// it starts; from inside it, ScanRun must describe its remainder.
	type run struct {
		c       addr.Coord
		o       addr.Orientation
		step, n int
	}
	moved := func(r run, k int) addr.Coord { return r.c.Along(r.o, k*r.step) }
	nvm, _ := p.(*NVMPlacement)
	for w := 0; nvm != nil && w < L; w++ {
		var cur run
		start := 0
		for tu := 0; tu < tbl.Tuples; tu++ {
			var got run
			got.c, got.o, got.step, got.n = nvm.ScanRun(tu, w)
			if tu < start+cur.n {
				if want := (run{moved(cur, tu-start), cur.o, cur.step, cur.n - (tu - start)}); got != want {
					t.Fatalf("%s: ScanRun(%d,%d) = %+v inside the run %+v from %d", name, tu, w, got, cur, start)
				}
				continue
			}
			cur, start = got, tu
			f, cn := p.ChunkRange(tu)
			if cur.n < 1 || cur.step < 1 || tu+cur.n > f+cn {
				t.Fatalf("%s: ScanRun(%d,%d) = %+v, chunk [%d,+%d)", name, tu, w, cur, f, cn)
			}
			for k := 0; k < cur.n; k++ {
				if c := p.Cell(tu+k, w); c != moved(cur, k) || p.ScanOrient(tu+k) != cur.o {
					t.Fatalf("%s: ScanRun(%d,%d) = %+v, but cell %d is %+v (%s)",
						name, tu, w, cur, k, c, p.ScanOrient(tu+k))
				}
			}
		}
	}

	// 1, 2, 4, 5 over a sampled tuple set (full scan for small tables).
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

func TestPlacementConformance(t *testing.T) {
	nvmGeom := device.NVMGeometry(true)
	dramGeom := device.DRAMGeometry()

	cases := []struct {
		name     string
		build    func(t *testing.T) Placement
		scanAdj  bool
		noFetchA bool // layouts (PAX) whose tuple words are not adjacent
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
