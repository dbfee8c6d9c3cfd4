package engine

import (
	"sync/atomic"

	"rcnvm/internal/addr"
	"rcnvm/internal/funcmem"
	"rcnvm/internal/imdb"
)

// runIndex is where a table's tuple words lie, run by run: word w of a
// chunk's tuples, cut where the placement stops going evenly (imdb's
// ScanRun) and where the memory's page ends (funcmem's Span). It is the
// engine's one locator: the scanner reads and writes every cell through
// it, and its observer takes each traced or fault-checked cell's
// coordinate and orientation from the same run, so a scan finds a run in
// a division and a compare (or a search of its chunk's later runs), not in
// a walk of the placement and a page lookup.
//
// Each chunk's first run of each word is located when the table is made,
// so making the index costs O(chunks × tuple words), whatever the
// capacity. The runs after it (a chunk of more than 512 tuples has some)
// are listed the first time a row among them is asked for. A run's page
// is learned when the run is first written, or when a reader first finds
// the page made (a page holds words of other runs too). Lists and pages
// are published atomically, so readers under the shared lock may fill
// them in at once, and no page is made before it is written.
type runIndex struct {
	mem      *funcmem.Memory
	place    *imdb.NVMPlacement
	words    int
	perChunk int         // tuples in a chunk, the last one's perhaps fewer
	chunks   []chunkWord // chunk c's word w at c*words+w
}

// hostRun is word w of tuples first … first+n-1: where it lies in host
// memory, the orientations its cells are counted and recorded in, and
// their coordinates — tuple first+k's at c.Along(scan, k·step). c and step,
// which only the observer reads, follow the 64 bytes the fill reads.
type hostRun struct {
	first, n    int
	span        funcmem.Span
	scan, fetch addr.Orientation
	page        atomic.Pointer[funcmem.Page] // nil until learned
	c           addr.Coord
	step        int
}

// chunkWord is one word of a chunk's tuples: its first run, and the runs
// after it once listed.
type chunkWord struct {
	hostRun
	rest atomic.Pointer[[]hostRun]
}

func newRunIndex(mem *funcmem.Memory, place *imdb.NVMPlacement) *runIndex {
	_, perChunk := place.ChunkRange(0) // the first chunk is a whole one
	words := place.Table().Schema.TupleWords()
	x := &runIndex{mem: mem, place: place, words: words, perChunk: perChunk,
		chunks: make([]chunkWord, place.Chunks()*words)}
	for i := range x.chunks {
		x.locate(&x.chunks[i].hostRun, i/words*perChunk, i%words)
	}
	return x
}

// find returns the run holding word w of tuple row.
func (x *runIndex) find(row, w int) *hostRun {
	cw := &x.chunks[row/x.perChunk*x.words+w]
	if row < cw.first+cw.n {
		return &cw.hostRun
	}
	rest := cw.rest.Load()
	if rest == nil {
		rest = x.list(cw, w)
	}
	return search(*rest, row)
}

// search returns the last of rs, runs in row order, that starts at or
// before row.
func search(rs []hostRun, row int) *hostRun {
	i, j := 0, len(rs)
	for j-i > 1 {
		if h := int(uint(i+j) >> 1); rs[h].first <= row {
			i = h
		} else {
			j = h
		}
	}
	return &rs[i]
}

// list lists the runs of cw's chunk after its first and publishes them,
// unless another reader did first.
func (x *runIndex) list(cw *chunkWord, w int) *[]hostRun {
	first, n := x.place.ChunkRange(cw.first)
	var rs []hostRun
	for t := cw.first + cw.n; t < first+n; t += rs[len(rs)-1].n {
		rs = append(rs, hostRun{})
		x.locate(&rs[len(rs)-1], t, w)
	}
	if !cw.rest.CompareAndSwap(nil, &rs) {
		return cw.rest.Load()
	}
	return &rs
}

// locate sets r to the run of word w from tuple t on.
func (x *runIndex) locate(r *hostRun, t, w int) {
	c, o, step, n := x.place.ScanRun(t, w)
	r.span = x.mem.Span(c, o, step, n)
	r.first, r.n, r.scan, r.fetch = t, r.span.N, o, x.place.FetchOrient(t)
	r.c, r.step = c, step
}

// seen is the orientation the run's cells are counted and recorded in:
// along the scan, or with fetch as a tuple fetch sees them.
func (r *hostRun) seen(fetch bool) addr.Orientation {
	if fetch {
		return r.fetch
	}
	return r.scan
}

// view is the run from tuple row on, its page made first for a write.
func (r *hostRun) view(mem *funcmem.Memory, row int, write bool) funcmem.Run {
	p := r.page.Load()
	if p == nil {
		p = r.learn(mem, write)
	}
	return r.span.Drop(row - r.first).Run(p)
}

// learn looks the run's page up, or for a write makes it, and keeps it:
// pages stay where they are.
func (r *hostRun) learn(mem *funcmem.Memory, write bool) *funcmem.Page {
	p := mem.Page(r.span.Key, write)
	if p != nil {
		r.page.Store(p)
	}
	return p
}
