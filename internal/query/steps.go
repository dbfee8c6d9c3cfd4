package query

import (
	"fmt"
	"math"

	"rcnvm/internal/addr"
	"rcnvm/internal/imdb"
	"rcnvm/internal/trace"
)

// fieldSpan is a resolved field: absolute word offset and width.
type fieldSpan struct {
	off, words int
}

func resolveFields(p imdb.Placement, fields []string) ([]fieldSpan, error) {
	spans := make([]fieldSpan, 0, len(fields))
	for _, f := range fields {
		off, w, err := p.Table().Schema.FieldOffset(f)
		if err != nil {
			return nil, err
		}
		spans = append(spans, fieldSpan{off: off, words: w})
	}
	return spans, nil
}

// wordSlots flattens the spans into the list of absolute word offsets.
func wordSlots(spans []fieldSpan) []int {
	var out []int
	for _, s := range spans {
		for k := 0; k < s.words; k++ {
			out = append(out, s.off+k)
		}
	}
	return out
}

// scanCursor follows the word slots of a field scan a cache line at a
// time, so a walk asks the placement for a run only where a slot's line
// changes. A load is emitted only when a slot moves to a new line (earlier
// touches of the same line hit in L1 and need no trace op).
type scanCursor struct {
	p     imdb.Placement
	geom  addr.Geometry
	o     addr.Orientation // the orientation lines are read in
	kind  trace.Kind
	slots []slotLine
}

// slotLine is where one word slot of a scan stands.
type slotLine struct {
	w        int         // the slot's word of the tuple
	line     addr.LineID // the line of its last access
	valid    bool        // line is set
	from, to int         // the tuples whose slot word lies on line
}

func newScanCursor(p imdb.Placement, words []int, o addr.Orientation, kind trace.Kind) *scanCursor {
	cur := &scanCursor{p: p, geom: p.Geom(), o: o, kind: kind, slots: make([]slotLine, len(words))}
	for i, w := range words {
		cur.slots[i].w = w
	}
	return cur
}

// reset forgets every slot's line and reads lines in orientation o with
// accesses of the given kind.
func (c *scanCursor) reset(o addr.Orientation, kind trace.Kind) {
	c.o, c.kind = o, kind
	for i := range c.slots {
		c.slots[i] = slotLine{w: c.slots[i].w}
	}
}

// tuple emits tuple t's slot accesses where a slot's line changes and
// returns how many tuples from t on keep every slot on its line (>= 1).
func (e *Executor) tuple(core int, cur *scanCursor, t int) int {
	m := math.MaxInt
	for si := range cur.slots {
		m = min(m, lower.slot(e, core, cur, si, t))
	}
	return m
}

// walkTuples visits tuples [first, last) in order, charging perTuple
// compute cycles after each: one compute for the tuples that touch no new
// line.
func (e *Executor) walkTuples(core int, cur *scanCursor, first, last int, perTuple int64) {
	for t := first; t < last; {
		m := min(e.tuple(core, cur, t), last-t)
		e.emitCompute(core, int64(m)*perTuple)
		t += m
	}
}

// lowering is how the planner reads a placement's cells into accesses.
// The planner walks runs (runs); the package's tests compare it with the
// per-cell reference it replaced.
type lowering interface {
	// slot emits slot si's access of tuple t if it is on a new line and
	// returns how many tuples from t on have their slot word on that
	// line (>= 1).
	slot(e *Executor, core int, cur *scanCursor, si, t int) int
	// touch emits, for each span of tuple t, one access per line of its
	// words read in orientation o, then perSpan compute cycles.
	touch(e *Executor, core int, p imdb.Placement, t int, spans []fieldSpan, o addr.Orientation, write bool, perSpan int64)
	// order sorts matched tuples by their physicalOrder keys.
	order(keys []orderKey)
}

var lower lowering = runs{}

// runs lowers through the placement's ScanRun and FetchRun.
type runs struct{}

func (runs) slot(e *Executor, core int, cur *scanCursor, si, t int) int {
	sl := &cur.slots[si]
	if t < sl.from || t >= sl.to {
		c, o, step, n := cur.p.ScanRun(t, sl.w)
		if id := cur.geom.LineOf(c, cur.o); !sl.valid || id != sl.line {
			e.emit(core, trace.Op{Kind: cur.kind, Coord: c})
			sl.line, sl.valid = id, true
		}
		sl.from, sl.to = t, t+lineRun(c, o, cur.o, step, n)
	}
	return sl.to - t
}

func (runs) touch(e *Executor, core int, p imdb.Placement, t int, spans []fieldSpan, o addr.Orientation, write bool, perSpan int64) {
	kind := e.accessKind(o, write)
	geom := p.Geom()
	var (
		c, prev     addr.Coord // the run's first word; the last segment's, on the last word's line
		ro          addr.Orientation
		w0, step, n int // the run covers words [w0, w0+n)
	)
	for _, s := range spans {
		for w, end := s.off, s.off+s.words; w < end; {
			if w < w0 || w >= w0+n {
				c, ro, step, n = p.FetchRun(t, w)
				w0 = w
			}
			// Inside a run a segment starts on a new line; where a run
			// starts inside the span, the lines decide.
			cw := c.Along(ro, (w-w0)*step)
			if w == s.off || w != w0 || geom.LineOf(cw, o) != geom.LineOf(prev, o) {
				e.emit(core, trace.Op{Kind: kind, Coord: cw})
			}
			prev = cw
			w += lineRun(cw, ro, o, step, min(w0+n, end)-w)
		}
		e.emitCompute(core, perSpan)
	}
}

// order is an LSD radix sort, a byte per pass, that skips the bytes every
// key shares.
func (runs) order(keys []orderKey) {
	and, or := ^uint64(0), uint64(0)
	for _, k := range keys {
		and &= k.key
		or |= k.key
	}
	src, dst := keys, make([]orderKey, len(keys))
	for shift := 0; shift < 64; shift += 8 {
		if (and^or)>>shift&0xff == 0 {
			continue
		}
		var at [256]int
		for _, k := range src {
			at[byte(k.key>>shift)]++
		}
		pos := 0
		for b, n := range at {
			at[b], pos = pos, pos+n
		}
		for _, k := range src {
			b := byte(k.key >> shift)
			dst[at[b]] = k
			at[b]++
		}
		src, dst = dst, src
	}
	copy(keys, src)
}

// lineRun returns how many of the n words a run visits from c on, step
// words apart along o, lie on c's cache line in orientation lo (>= 1). A
// run across lines of lo leaves c's line at its first step.
func lineRun(c addr.Coord, o, lo addr.Orientation, step, n int) int {
	if o != lo {
		return 1
	}
	pos := int(c.Column)
	if o == addr.Column {
		pos = int(c.Row)
	}
	return min(n, (addr.LineWords-pos%addr.LineWords+step-1)/step)
}

// scanAccess describes how the backend reads one field over many tuples.
type scanAccess struct {
	orient addr.Orientation
	// permuted is true when the unordered RC-NVM scan iterates the
	// row-major layout column-by-column (k-major) instead of tuple order.
	permuted bool
}

func (e *Executor) scanAccessFor(p imdb.Placement, t int, ordered bool) scanAccess {
	if e.arch != RCNVM {
		return scanAccess{orient: addr.Row}
	}
	np, ok := p.(*imdb.NVMPlacement)
	if !ok {
		return scanAccess{orient: addr.Row}
	}
	if ordered || np.Layout() == imdb.ColMajor {
		return scanAccess{orient: p.ScanOrient(t)}
	}
	// Row-major layout, order-free scan: walk physical columns (every
	// tpr-th tuple), which is the perpendicular of the tuple-adjacency
	// direction.
	return scanAccess{orient: p.ScanOrient(t).Perp(), permuted: true}
}

// ScanFields reads (or, with write set, rewrites) the given fields of
// every tuple, charging perTuple compute cycles. When ordered is false the
// backend may reorder accesses for locality (aggregates, predicate scans);
// ordered scans visit tuples in ascending order.
func (e *Executor) ScanFields(p imdb.Placement, fields []string, ordered, write bool, perTuple int64) error {
	spans, err := resolveFields(p, fields)
	if err != nil {
		return err
	}
	for core, regions := range e.partition(p).perCore() {
		for _, r := range regions {
			e.scanRange(core, p, spans, r[0], r[1], ordered, write, perTuple)
		}
	}
	return nil
}

// ScanField is the single-field convenience form of a read scan.
func (e *Executor) ScanField(p imdb.Placement, field string, ordered bool, perTuple int64) error {
	return e.ScanFields(p, []string{field}, ordered, false, perTuple)
}

// ScanTuples visits every tuple in order, touching all of its words in the
// whole-tuple direction — the row-direction micro-benchmark pass of
// Figure 17.
func (e *Executor) ScanTuples(p imdb.Placement, write bool, perTuple int64) error {
	whole := []fieldSpan{{off: 0, words: p.Table().Schema.TupleWords()}}
	for core, regions := range e.partition(p).perCore() {
		for _, r := range regions {
			for t := r[0]; t < r[1]; t++ {
				o := addr.Row
				if e.arch == RCNVM {
					o = p.FetchOrient(t)
				}
				e.touchSpans(core, p, t, whole, o, write, perTuple)
			}
		}
	}
	return nil
}

// ScanColumns visits every word of the table in field-major order (all
// tuples' word 0, then word 1, ...) — the column-direction micro-benchmark
// pass of Figure 17. Order-free within each word column.
func (e *Executor) ScanColumns(p imdb.Placement, write bool, perCell int64) error {
	L := p.Table().Schema.TupleWords()
	pt := e.partition(p).perCore()
	for w := 0; w < L; w++ {
		spans := []fieldSpan{{off: w, words: 1}}
		for core, regions := range pt {
			for _, r := range regions {
				e.scanRange(core, p, spans, r[0], r[1], false, write, perCell)
			}
		}
	}
	return nil
}

func (e *Executor) scanRange(core int, p imdb.Placement, spans []fieldSpan, first, last int, ordered, write bool, perTuple int64) {
	if last <= first {
		return
	}
	// GS-DRAM gather path: one access per 8 consecutive tuples (reads
	// only).
	if len(spans) == 1 && !write {
		if lp, ok := e.gatherEligible(p, spans[0].words); ok {
			e.gatherRange(core, lp, spans[0].off, first, last, perTuple)
			return
		}
	}

	acc := e.scanAccessFor(p, first, ordered)
	cur := newScanCursor(p, wordSlots(spans), acc.orient, e.accessKind(acc.orient, write))

	if acc.permuted {
		// Column-by-column over each chunk of a row-major layout: no run
		// describes every tpr-th tuple, so this walk goes tuple by tuple.
		L := p.Table().Schema.TupleWords()
		tpr := p.Geom().Columns() / L
		for t := first; t < last; {
			cf, cn := p.ChunkRange(t)
			lo, hi := max(first, cf), min(last, cf+cn)
			cur.reset(acc.orient, cur.kind)
			for k := 0; k < tpr; k++ {
				// Tuples with (t-cf) % tpr == k share a physical column;
				// walk that column top to bottom.
				start := cf + k
				if start < lo {
					start += (lo - start + tpr - 1) / tpr * tpr
				}
				for base := start; base < hi; base += tpr {
					e.tuple(core, cur, base)
					e.emitCompute(core, perTuple)
				}
			}
			t = cf + cn
		}
		return
	}

	if !ordered && e.arch == RCNVM && len(cur.slots) > 1 && acc.orient == addr.Column {
		// Word-major reordering: finish one column before the next to
		// avoid column-buffer thrash on wide fields (§5 rationale).
		for t := first; t < last; {
			cf, cn := p.ChunkRange(t)
			lo, hi := max(first, cf), min(last, cf+cn)
			for si := range cur.slots {
				for tu := lo; tu < hi; {
					m := min(lower.slot(e, core, cur, si, tu), hi-tu)
					if si == 0 {
						e.emitCompute(core, int64(m)*perTuple)
					}
					tu += m
				}
			}
			t = cf + cn
		}
		return
	}

	e.walkTuples(core, cur, first, last, perTuple)
}

// gatherRange lowers a single-word scan to GS-DRAM gathers: each access
// assembles the field of 8 consecutive tuples from the open row.
func (e *Executor) gatherRange(core int, lp *imdb.LinearPlacement, off, first, last int, perTuple int64) {
	for g := first / addr.LineWords; g*addr.LineWords < last; g++ {
		t0 := g * addr.LineWords
		if t0 < first {
			t0 = first
		}
		hi := min(last, (g+1)*addr.LineWords)
		e.gatherSeq++
		e.emit(core, trace.GatherOp(lp.Cell(g*addr.LineWords, off), e.gatherSeq))
		e.emitCompute(core, perTuple*int64(hi-t0))
	}
}

// ScanMatches reads one field of the listed (sorted, ascending) tuples —
// the aggregate-over-matches pattern (SUM/AVG ... WHERE). Order-free.
func (e *Executor) ScanMatches(p imdb.Placement, field string, matches []int, perTuple int64) error {
	spans, err := resolveFields(p, []string{field})
	if err != nil {
		return err
	}
	parts := e.partition(p).splitMatches(matches)
	for core, ms := range parts {
		if len(ms) == 0 {
			continue
		}
		if spans[0].words == 1 {
			if lp, ok := e.gatherEligible(p, 1); ok {
				e.gatherMatches(core, lp, spans[0].off, ms, perTuple)
				continue
			}
		}
		o := e.scanAccessFor(p, ms[0], false).orient
		cur := newScanCursor(p, wordSlots(spans), o, e.loadKind(o))
		for _, t := range ms {
			e.tuple(core, cur, t)
			e.emitCompute(core, perTuple)
		}
	}
	return nil
}

func (e *Executor) gatherMatches(core int, lp *imdb.LinearPlacement, off int, matches []int, perTuple int64) {
	lastGroup := -1
	for _, t := range matches {
		g := t / addr.LineWords
		if g != lastGroup {
			e.gatherSeq++
			e.emit(core, trace.GatherOp(lp.Cell(g*addr.LineWords, off), e.gatherSeq))
			lastGroup = g
		}
		e.emitCompute(core, perTuple)
	}
}

// FetchTuples reads the given fields of the listed tuples in the
// whole-tuple (row) direction — the Figure 12 "select the row" step. On
// RC-NVM the matches are visited in physical-buffer order (SELECT without
// ORDER BY is order-free), so dense fetches reuse each open row across the
// column groups sharing it instead of reopening a row per tuple.
func (e *Executor) FetchTuples(p imdb.Placement, matches []int, fields []string, perField int64) error {
	spans, err := resolveFields(p, fields)
	if err != nil {
		return err
	}
	totalWords := 0
	for _, s := range spans {
		totalWords += s.words
	}
	L := p.Table().Schema.TupleWords()
	dense := 2*len(matches) >= p.Table().Tuples && 2*totalWords >= L
	parts := e.partition(p).splitMatches(matches)
	for core, ms := range parts {
		if e.arch == RCNVM {
			if dense {
				// Dense fetches of most of the tuple read each chunk as a
				// sequential physical sweep (one load per touched line, in
				// address order): the pattern a storage engine's block
				// reader produces, and the one the row buffer and the
				// prefetcher like. SELECT without ORDER BY is order-free.
				e.denseFetch(core, p, ms, spans, perField)
				continue
			}
			ms = physicalOrder(p, ms)
		}
		for _, t := range ms {
			o := addr.Row
			if e.arch == RCNVM {
				o = p.FetchOrient(t)
			}
			e.touchSpans(core, p, t, spans, o, false, perField)
		}
	}
	return nil
}

// denseFetch reads the fields of a dense match set chunk by chunk as an
// order-free column sweep (the word-major scan path): when most tuples are
// wanted, scanning whole field columns costs the same traffic as row
// fetches but runs at streaming buffer-hit rates. The few non-matching
// tuples are simply overfetched.
func (e *Executor) denseFetch(core int, p imdb.Placement, ms []int, spans []fieldSpan, perField int64) {
	perTuple := perField * int64(len(spans))
	for i := 0; i < len(ms); {
		cf, cn := p.ChunkRange(ms[i])
		j := i
		for j < len(ms) && ms[j] < cf+cn {
			j++
		}
		i = j
		e.scanRange(core, p, spans, cf, cf+cn, false, false, perTuple)
	}
}

// UpdateTuples writes the given fields of the listed tuples. Single-word
// single-field updates use the field-scan orientation (column stores on
// RC-NVM); multi-field updates use the whole-tuple direction.
func (e *Executor) UpdateTuples(p imdb.Placement, matches []int, fields []string, perTuple int64) error {
	spans, err := resolveFields(p, fields)
	if err != nil {
		return err
	}
	parts := e.partition(p).splitMatches(matches)
	for core, ms := range parts {
		for _, t := range ms {
			var o addr.Orientation = addr.Row
			if e.arch == RCNVM {
				if len(spans) == 1 && spans[0].words == 1 {
					o = e.scanAccessFor(p, t, false).orient
				} else {
					o = p.FetchOrient(t)
				}
			}
			e.touchSpans(core, p, t, spans, o, true, 0)
			e.emitCompute(core, perTuple)
		}
	}
	return nil
}

// GroupRead reads the given fields of every tuple in strict tuple order —
// the wide-field / multi-column ordered pattern of §5. On RC-NVM with
// groupLines > 0 it applies group caching: per block of groupLines cache
// lines per column, pinned column prefetches followed by in-cache
// consumption, then unpinning.
func (e *Executor) GroupRead(p imdb.Placement, fields []string, groupLines int, perTuple int64) error {
	spans, err := resolveFields(p, fields)
	if err != nil {
		return err
	}
	slots := wordSlots(spans)
	perCore := e.partition(p).perCore()

	// GroupRead consumption is strictly ordered: the consuming operator
	// processes tuples one at a time, so its memory accesses cannot be
	// freely overlapped (the premise of §5).
	e.orderedEmit = true
	defer func() { e.orderedEmit = false }()

	if e.arch != RCNVM || groupLines <= 0 {
		// Plain ordered scan (tuple order, scan orientation).
		for core, regions := range perCore {
			for _, r := range regions {
				e.scanRange(core, p, spans, r[0], r[1], true, false, perTuple)
			}
		}
		return nil
	}

	cur := newScanCursor(p, slots, addr.Row, trace.Load)
	for core, regions := range perCore {
		for _, r := range regions {
			first, last := r[0], r[1]
			for t := first; t < last; {
				cf, cn := p.ChunkRange(t)
				lo, hi := max(first, cf), min(last, cf+cn)
				block := groupLines * addr.LineWords
				for b := lo; b < hi; b += block {
					bh := min(hi, b+block)
					o := p.ScanOrient(b)
					// Prefetch and pin, column-major: one line per 8
					// tuples per word column. The prefetches are
					// non-blocking; consumption runs right behind them
					// (merging into in-flight fills when it catches up),
					// so memory sees the buffer-friendly column-major
					// order while the query consumes in tuple order.
					for _, w := range slots {
						for tu := b; tu < bh; tu += addr.LineWords {
							c := p.Cell(tu, w)
							e.emit(core, trace.Op{Kind: e.loadKind(o), Coord: c, Pin: true})
						}
					}
					// Consume in strict tuple order from the pinned lines.
					cur.reset(o, e.loadKind(o))
					e.walkTuples(core, cur, b, bh, perTuple)
					e.emit(core, trace.UnpinAllOp())
				}
				t = cf + cn
			}
		}
	}
	return nil
}

// HashOps models hash-table traffic for joins: each listed slot of the
// hash-table placement is touched (read or write) with perOp compute.
func (e *Executor) HashOps(p imdb.Placement, slots []int, write bool, perOp int64) error {
	whole := []fieldSpan{{off: 0, words: p.Table().Schema.TupleWords()}}
	parts := trace.Split(len(slots), e.cores)
	for core, r := range parts {
		for i := r[0]; i < r[1]; i++ {
			s := slots[i]
			if s < 0 || s >= p.Table().Tuples {
				return fmt.Errorf("query: hash slot %d out of range", s)
			}
			e.touchSpans(core, p, s, whole, addr.Row, write, perOp)
		}
	}
	return nil
}

// physicalOrder re-sorts matched tuples by their physical buffer location
// (chunk, then the buffer index of the tuple's first word in its fetch
// orientation), so that tuples sharing an open row or column buffer are
// visited back to back. The keys are unique, so the order is too. A
// chunk's tuples share their fetch orientation, so a key costs the one
// Cell lookup while consecutive matches stay in one chunk.
func physicalOrder(p imdb.Placement, matches []int) []int {
	if len(matches) < 2 {
		return matches
	}
	ks := make([]orderKey, len(matches))
	first, n, o := 0, 0, addr.Row
	for i, t := range matches {
		if t < first || t >= first+n {
			first, n = p.ChunkRange(t)
			o = p.FetchOrient(t)
		}
		c := p.Cell(t, 0)
		major, minor := c.Row, c.Column
		if o == addr.Column {
			major, minor = c.Column, c.Row
		}
		// Chunk-major so each chunk's bank is drained before the next.
		ks[i] = orderKey{key: uint64(first)<<40 | uint64(major)<<20 | uint64(minor), t: t}
	}
	lower.order(ks)
	out := make([]int, len(ks))
	for i, k := range ks {
		out[i] = k.t
	}
	return out
}

// orderKey is a matched tuple and its physical-order key.
type orderKey struct {
	key uint64
	t   int
}
