package cache

import (
	"fmt"

	"rcnvm/internal/addr"
	"rcnvm/internal/event"
	"rcnvm/internal/stats"
)

// MemRequest is what the hierarchy sends toward the memory controller on an
// LLC miss or a dirty write-back. The hierarchy reuses one scratch
// MemRequest for every call, so the mem callback must copy what it needs
// and not retain the pointer past the call.
type MemRequest struct {
	Coord     addr.Coord
	Orient    addr.Orientation
	Write     bool
	Writeback bool
	Gather    bool
	Done      func(finish int64)
}

// Hierarchy is the 3-level cache model. It is single-threaded and driven by
// the event engine.
type Hierarchy struct {
	cfg  Config
	geom addr.Geometry
	dual bool // device supports dual addressing (enables synonym logic)

	l1, l2 []*level
	l3     *level

	mshr mshrTable
	mem  func(*MemRequest)
	eng  *event.Engine
	st   *stats.Block

	memReq  MemRequest    // scratch request reused across mem calls
	streams []streamState // per-core stride-prefetcher training state

	// l3Lines counts the valid L3 lines of each orientation: while the
	// perpendicular count is zero, installL3's crossing lookups would all
	// miss and are skipped. wrote is set by the first store since the last
	// flush: until then no line is dirty and FlushDirty has nothing to walk.
	l3Lines [2]int
	wrote   bool
}

// streamState is the per-core training state of the stride prefetcher.
type streamState struct {
	valid  bool
	orient addr.Orientation
	last   uint32
	stride int64
}

// New builds a hierarchy for a device with the given geometry. mem is
// invoked (synchronously, inside engine events) to start memory requests;
// the *MemRequest it receives is scratch space valid only for the duration
// of the call. cfg must be valid (Config.Validate); New panics otherwise.
func New(cfg Config, geom addr.Geometry, dual bool, eng *event.Engine, st *stats.Block, mem func(*MemRequest)) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Hierarchy{
		cfg:  cfg,
		geom: geom,
		dual: dual,
		l3:   newLevel(cfg.L3Sets, cfg.L3Ways),
		mem:  mem,
		eng:  eng,
		st:   st,
	}
	h.mshr.init(mshrMinSlots, h.fill)
	for i := 0; i < cfg.Cores; i++ {
		h.l1 = append(h.l1, newLevel(cfg.L1Sets, cfg.L1Ways))
		h.l2 = append(h.l2, newLevel(cfg.L2Sets, cfg.L2Ways))
	}
	h.streams = make([]streamState, cfg.Cores)
	return h
}

// Reset returns the hierarchy to its just-built state, at the cost of what
// the run touched.
func (h *Hierarchy) Reset() {
	for c := range h.l1 {
		h.l1[c].reset()
		h.l2[c].reset()
	}
	h.l3.reset()
	h.mshr.reset()
	clear(h.streams)
	h.l3Lines, h.wrote = [2]int{}, false
}

// Access is one core-issued cache access at 8-byte granularity.
type Access struct {
	Core int
	Key  Key
	// MemCoord is the device coordinate fetched on a miss: the line's base
	// word for normal lines, the pattern's anchor word for gathers.
	MemCoord addr.Coord
	WordIdx  int // 0..7, which word of the line is touched
	Write    bool
	Pin      bool // pin the line on install/touch (group caching)
}

// AccessCall performs the access: fn(ctx, arg, finish) is invoked exactly
// once, via the engine, at the access's completion time. fn should be a
// static function and ctx a long-lived pointer so that issuing a cache
// access does not allocate a closure.
func (h *Hierarchy) AccessCall(a Access, fn event.Callback, ctx any, arg int64) {
	if a.Core < 0 || a.Core >= h.cfg.Cores {
		panic(fmt.Sprintf("cache: core %d out of range", a.Core))
	}
	now := h.eng.Now()
	h.wrote = h.wrote || a.Write

	// L1.
	if ln := h.l1[a.Core].probe(a.Key); ln != nil {
		h.l1[a.Core].touch(ln)
		pen := h.onHit(a, ln)
		h.st.Inc(stats.IdxL1Hits)
		h.eng.AtCall(now+h.cfg.L1LatPs+pen, fn, ctx, arg)
		return
	}
	// L2.
	if ln := h.l2[a.Core].probe(a.Key); ln != nil {
		h.l2[a.Core].touch(ln)
		pen := h.onHit(a, ln)
		h.fillPrivate(h.l1[a.Core], a, ln.crossMask, ln.dirty && a.Write)
		h.st.Inc(stats.IdxL2Hits)
		h.eng.AtCall(now+h.cfg.L2LatPs+pen, fn, ctx, arg)
		return
	}
	// L3.
	if ln := h.l3.probe(a.Key); ln != nil {
		h.l3.touch(ln)
		ln.sharers |= 1 << uint(a.Core)
		pen := h.onHit(a, ln)
		h.fillPrivate(h.l2[a.Core], a, ln.crossMask, false)
		h.fillPrivate(h.l1[a.Core], a, ln.crossMask, false)
		h.st.Inc(stats.IdxL3Hits)
		h.eng.AtCall(now+h.cfg.L3LatPs+pen, fn, ctx, arg)
		h.trainPrefetcher(a)
		return
	}

	// LLC miss. Secondary misses to an in-flight line merge into its MSHR
	// and are not separate memory accesses (Figure 19 counts memory
	// accesses, i.e. primary misses).
	w := waiter{write: a.Write, wordIdx: a.WordIdx, fn: fn, ctx: ctx, arg: arg}
	if e := h.mshr.get(a.Key); e != nil {
		if e.cores == 0 {
			// Demand access caught up with an in-flight prefetch.
			h.st.Inc(stats.IdxPrefetchHits)
		}
		e.waiters = append(e.waiters, w)
		e.cores |= 1 << uint(a.Core)
		e.pin = e.pin || a.Pin
		h.st.Inc(stats.IdxMSHRMerges)
		return
	}
	h.st.Inc(stats.IdxLLCMisses)
	e := h.mshr.add(a.Key)
	e.waiters, e.cores, e.pin = append(e.waiters, w), 1<<uint(a.Core), a.Pin
	h.fetch(e, a.MemCoord)
	h.trainPrefetcher(a)
}

// sendMem hands a request to the memory controller through the reusable
// scratch slot, so the hierarchy does not allocate a MemRequest per miss.
func (h *Hierarchy) sendMem(r MemRequest) {
	h.memReq = r
	h.mem(&h.memReq)
}

// fetch asks memory for e's block, found at c; e.done (fill) completes the
// miss.
func (h *Hierarchy) fetch(e *mshrEntry, c addr.Coord) {
	h.sendMem(MemRequest{Coord: c, Orient: e.key.Orient(), Gather: e.key.Gather(), Done: e.done})
}

// writeBack sends normal line k's dirty data to memory (fire and forget).
func (h *Hierarchy) writeBack(k Key) {
	h.sendMem(MemRequest{Coord: k.Base(h.geom), Orient: k.Orient(), Write: true, Writeback: true})
}

// maxPrefetchStride bounds the strides the prefetcher follows (it gives up
// on irregular patterns). The IMDB runs on 1 GB huge pages (§4.2.2), so
// strides beyond a 4 KB page — e.g. one 8 KB device row per fetched tuple —
// are still predictable physical strides.
const maxPrefetchStride = 16384

// trainPrefetcher implements a per-core stride prefetcher at the L3 level:
// accesses that reach L3 train a (last address, stride) state per core;
// once the stride repeats, the next PrefetchDegree strided lines are
// fetched into L3 with no waiters. This covers both sequential streams
// (stride = one line) and the strided field scans of row stores.
func (h *Hierarchy) trainPrefetcher(a Access) {
	if h.cfg.PrefetchDegree <= 0 || a.Key.Gather() {
		return
	}
	o := a.Key.Orient()
	cur := a.Key.block()*addr.LineBytes + uint32(a.WordIdx*addr.WordBytes)
	st := &h.streams[a.Core]
	stride := int64(cur) - int64(st.last)
	trained := st.valid && st.orient == o && stride == st.stride &&
		stride != 0 && stride >= -maxPrefetchStride && stride <= maxPrefetchStride
	st.valid = true
	st.orient = o
	st.stride = stride
	st.last = cur
	if !trained {
		return
	}
	end := int64(1) << h.geom.AddrBits()
	for k := 1; k <= h.cfg.PrefetchDegree; k++ {
		pa := int64(cur) + int64(k)*stride
		if pa < 0 || pa >= end {
			// Off either end of memory there is no line to fetch: the
			// stream stops, it does not wrap around.
			return
		}
		nk := AddrKey(uint32(pa), o)
		if h.mshr.get(nk) != nil || h.l3.probe(nk) != nil {
			continue
		}
		h.st.Inc(stats.IdxPrefetches)
		h.fetch(h.mshr.add(nk), nk.Base(h.geom))
	}
}

// onHit applies write effects (dirty marking, crossing-duplicate update,
// coherence invalidation) to a hit at any level and returns the extra
// latency incurred.
func (h *Hierarchy) onHit(a Access, ln *line) int64 {
	if a.Pin {
		ln.pinned = true
		h.st.Inc(stats.IdxPinnedLines)
	}
	if !a.Write {
		return 0
	}
	ln.dirty = true
	var pen int64
	// Keep the L3 copy's dirty bit in sync (write-back hierarchy: the L3
	// copy becomes stale but we only track metadata; mark it dirty so the
	// eventual eviction writes back).
	if l3 := h.l3.probe(a.Key); l3 != nil {
		l3.dirty = true
		pen += h.invalidateOtherSharers(a.Core, l3)
	}
	pen += h.crossedWrite(a, ln)
	return pen
}

// invalidateOtherSharers removes the block from every other core's private
// caches, per the directory. Returns the added latency.
func (h *Hierarchy) invalidateOtherSharers(core int, l3 *line) int64 {
	others := l3.sharers &^ (1 << uint(core))
	if others == 0 {
		return 0
	}
	var pen int64
	for c := 0; c < h.cfg.Cores; c++ {
		if others&(1<<uint(c)) == 0 {
			continue
		}
		inval := false
		if ln := h.l1[c].probe(l3.key); ln != nil {
			ln.valid = false
			inval = true
		}
		if ln := h.l2[c].probe(l3.key); ln != nil {
			ln.valid = false
			inval = true
		}
		if inval {
			pen += h.cfg.InvalPs
			h.st.Inc(stats.IdxCoherenceInvals)
		}
		h.st.Inc(stats.IdxCoherenceMsgs)
	}
	l3.sharers = 1 << uint(core)
	h.st.Add(stats.IdxOverheadPs, pen)
	return pen
}

// crossedWrite handles a write to a word whose crossing bit is set: the
// duplicate word in the perpendicular line is updated in place (§4.3.2).
func (h *Hierarchy) crossedWrite(a Access, ln *line) int64 {
	if !h.dual || a.Key.Gather() || ln.crossMask&(1<<uint(a.WordIdx)) == 0 {
		return 0
	}
	crossings := h.geom.Crossings(a.Key.Line(h.geom))
	ck := RCKey(h.geom, crossings[a.WordIdx])
	if cl := h.l3.probe(ck); cl != nil {
		cl.dirty = true
	}
	h.st.Inc(stats.IdxCrossingUpdates)
	h.st.Add(stats.IdxOverheadPs, h.cfg.CrossUpdatePs)
	return h.cfg.CrossUpdatePs
}

// fillPrivate installs a copy of the block into a private level, handling
// the victim: dirty L1 victims merge into L2, dirty L2 victims into L3, and
// an L2 eviction back-invalidates the L1 copy (inclusive hierarchy).
func (h *Hierarchy) fillPrivate(lv *level, a Access, crossMask uint8, dirty bool) {
	v := lv.victim(a.Key)
	if v == nil {
		// Every way pinned: serve without caching.
		h.st.Inc(stats.IdxPinBypasses)
		return
	}
	if v.valid {
		h.evictPrivate(a.Core, lv, v)
	}
	*v = line{key: a.Key, valid: true, dirty: dirty || a.Write, pinned: a.Pin, crossMask: crossMask}
	lv.touch(v)
}

func (h *Hierarchy) evictPrivate(core int, lv *level, v *line) {
	h.st.Inc(stats.IdxEvictions)
	if lv == h.l2[core] {
		// Inclusive: dropping an L2 block removes the L1 copy too.
		if l1 := h.l1[core].probe(v.key); l1 != nil {
			if l1.dirty {
				v.dirty = true
			}
			l1.valid = false
		}
	}
	if v.dirty {
		// Merge dirtiness inward; the write-back to memory happens when
		// the L3 copy is evicted.
		if l3 := h.l3.probe(v.key); l3 != nil {
			l3.dirty = true
		}
		h.st.Inc(stats.IdxDirtyEvictions)
	}
	v.valid = false
}

// fill completes e's LLC miss: install at L3 (with synonym detection), then
// into each waiting core's private caches, then wake the waiters.
func (h *Hierarchy) fill(e *mshrEntry, finish int64) {
	key := e.key
	if key == 0 || h.mshr.remove(key) != e {
		panic("cache: fill without mshr entry")
	}

	pen := int64(0)
	anyWrite := false
	for _, w := range e.waiters {
		if w.write {
			anyWrite = true
		}
	}

	l3ln, synPen := h.installL3(key, e.cores, anyWrite, e.pin)
	pen += synPen

	// Apply write effects of the waiters now that crossing state is known.
	if l3ln != nil && anyWrite {
		for _, w := range e.waiters {
			if !w.write {
				continue
			}
			pen += h.crossedWrite(Access{Key: key, WordIdx: w.wordIdx, Write: true}, l3ln)
		}
	}

	crossMask := uint8(0)
	if l3ln != nil {
		crossMask = l3ln.crossMask
	}
	for c := 0; c < h.cfg.Cores; c++ {
		if e.cores&(1<<uint(c)) == 0 {
			continue
		}
		a := Access{Core: c, Key: key, Write: anyWrite, Pin: e.pin}
		h.fillPrivate(h.l2[c], a, crossMask, false)
		h.fillPrivate(h.l1[c], a, crossMask, false)
	}

	if len(e.waiters) == 0 {
		h.mshr.recycle(e)
		return
	}
	// One event wakes every waiter, in arrival order. One event per waiter
	// would hold consecutive sequence numbers at one time, so nothing could
	// fire between them: this is that schedule.
	h.eng.AtCall(finish+h.cfg.ResponseLatPs+pen, wake, e, 0)
}

// wake is the static completion event of a filled miss; it ends the
// entry's life.
func wake(ctx any, _, now int64) {
	e := ctx.(*mshrEntry)
	for i := range e.waiters {
		w := &e.waiters[i]
		w.fn(w.ctx, w.arg, now)
	}
	e.table.recycle(e)
}

// installL3 places the block in L3, evicting (and possibly writing back) a
// victim, and runs the synonym detection of §4.3.2: every perpendicular
// line crossing the new block is looked up; intersections copy the shared
// word and set crossing bits on both sides.
func (h *Hierarchy) installL3(key Key, sharers uint32, dirty, pin bool) (*line, int64) {
	v := h.l3.victim(key)
	if v == nil {
		h.st.Inc(stats.IdxPinBypasses)
		return nil, 0
	}
	if v.valid {
		h.evictL3(v)
	}
	*v = line{key: key, valid: true, dirty: dirty, pinned: pin, sharers: sharers}
	h.l3.touch(v)
	if pin {
		h.st.Inc(stats.IdxPinnedLines)
	}
	h.l3Lines[key.Orient()]++

	var pen int64
	if h.dual && !key.Gather() && h.l3Lines[key.Orient().Perp()] > 0 {
		l := key.Line(h.geom)
		crossings := h.geom.Crossings(l)
		myIdx := l.CrossWordIndex()
		for i, cl := range crossings {
			other := h.l3.probe(RCKey(h.geom, cl))
			if other == nil {
				continue
			}
			// Copy the intersecting word so duplicates agree, and set the
			// crossing bits on both lines.
			v.crossMask |= 1 << uint(i)
			other.crossMask |= 1 << uint(myIdx)
			h.propagateCrossMask(other)
			pen += h.cfg.SynonymCopyPs
			h.st.Inc(stats.IdxCrossingDetected)
			h.st.Inc(stats.IdxCrossingCopies)
		}
		if pen > 0 {
			h.st.Add(stats.IdxOverheadPs, pen)
		}
	}
	return v, pen
}

// propagateCrossMask pushes an L3 line's updated crossing bits to the
// private copies recorded in the directory, so that later private write
// hits see them.
func (h *Hierarchy) propagateCrossMask(l3 *line) {
	for c := 0; c < h.cfg.Cores; c++ {
		if l3.sharers&(1<<uint(c)) == 0 {
			continue
		}
		if ln := h.l1[c].probe(l3.key); ln != nil {
			ln.crossMask = l3.crossMask
		}
		if ln := h.l2[c].probe(l3.key); ln != nil {
			ln.crossMask = l3.crossMask
		}
	}
}

// evictL3 removes a block from the whole hierarchy: back-invalidates all
// private copies (inclusive), clears the crossing bits of crossed lines,
// and writes dirty data back to memory.
func (h *Hierarchy) evictL3(v *line) {
	h.st.Inc(stats.IdxEvictions)
	dirty := v.dirty
	for c := 0; c < h.cfg.Cores; c++ {
		if v.sharers&(1<<uint(c)) == 0 {
			continue
		}
		if ln := h.l1[c].probe(v.key); ln != nil {
			if ln.dirty {
				dirty = true
			}
			ln.valid = false
		}
		if ln := h.l2[c].probe(v.key); ln != nil {
			if ln.dirty {
				dirty = true
			}
			ln.valid = false
		}
	}

	if h.dual && !v.key.Gather() && v.crossMask != 0 {
		l := v.key.Line(h.geom)
		crossings := h.geom.Crossings(l)
		myIdx := l.CrossWordIndex()
		var pen int64
		for i, cl := range crossings {
			if v.crossMask&(1<<uint(i)) == 0 {
				continue
			}
			if other := h.l3.probe(RCKey(h.geom, cl)); other != nil {
				other.crossMask &^= 1 << uint(myIdx)
				h.propagateCrossMask(other)
			}
			pen += h.cfg.CrossClearPs
			h.st.Inc(stats.IdxCrossingClears)
		}
		h.st.Add(stats.IdxOverheadPs, pen)
	}

	h.l3Lines[v.key.Orient()]--
	if dirty {
		h.st.Inc(stats.IdxDirtyEvictions)
		if !v.key.Gather() {
			h.writeBack(v.key)
		}
	}
	v.valid = false
}

// UnpinAll clears every pin in the hierarchy (the end of a group-caching
// region, §5).
func (h *Hierarchy) UnpinAll() {
	unpin := func(ln *line) { ln.pinned = false }
	for c := 0; c < h.cfg.Cores; c++ {
		h.l1[c].forEach(unpin)
		h.l2[c].forEach(unpin)
	}
	h.l3.forEach(unpin)
}

// OutstandingMisses reports in-flight MSHR entries (diagnostics).
func (h *Hierarchy) OutstandingMisses() int { return h.mshr.n }

// FlushDirty writes every dirty block back to memory (end of run): private
// dirtiness is folded into L3 first, then each dirty L3 block issues a
// write-back. Returns the number of write-backs issued.
func (h *Hierarchy) FlushDirty() int {
	if !h.wrote {
		return 0
	}
	h.wrote = false
	for c := 0; c < h.cfg.Cores; c++ {
		fold := func(ln *line) {
			if !ln.dirty {
				return
			}
			if l3 := h.l3.probe(ln.key); l3 != nil {
				l3.dirty = true
			}
			ln.dirty = false
		}
		h.l1[c].forEach(fold)
		h.l2[c].forEach(fold)
	}
	n := 0
	h.l3.forEach(func(ln *line) {
		if !ln.dirty {
			return
		}
		ln.dirty = false
		if ln.key.Gather() {
			return
		}
		n++
		h.writeBack(ln.key)
	})
	return n
}
