// Package tier implements a small DRAM cache in front of the NVM device:
// the hybrid-memory design of Yoon et al. ("A Memory Controller with Row
// Buffer Locality Awareness for Hybrid Memory Systems") applied to the
// RC-NVM system. The unit of migration is one device row (the row buffer's
// content). Rows that repeatedly MISS the row buffer — the accesses that
// pay the NVM activation latency over and over — are promoted into DRAM;
// streaming rows with high buffer locality stay in NVM, where a buffer hit
// is already as fast as DRAM (Meza et al., "Evaluating Row Buffer Locality
// in Future Non-Volatile Main Memories", supplies the cost model: NVM
// array reads are the expensive part, buffer hits are not).
//
// The cache is driven synchronously by the memory controller on the
// single-threaded event engine, so every decision is a pure function of
// the access sequence: runs are deterministic, and parallel sweeps stay
// byte-identical to sequential ones. A nil *Cache is the disabled path —
// call sites guard with one pointer comparison and the simulated timing is
// byte-identical to a build without the tier.
//
// Migration state machine (per NVM row):
//
//	untracked --row-buffer miss--> tracked (decayed miss counter)
//	tracked   --K-th miss-------> in-flight (copy scheduled on the engine)
//	in-flight --MigratePs event--> resident (DRAM serves row accesses)
//	resident  --clock eviction / column conflict--> demoted
//	                              (dirty rows write back through memctrl)
//
// Column-orientation coherence: a column activation senses one word from
// every row of its subarray, so column traffic and DRAM-resident rows can
// diverge. A column READ forces dirty resident rows of the subarray back
// to NVM first (clean copies cannot diverge and stay resident). A column
// WRITE needs no demotion: the tier sits in the controller's data path,
// so the written words are applied to the intersecting DRAM copies as
// well ("patched"), keeping both sides current — rows stay resident, and
// column-heavy subarrays remain promotable (their rows suffer guaranteed
// orientation-switch misses, which makes DRAM placement more valuable
// there, not less).
package tier

import (
	"rcnvm/internal/addr"
	"rcnvm/internal/event"
	"rcnvm/internal/stats"
)

// Config sizes the DRAM tier and its migration policy. The zero value
// disables the tier entirely (sim builds no Cache; the device path is
// byte-identical to a build without the tier).
type Config struct {
	// Rows is the DRAM capacity in device rows (promotion granularity).
	// 0 disables the tier.
	Rows int
	// PromoteAfter is K: the number of row-buffer misses a row must
	// accumulate (under decay) before it is promoted. Default 2.
	PromoteAfter int
	// HitPs is the DRAM access latency of a tier hit, replacing the whole
	// NVM bank access (the controller's bus arbitration still applies on
	// top). Default 15_000 ps — DDR3-class access time.
	HitPs int64
	// MigratePs is the promotion copy latency: the row becomes
	// DRAM-resident this long after the triggering NVM activation has the
	// row in the buffer. Default 25_000 ps.
	MigratePs int64
	// DecayPs is the miss-counter decay interval: every elapsed interval
	// halves a row's accumulated miss count (counters are also capped at
	// missCap). <= 0 defaults to 10 ms of simulated time.
	DecayPs int64
}

// Enabled reports whether the configuration calls for a tier.
func (c Config) Enabled() bool { return c.Rows > 0 }

// Defaults for the policy knobs; see Config.
const (
	DefaultPromoteAfter = 2
	DefaultHitPs        = 15_000
	DefaultMigratePs    = 25_000
	// DefaultDecayPs is 10 ms: the RBLA-style reset quantum. Workload
	// phases (an OLAP scan pass, an OLTP transaction batch) span
	// milliseconds of simulated time, and a row's misses must survive
	// from one pass to the next to reach the promotion threshold.
	DefaultDecayPs = 10_000_000_000
)

func (c Config) withDefaults() Config {
	if c.PromoteAfter <= 0 {
		c.PromoteAfter = DefaultPromoteAfter
	}
	if c.HitPs <= 0 {
		c.HitPs = DefaultHitPs
	}
	if c.MigratePs <= 0 {
		c.MigratePs = DefaultMigratePs
	}
	if c.DecayPs <= 0 {
		c.DecayPs = DefaultDecayPs
	}
	return c
}

// missCap bounds one row's accumulated miss count; with decay it makes
// the counter a bounded recency-weighted miss estimate, not an
// all-history sum.
const missCap = 15

// trackedPerRow bounds the miss-counter table relative to the DRAM
// capacity: tracking far more rows than could ever be promoted is wasted
// state, and a bounded table keeps the tier's memory footprint
// proportional to its configured size.
const trackedPerRow = 8

// entry is one DRAM-resident (or promotion-in-flight) row.
type entry struct {
	key     uint64
	base    addr.Coord // column-0 coordinate of the row (write-back target)
	slot    int        // index into Cache.slots
	readyAt int64      // promotion completes at this engine time
	ready   bool       // resident (false: copy still in flight)
	dirty   bool
	ref     bool // clock reference bit
}

// missState is one tracked row's decayed miss counter.
type missState struct {
	count uint8
	epoch int64 // DecayPs interval the count was last normalized to
}

// Writeback is one demotion the memory controller must issue through the
// normal device write path (so NVM wear accounting and SECDED apply to
// the data once it is NVM-resident again).
type Writeback struct {
	Coord addr.Coord
	Dirty bool
}

// Cache is the DRAM tier. It is single-threaded, driven by the memory
// controllers of one device under the shared event engine.
type Cache struct {
	cfg  Config
	geom addr.Geometry
	eng  *event.Engine
	st   *stats.Block

	resident map[uint64]*entry
	slots    []*entry // fixed DRAM capacity; nil = free
	free     []int    // freed slot indexes (LIFO, deterministic)
	hand     int      // clock hand over slots

	misses map[uint64]missState

	// bySub indexes resident entries by subarray for column-orientation
	// coherence.
	bySub map[uint64]map[uint64]*entry

	// pending collects demotion write-backs for the controller to drain
	// AFTER it finishes issuing the current request — submitting from
	// inside the tier would re-enter the controller's scheduling loop
	// mid-issue.
	pending []Writeback
}

// New builds a tier for a device with the given geometry. The Cache
// shares the simulation's counter set and schedules promotion-completion
// events on eng. A disabled config yields nil, which is what the memory
// controllers take for "no tier".
func New(cfg Config, geom addr.Geometry, eng *event.Engine, st *stats.Block) *Cache {
	if !cfg.Enabled() {
		return nil
	}
	cfg = cfg.withDefaults()
	return &Cache{
		cfg:      cfg,
		geom:     geom,
		eng:      eng,
		st:       st,
		resident: make(map[uint64]*entry, cfg.Rows),
		slots:    make([]*entry, cfg.Rows),
		misses:   make(map[uint64]missState),
		bySub:    make(map[uint64]map[uint64]*entry),
	}
}

// Config returns the (defaulted) tier configuration.
func (t *Cache) Config() Config { return t.cfg }

// Resident returns the number of DRAM-resident or in-flight rows (tests
// and diagnostics).
func (t *Cache) Resident() int { return len(t.resident) }

// rowKey identifies one device row: the bank, the subarray within it,
// and the row index within the subarray.
func (t *Cache) rowKey(c addr.Coord) uint64 {
	bank := uint64(t.geom.BankID(c))
	return ((bank<<uint(t.geom.SubarrayBits))|uint64(c.Subarray))<<uint(t.geom.RowBits) | uint64(c.Row)
}

// subKey identifies one (bank, subarray) pair.
func (t *Cache) subKey(c addr.Coord) uint64 {
	return uint64(t.geom.BankID(c))<<uint(t.geom.SubarrayBits) | uint64(c.Subarray)
}

// WouldServe reports, side-effect-free, whether a request would be served
// by the DRAM tier at time now. The controller's scheduler uses it: a
// tier-resident request is issuable even when its NVM bank is busy, and
// ranks with buffer hits under FR-FCFS.
func (t *Cache) WouldServe(now int64, c addr.Coord, o addr.Orientation) bool {
	if o != addr.Row {
		return false
	}
	e, ok := t.resident[t.rowKey(c)]
	return ok && e.ready && now >= e.readyAt
}

// Serve attempts to serve one request from DRAM. It returns true when the
// row is resident (the controller charges HitPs instead of the NVM bank
// access); writes mark the row dirty in DRAM and never touch NVM until
// demotion. Column-orientation requests always return false, but apply
// the coherence policy first: a column read queues write-backs for dirty
// resident rows of the subarray (which stay resident, now clean), a
// column write is patched into the intersecting DRAM copies, which stay
// resident. The controller must drain the queued write-backs after
// finishing the current issue.
func (t *Cache) Serve(now int64, c addr.Coord, o addr.Orientation, write bool) bool {
	if o == addr.Column {
		t.onColumnAccess(c, write)
		return false
	}
	e, ok := t.resident[t.rowKey(c)]
	if !ok || !e.ready || now < e.readyAt {
		return false
	}
	e.ref = true
	if write {
		e.dirty = true
	}
	t.st.Inc(stats.IdxTierDRAMHits)
	return true
}

// onColumnAccess applies the column-coherence policy.
func (t *Cache) onColumnAccess(c addr.Coord, write bool) {
	sub := t.bySub[t.subKey(c)]
	if len(sub) == 0 {
		return
	}
	if write {
		// Column write: NVM receives the new words through the device
		// path being issued right now, and the tier — sitting in the
		// controller's data path — applies the same words to the
		// intersecting DRAM copies. Both sides stay current; nothing is
		// demoted. (A timing simulator carries no data, so the patch is
		// the accounting of that dual update.)
		t.st.Inc(stats.IdxTierColPatches)
		return
	}
	// Column read: NVM still holds every row's data; only rows dirty in
	// DRAM have diverged and must be written back first. They stay
	// resident, clean.
	for _, key := range sortedKeys(sub) {
		e := sub[key]
		if e.dirty {
			e.dirty = false
			t.pending = append(t.pending, Writeback{Coord: e.base, Dirty: true})
			t.st.Inc(stats.IdxTierWritebacks)
		}
	}
}

// sortedKeys returns the map's keys in ascending order: map iteration
// order is randomized in Go, and the demotion order decides the write-back
// queue order, which must be deterministic.
func sortedKeys(m map[uint64]*entry) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Insertion sort: subarray resident sets are small.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// OnNVMAccess observes one access the NVM device actually served and
// drives the promotion policy: row-orientation demand activations (buffer
// misses) accumulate the row's decayed miss counter, and the K-th miss
// promotes the row. readyAt is the device access's bank-ready time; the
// row becomes DRAM-resident MigratePs later (the copy proceeds from the
// open row buffer after the access that triggered it).
func (t *Cache) OnNVMAccess(now int64, c addr.Coord, o addr.Orientation, bufferHit, writeback bool, readyAt int64) {
	if o != addr.Row || bufferHit || writeback {
		return
	}
	key := t.rowKey(c)
	if _, ok := t.resident[key]; ok {
		// In-flight promotion (or a resident row the scheduler raced past
		// its readyAt): NVM still serving; no further accounting.
		return
	}
	epoch := now / t.cfg.DecayPs
	ms, tracked := t.misses[key]
	if !tracked && len(t.misses) >= trackedPerRow*t.cfg.Rows {
		t.sweepTracker(epoch)
		if len(t.misses) >= trackedPerRow*t.cfg.Rows {
			return // table still full of live counters: don't track more
		}
	}
	if d := epoch - ms.epoch; d > 0 {
		if d > 4 {
			ms.count = 0
		} else {
			ms.count >>= uint(d)
		}
	}
	ms.epoch = epoch
	if ms.count < missCap {
		ms.count++
	}
	if int(ms.count) < t.cfg.PromoteAfter {
		t.misses[key] = ms
		return
	}
	delete(t.misses, key)
	t.promote(key, c, readyAt)
}

// sweepTracker drops tracked rows whose counters have decayed to zero.
func (t *Cache) sweepTracker(epoch int64) {
	for k, ms := range t.misses {
		d := epoch - ms.epoch
		if d > 4 || (d > 0 && ms.count>>uint(d) == 0) {
			delete(t.misses, k)
		}
	}
}

// promote installs the row as in-flight and schedules the residency event.
func (t *Cache) promote(key uint64, c addr.Coord, readyAt int64) {
	slot, ok := t.takeSlot()
	if !ok {
		return // every slot held by an in-flight promotion: skip
	}
	base := c
	base.Column = 0
	e := &entry{key: key, base: base, slot: slot, readyAt: readyAt + t.cfg.MigratePs}
	t.slots[slot] = e
	t.resident[key] = e
	sk := t.subKey(c)
	sub := t.bySub[sk]
	if sub == nil {
		sub = make(map[uint64]*entry)
		t.bySub[sk] = sub
	}
	sub[key] = e
	t.st.Inc(stats.IdxTierPromotions)
	t.eng.AtCall(e.readyAt, promoteDone, t, int64(key))
}

// promoteDone is the static promotion-completion callback: the copy from
// the NVM row buffer into DRAM has finished and the row starts serving.
// A row demoted while its copy was in flight is simply gone from the
// resident map (or replaced by a later promotion with a different
// readyAt) — the stale event is ignored.
func promoteDone(ctx any, key, now int64) {
	t := ctx.(*Cache)
	if e, ok := t.resident[uint64(key)]; ok && !e.ready && e.readyAt == now {
		e.ready = true
	}
}

// takeSlot returns a free DRAM slot, evicting a victim with the clock
// policy when full. ok=false means every slot holds an in-flight
// promotion (nothing evictable).
func (t *Cache) takeSlot() (int, bool) {
	if n := len(t.free); n > 0 {
		s := t.free[n-1]
		t.free = t.free[:n-1]
		return s, true
	}
	if t.hand >= len(t.slots) {
		t.hand = 0
	}
	// Clock: clear reference bits until an unreferenced resident row
	// turns up. Two full sweeps guarantee termination even if every row
	// was referenced; in-flight promotions are skipped (their slot cannot
	// be reclaimed mid-copy).
	for scanned := 0; scanned < 2*len(t.slots); scanned++ {
		e := t.slots[t.hand]
		if e == nil {
			s := t.hand
			t.hand = (t.hand + 1) % len(t.slots)
			return s, true
		}
		if e.ready && !e.ref {
			s := e.slot
			t.demote(e)
			t.hand = (t.hand + 1) % len(t.slots)
			return s, true
		}
		if e.ready {
			e.ref = false
		}
		t.hand = (t.hand + 1) % len(t.slots)
	}
	return 0, false
}

// demote removes a row from DRAM, queueing a write-back through the
// normal device path when it is dirty.
func (t *Cache) demote(e *entry) {
	delete(t.resident, e.key)
	t.slots[e.slot] = nil
	t.free = append(t.free, e.slot)
	sk := t.subKey(e.base)
	if sub := t.bySub[sk]; sub != nil {
		delete(sub, e.key)
		if len(sub) == 0 {
			delete(t.bySub, sk)
		}
	}
	t.st.Inc(stats.IdxTierDemotions)
	if e.dirty {
		t.pending = append(t.pending, Writeback{Coord: e.base, Dirty: true})
		t.st.Inc(stats.IdxTierWritebacks)
	}
}

// QueuedWritebacks hands the accumulated demotion write-backs to the
// caller and clears the queue. The memory controller calls it after every
// issue that touched the tier and submits each as a normal write-back
// request, so NVM wear accounting and the SECDED path see the data again.
func (t *Cache) QueuedWritebacks(buf []Writeback) []Writeback {
	if len(t.pending) == 0 {
		return buf[:0]
	}
	buf = append(buf[:0], t.pending...)
	t.pending = t.pending[:0]
	return buf
}

// PopWriteback removes and returns the oldest queued demotion write-back.
// The controller drains one at a time: submitting a write-back can
// re-enter the scheduler, whose issues may queue further write-backs, and
// popping keeps the drain loop correct (and FIFO-deterministic) under
// that reentrancy where a bulk snapshot would not be.
func (t *Cache) PopWriteback() (Writeback, bool) {
	if len(t.pending) == 0 {
		return Writeback{}, false
	}
	wb := t.pending[0]
	n := copy(t.pending, t.pending[1:])
	t.pending = t.pending[:n]
	return wb, true
}
