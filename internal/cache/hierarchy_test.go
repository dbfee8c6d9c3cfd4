package cache

import (
	"reflect"
	"testing"

	"rcnvm/internal/addr"
	"rcnvm/internal/event"
	"rcnvm/internal/stats"
)

const memLatPs = 100_000

type fakeMem struct {
	eng      *event.Engine
	requests []MemRequest
}

// submit copies the request: the hierarchy reuses the pointed-to struct, so
// retaining *r past the call would observe later requests.
func (m *fakeMem) submit(r *MemRequest) {
	m.requests = append(m.requests, *r)
	if r.Done != nil {
		m.eng.AtCall(m.eng.Now()+memLatPs, fireDone, r.Done, 0)
	}
}

func fireDone(ctx any, _, now int64) { ctx.(func(int64))(now) }

// Access is AccessCall with a closure for a completion callback — what a
// test wants to write, and what the simulator must not do per access.
func (h *Hierarchy) Access(a Access, done func(int64)) {
	h.AccessCall(a, fireDone, done, 0)
}

func (m *fakeMem) writebacks() int {
	n := 0
	for _, r := range m.requests {
		if r.Writeback {
			n++
		}
	}
	return n
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.L1Sets, cfg.L1Ways = 2, 2
	cfg.L2Sets, cfg.L2Ways = 4, 2
	cfg.L3Sets, cfg.L3Ways = 8, 4
	return cfg
}

// testGeom is the geometry of every test hierarchy (a non-dual one differs
// only in the DualAddress flag, which no address encoding reads).
var testGeom = addr.Geometry{
	ChannelBits: 1, RankBits: 2, BankBits: 3, SubarrayBits: 3,
	RowBits: 10, ColumnBits: 10, DualAddress: true,
}

func rcKey(l addr.LineID) Key { return RCKey(testGeom, l) }

func newTestHierarchy(t *testing.T, cfg Config, dual bool) (*Hierarchy, *fakeMem, *event.Engine, *stats.Block) {
	t.Helper()
	eng := event.New()
	st := new(stats.Block)
	mem := &fakeMem{eng: eng}
	geom := testGeom
	geom.DualAddress = dual
	h := New(cfg, geom, dual, eng, st, mem.submit)
	return h, mem, eng, st
}

// countValid recounts a level's valid lines from the raw array.
func (l *level) countValid() int {
	n := 0
	for i := range l.lines {
		if l.lines[i].valid {
			n++
		}
	}
	return n
}

func rowLine(row, colBase uint32) addr.LineID {
	return addr.LineID{Orient: addr.Row, Major: uint16(row), Minor: uint16(colBase)}
}

func colLine(col, rowBase uint32) addr.LineID {
	return addr.LineID{Orient: addr.Column, Major: uint16(col), Minor: uint16(rowBase)}
}

// access issues a blocking access and runs the engine; returns completion
// time.
func access(t *testing.T, h *Hierarchy, eng *event.Engine, a Access) int64 {
	t.Helper()
	var at int64 = -1
	h.Access(a, func(f int64) { at = f })
	eng.Run()
	if at < 0 {
		t.Fatal("access never completed")
	}
	return at
}

func TestMissThenHits(t *testing.T) {
	cfg := smallConfig()
	h, mem, eng, st := newTestHierarchy(t, cfg, true)
	ln := rowLine(5, 0)
	a := Access{Core: 0, Key: rcKey(ln), MemCoord: ln.Base()}

	t1 := access(t, h, eng, a)
	if len(mem.requests) != 1 {
		t.Fatalf("mem requests = %d, want 1", len(mem.requests))
	}
	if t1 < memLatPs {
		t.Fatalf("miss completed at %d, before memory latency", t1)
	}
	// Second access: L1 hit at L1 latency.
	start := eng.Now()
	t2 := access(t, h, eng, a)
	if t2-start != cfg.L1LatPs {
		t.Errorf("L1 hit latency = %d, want %d", t2-start, cfg.L1LatPs)
	}
	if st.Get(stats.L1Hits) != 1 || st.Get(stats.LLCMisses) != 1 {
		t.Errorf("hit/miss counters wrong: %v", st.Snapshot())
	}
}

func TestL3HitPath(t *testing.T) {
	cfg := smallConfig()
	h, _, eng, st := newTestHierarchy(t, cfg, true)
	ln := rowLine(5, 0)
	// Core 0 fetches; core 1 then finds it in shared L3.
	access(t, h, eng, Access{Core: 0, Key: rcKey(ln), MemCoord: ln.Base()})
	start := eng.Now()
	t2 := access(t, h, eng, Access{Core: 1, Key: rcKey(ln), MemCoord: ln.Base()})
	if t2-start != cfg.L3LatPs {
		t.Errorf("L3 hit latency = %d, want %d", t2-start, cfg.L3LatPs)
	}
	if st.Get(stats.L3Hits) != 1 {
		t.Errorf("L3 hits = %d, want 1", st.Get(stats.L3Hits))
	}
	// Core 1 now has private copies: next is an L1 hit.
	start = eng.Now()
	t3 := access(t, h, eng, Access{Core: 1, Key: rcKey(ln), MemCoord: ln.Base()})
	if t3-start != cfg.L1LatPs {
		t.Errorf("post-L3 L1 hit latency = %d, want %d", t3-start, cfg.L1LatPs)
	}
}

func TestMSHRMerge(t *testing.T) {
	cfg := smallConfig()
	h, mem, eng, st := newTestHierarchy(t, cfg, true)
	ln := rowLine(9, 8)
	doneCount := 0
	h.Access(Access{Core: 0, Key: rcKey(ln), MemCoord: ln.Base()}, func(int64) { doneCount++ })
	h.Access(Access{Core: 1, Key: rcKey(ln), MemCoord: ln.Base()}, func(int64) { doneCount++ })
	eng.Run()
	if doneCount != 2 {
		t.Fatalf("completions = %d, want 2", doneCount)
	}
	if len(mem.requests) != 1 {
		t.Fatalf("mem requests = %d, want 1 (merged)", len(mem.requests))
	}
	if st.Get(stats.MSHRMerges) != 1 {
		t.Errorf("mshr merges = %d, want 1", st.Get(stats.MSHRMerges))
	}
	// Both cores got private copies.
	start := eng.Now()
	t2 := access(t, h, eng, Access{Core: 1, Key: rcKey(ln), MemCoord: ln.Base()})
	if t2-start != cfg.L1LatPs {
		t.Errorf("core 1 should hit L1 after merged fill")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	cfg := smallConfig()
	cfg.L3Sets, cfg.L3Ways = 1, 2 // tiny L3 to force eviction
	cfg.L1Sets, cfg.L2Sets = 1, 1
	h, mem, eng, st := newTestHierarchy(t, cfg, true)

	dirty := rowLine(1, 0)
	access(t, h, eng, Access{Core: 0, Key: rcKey(dirty), MemCoord: dirty.Base(), Write: true})
	// Fill the (single) L3 set with two more lines: evicts the dirty one.
	for i := uint32(2); i <= 3; i++ {
		ln := rowLine(i, 0)
		access(t, h, eng, Access{Core: 0, Key: rcKey(ln), MemCoord: ln.Base()})
	}
	if mem.writebacks() != 1 {
		t.Fatalf("writebacks = %d, want 1", mem.writebacks())
	}
	if st.Get(stats.DirtyEvictions) == 0 {
		t.Error("dirty eviction not counted")
	}
}

func TestInclusiveBackInvalidation(t *testing.T) {
	cfg := smallConfig()
	cfg.L3Sets, cfg.L3Ways = 1, 2
	h, mem, eng, _ := newTestHierarchy(t, cfg, true)

	first := rowLine(1, 0)
	access(t, h, eng, Access{Core: 0, Key: rcKey(first), MemCoord: first.Base()})
	for i := uint32(2); i <= 3; i++ {
		ln := rowLine(i, 0)
		access(t, h, eng, Access{Core: 0, Key: rcKey(ln), MemCoord: ln.Base()})
	}
	// The first line was evicted from L3, so the L1 copy must be gone too:
	// accessing it again goes to memory.
	before := len(mem.requests)
	access(t, h, eng, Access{Core: 0, Key: rcKey(first), MemCoord: first.Base()})
	if len(mem.requests) != before+1 {
		t.Fatal("back-invalidation failed: stale private copy served the access")
	}
}

// TestSynonymDetection reproduces Figure 8: a row line and a column line
// that share one word are both cached; the install of the second must
// detect the crossing and set crossing bits.
func TestSynonymDetection(t *testing.T) {
	cfg := smallConfig()
	h, _, eng, st := newTestHierarchy(t, cfg, true)

	// Row line: row 437, columns 176..183. Column line: column 182, rows
	// 432..439. They intersect at (437, 182).
	rl := rowLine(437, 176)
	cl := colLine(182, 432)
	access(t, h, eng, Access{Core: 0, Key: rcKey(rl), MemCoord: rl.Base()})
	if st.Get(stats.CrossingDetected) != 0 {
		t.Fatal("no crossing should exist yet")
	}
	access(t, h, eng, Access{Core: 0, Key: rcKey(cl), MemCoord: cl.Base()})
	if st.Get(stats.CrossingDetected) != 1 {
		t.Fatalf("crossings detected = %d, want 1", st.Get(stats.CrossingDetected))
	}
	if st.Get(stats.CrossingCopies) != 1 {
		t.Errorf("crossing copies = %d, want 1", st.Get(stats.CrossingCopies))
	}
	if st.Get(stats.OverheadPs) == 0 {
		t.Error("synonym overhead not accounted")
	}
}

// TestCrossedWriteUpdatesDuplicate: writing the shared word through one
// orientation must update (here: dirty) the perpendicular cached copy.
func TestCrossedWriteUpdatesDuplicate(t *testing.T) {
	cfg := smallConfig()
	h, mem, eng, st := newTestHierarchy(t, cfg, true)

	rl := rowLine(437, 176)
	cl := colLine(182, 432)
	access(t, h, eng, Access{Core: 0, Key: rcKey(rl), MemCoord: rl.Base()})
	access(t, h, eng, Access{Core: 0, Key: rcKey(cl), MemCoord: cl.Base()})

	// The intersection is word 6 of the row line (column 182 = 176+6).
	access(t, h, eng, Access{Core: 0, Key: rcKey(rl), MemCoord: rl.Base(), WordIdx: 6, Write: true})
	if st.Get(stats.CrossingUpdates) != 1 {
		t.Fatalf("crossing updates = %d, want 1", st.Get(stats.CrossingUpdates))
	}
	// Writing a non-crossing word adds no update.
	access(t, h, eng, Access{Core: 0, Key: rcKey(rl), MemCoord: rl.Base(), WordIdx: 0, Write: true})
	if st.Get(stats.CrossingUpdates) != 1 {
		t.Fatalf("non-crossed write must not count a crossing update")
	}
	_ = mem
}

// TestEvictionClearsCrossingBits: evicting a line clears the crossing bits
// of its crossed lines so later writes there do not pay the update.
func TestEvictionClearsCrossingBits(t *testing.T) {
	cfg := smallConfig()
	cfg.L3Sets, cfg.L3Ways = 1, 2
	cfg.L1Sets, cfg.L2Sets = 1, 1
	h, _, eng, st := newTestHierarchy(t, cfg, true)

	rl := rowLine(437, 176)
	cl := colLine(182, 432)
	access(t, h, eng, Access{Core: 0, Key: rcKey(rl), MemCoord: rl.Base()})
	access(t, h, eng, Access{Core: 0, Key: rcKey(cl), MemCoord: cl.Base()})
	if st.Get(stats.CrossingDetected) != 1 {
		t.Fatal("setup: crossing not detected")
	}
	// Evict the column line by filling the single L3 set (2 ways) with new
	// lines; the row line may be evicted too, that is fine — we just need
	// at least one clear.
	for i := uint32(1); i <= 2; i++ {
		ln := rowLine(i, 8)
		access(t, h, eng, Access{Core: 0, Key: rcKey(ln), MemCoord: ln.Base()})
	}
	if st.Get(stats.CrossingClears) == 0 {
		t.Error("eviction did not clear crossing bits")
	}
}

// TestCoherenceInvalidation: a write by core 1 to a line shared with core 0
// invalidates core 0's private copies (directory MESI behaviour).
func TestCoherenceInvalidation(t *testing.T) {
	cfg := smallConfig()
	h, mem, eng, st := newTestHierarchy(t, cfg, true)
	ln := rowLine(7, 16)
	k := rcKey(ln)
	access(t, h, eng, Access{Core: 0, Key: k, MemCoord: ln.Base()})
	access(t, h, eng, Access{Core: 1, Key: k, MemCoord: ln.Base()})
	if st.Get(stats.CoherenceInvals) != 0 {
		t.Fatal("reads alone must not invalidate")
	}
	// Core 1 writes: core 0's copy dies.
	access(t, h, eng, Access{Core: 1, Key: k, MemCoord: ln.Base(), Write: true})
	if st.Get(stats.CoherenceInvals) == 0 {
		t.Fatal("write did not invalidate the other sharer")
	}
	// Core 0's next access must not be an L1 hit (it is an L3 hit).
	before := st.Get(stats.L1Hits)
	beforeMem := len(mem.requests)
	access(t, h, eng, Access{Core: 0, Key: k, MemCoord: ln.Base()})
	if st.Get(stats.L1Hits) != before {
		t.Error("core 0 hit a stale private copy")
	}
	if len(mem.requests) != beforeMem {
		t.Error("L3 should have served the re-read without memory traffic")
	}
}

// TestPinningPreventsEviction: pinned lines survive a thrashing stream and
// installs bypass when a set is fully pinned.
func TestPinningPreventsEviction(t *testing.T) {
	cfg := smallConfig()
	cfg.L3Sets, cfg.L3Ways = 1, 2
	cfg.L1Sets, cfg.L1Ways = 1, 2
	cfg.L2Sets, cfg.L2Ways = 1, 2
	h, mem, eng, st := newTestHierarchy(t, cfg, true)

	p1, p2 := rowLine(1, 0), rowLine(2, 0)
	access(t, h, eng, Access{Core: 0, Key: rcKey(p1), MemCoord: p1.Base(), Pin: true})
	access(t, h, eng, Access{Core: 0, Key: rcKey(p2), MemCoord: p2.Base(), Pin: true})

	// Thrash with other lines: all installs must bypass.
	for i := uint32(10); i < 14; i++ {
		ln := rowLine(i, 0)
		access(t, h, eng, Access{Core: 0, Key: rcKey(ln), MemCoord: ln.Base()})
	}
	if st.Get(stats.PinBypasses) == 0 {
		t.Fatal("fully pinned set should bypass installs")
	}
	// The pinned lines are still L1 hits.
	before := len(mem.requests)
	access(t, h, eng, Access{Core: 0, Key: rcKey(p1), MemCoord: p1.Base()})
	access(t, h, eng, Access{Core: 0, Key: rcKey(p2), MemCoord: p2.Base()})
	if len(mem.requests) != before {
		t.Fatal("pinned lines were evicted")
	}

	// After UnpinAll, thrashing evicts them again.
	h.UnpinAll()
	for i := uint32(20); i < 24; i++ {
		ln := rowLine(i, 0)
		access(t, h, eng, Access{Core: 0, Key: rcKey(ln), MemCoord: ln.Base()})
	}
	before = len(mem.requests)
	access(t, h, eng, Access{Core: 0, Key: rcKey(p1), MemCoord: p1.Base()})
	if len(mem.requests) != before+1 {
		t.Fatal("unpinned line should have been evicted")
	}
}

func TestGatherLinesCached(t *testing.T) {
	cfg := smallConfig()
	h, mem, eng, _ := newTestHierarchy(t, cfg, false)
	k := GatherKey(42)
	c := addr.Coord{Row: 3}
	access(t, h, eng, Access{Core: 0, Key: k, MemCoord: c})
	if len(mem.requests) != 1 || !mem.requests[0].Gather {
		t.Fatal("gather miss should issue a gather mem request")
	}
	before := len(mem.requests)
	start := eng.Now()
	t2 := access(t, h, eng, Access{Core: 0, Key: k, MemCoord: c})
	if len(mem.requests) != before || t2-start != cfg.L1LatPs {
		t.Fatal("gathered line should hit in L1")
	}
	// Distinct pattern IDs are distinct blocks.
	access(t, h, eng, Access{Core: 0, Key: GatherKey(43), MemCoord: c})
	if len(mem.requests) != before+1 {
		t.Fatal("different gather pattern must miss")
	}
}

// TestNoSynonymLogicWhenNotDual: on a row-only system the synonym machinery
// must stay silent even if (buggy) callers cache both orientations.
func TestNoSynonymLogicWhenNotDual(t *testing.T) {
	cfg := smallConfig()
	h, _, eng, st := newTestHierarchy(t, cfg, false)
	rl := rowLine(437, 176)
	access(t, h, eng, Access{Core: 0, Key: rcKey(rl), MemCoord: rl.Base()})
	cl := colLine(182, 432)
	access(t, h, eng, Access{Core: 0, Key: rcKey(cl), MemCoord: cl.Base()})
	if st.Get(stats.CrossingDetected) != 0 {
		t.Fatal("synonym logic ran on a non-dual hierarchy")
	}
}

func TestWriteAllocate(t *testing.T) {
	cfg := smallConfig()
	h, mem, eng, _ := newTestHierarchy(t, cfg, true)
	ln := rowLine(3, 24)
	access(t, h, eng, Access{Core: 0, Key: rcKey(ln), MemCoord: ln.Base(), Write: true})
	if len(mem.requests) != 1 || mem.requests[0].Write {
		t.Fatal("store miss should fetch the line with a read (write-allocate)")
	}
	// Subsequent load hits.
	before := len(mem.requests)
	access(t, h, eng, Access{Core: 0, Key: rcKey(ln), MemCoord: ln.Base()})
	if len(mem.requests) != before {
		t.Fatal("line not resident after write-allocate")
	}
}

func TestAccessBadCorePanics(t *testing.T) {
	cfg := smallConfig()
	h, _, _, _ := newTestHierarchy(t, cfg, true)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range core")
		}
	}()
	h.Access(Access{Core: 99, Key: rcKey(rowLine(0, 0))}, func(int64) {})
}

func TestOutstandingMisses(t *testing.T) {
	cfg := smallConfig()
	h, _, eng, _ := newTestHierarchy(t, cfg, true)
	ln := rowLine(1, 0)
	h.Access(Access{Core: 0, Key: rcKey(ln), MemCoord: ln.Base()}, func(int64) {})
	if h.OutstandingMisses() != 1 {
		t.Fatalf("outstanding = %d, want 1", h.OutstandingMisses())
	}
	eng.Run()
	if h.OutstandingMisses() != 0 {
		t.Fatalf("outstanding after run = %d, want 0", h.OutstandingMisses())
	}
}

// TestInvariantsUnderRandomTraffic: random mixed-orientation reads and
// writes never violate inclusion or crossing symmetry, and after every
// single access and every single event the bookkeeping the fast paths trust
// (resident L3 lines per orientation, touched sets, the store-seen flag, the
// MSHR table) matches a recount. Resets and flushes in mid-traffic are part
// of the traffic, and so are bursts of misses deep enough to make the MSHR
// table grow and to close a gap across its wrap-around.
func TestInvariantsUnderRandomTraffic(t *testing.T) {
	cfg := smallConfig()
	h, _, eng, _ := newTestHierarchy(t, cfg, true)
	seed := uint32(12345)
	// The high half: an LCG's low bits cycle with a period as short as the
	// modulus taken here, which would revisit the same few lines forever
	// and never evict.
	next := func(n uint32) uint32 {
		seed = seed*1664525 + 1013904223
		return seed >> 16 % n
	}
	i := 0
	checked := func() {
		t.Helper()
		if err := h.CheckInvariants(); err != nil {
			t.Fatalf("after %d accesses: %v", i, err)
		}
	}
	issue := func(mayPin bool) {
		c := addr.Coord{Row: next(64), Column: next(64)}
		var key Key
		var word int
		if next(2) == 0 {
			key = rcKey(addr.LineID{Orient: addr.Row, Major: uint16(c.Row), Minor: uint16(c.Column &^ 7)})
			word = int(c.Column % 8)
		} else {
			key = rcKey(addr.LineID{Orient: addr.Column, Major: uint16(c.Column), Minor: uint16(c.Row &^ 7)})
			word = int(c.Row % 8)
		}
		h.Access(Access{
			Core:     int(next(uint32(cfg.Cores))),
			Key:      key,
			MemCoord: key.Base(testGeom),
			WordIdx:  word,
			Write:    next(4) == 0,
			Pin:      next(32) == 0 && mayPin,
		}, func(int64) {})
		checked()
	}
	// drain runs the engine dry one event at a time. An entry found in a
	// higher slot after an event than before it, in a table of the same
	// size, was shifted back across the wrap-around by a delete.
	wrapped := 0
	drain := func() {
		at := map[*mshrEntry]int{}
		for {
			clear(at)
			for slot, s := range h.mshr.slots {
				if s.e != nil {
					at[s.e] = slot
				}
			}
			slots := len(h.mshr.slots)
			if !eng.Step() {
				return
			}
			for slot, s := range h.mshr.slots {
				if was, ok := at[s.e]; ok && slot > was && len(h.mshr.slots) == slots {
					wrapped++
				}
			}
			checked()
		}
	}
	for ; i < 4000; i++ {
		issue(true)
		if i%97 == 50 {
			// More misses in flight than a 64-slot table may hold. None of
			// them pins: an install that finds its L3 set fully pinned
			// bypasses L3 but still fills the private levels — the model
			// gives up inclusion there, and has since pinning went in —
			// and the pins between two UnpinAlls are kept as few as before.
			for k := 0; k < 48; k++ {
				issue(false)
			}
		}
		if i%3 == 0 {
			drain()
		}
		switch i % 401 {
		case 97:
			drain()
			h.FlushDirty()
		case 211:
			h.UnpinAll()
		case 400:
			drain()
			h.Reset()
			if n := h.l3.countValid() + h.PinnedCount() + h.OutstandingMisses(); n != 0 {
				t.Fatalf("after %d accesses: Reset left %d lines, pins or misses behind", i, n)
			}
		}
		checked()
	}
	drain()
	if len(h.mshr.slots) <= mshrMinSlots || wrapped == 0 {
		t.Fatalf("the traffic left the MSHR table at %d slots and closed %d gaps across its wrap-around: want a grow and a wrapped shift",
			len(h.mshr.slots), wrapped)
	}
}

// crossingPair is the Figure 8 pair: row 437 columns 176..183 and column
// 182 rows 432..439 intersect at (437, 182).
var crossRow, crossCol = rowLine(437, 176), colLine(182, 432)

// TestCrossingDetectedWithOnePerpendicularLine: the installL3 shortcut
// skips the crossing lookups only while NO perpendicular line is resident;
// with exactly one — the crossing one — a row install still detects it,
// sets both masks and charges the copy.
func TestCrossingDetectedWithOnePerpendicularLine(t *testing.T) {
	cfg := smallConfig()
	h, _, eng, st := newTestHierarchy(t, cfg, true)
	access(t, h, eng, Access{Core: 0, Key: rcKey(crossCol), MemCoord: crossCol.Base()})
	if h.l3Lines != [2]int{addr.Column: 1} {
		t.Fatalf("l3Lines = %v after one column install", h.l3Lines)
	}
	start := eng.Now()
	done := access(t, h, eng, Access{Core: 0, Key: rcKey(crossRow), MemCoord: crossRow.Base()})
	if got := st.Get(stats.CrossingDetected); got != 1 {
		t.Fatalf("crossings detected = %d, want 1", got)
	}
	rl, cl := h.l3.probe(rcKey(crossRow)), h.l3.probe(rcKey(crossCol))
	if rl.crossMask != 1<<6 || cl.crossMask != 1<<5 {
		t.Fatalf("cross masks row=%08b col=%08b, want bit 6 (column 182-176) and bit 5 (row 437-432)",
			rl.crossMask, cl.crossMask)
	}
	if want := start + memLatPs + cfg.ResponseLatPs + cfg.SynonymCopyPs; done != want {
		t.Fatalf("install completed at %d, want %d (SynonymCopyPs charged)", done, want)
	}
	if got := st.Get(stats.OverheadPs); got != cfg.SynonymCopyPs {
		t.Fatalf("syn.overhead_ps = %d, want %d", got, cfg.SynonymCopyPs)
	}
}

// TestNoCrossingWorkAfterPerpendicularEviction: once the only column line
// has been evicted, row installs do no crossing work — and every counter
// matches a hierarchy that never takes the shortcut (its l3Lines held
// non-zero throughout) on the same sequence.
func TestNoCrossingWorkAfterPerpendicularEviction(t *testing.T) {
	cfg := smallConfig()
	cfg.L3Sets, cfg.L3Ways = 1, 2
	cfg.L1Sets, cfg.L2Sets = 1, 1
	run := func(shortcut bool) (map[string]int64, *Hierarchy) {
		h, _, eng, st := newTestHierarchy(t, cfg, true)
		step := func(l addr.LineID) {
			if !shortcut {
				h.l3Lines = [2]int{1 << 20, 1 << 20}
			}
			access(t, h, eng, Access{Core: 0, Key: rcKey(l), MemCoord: l.Base()})
		}
		step(crossCol)
		step(crossRow) // crossing detected
		step(rowLine(1, 8))
		step(rowLine(2, 8)) // the 2-way set has evicted both crossing lines
		step(crossRow)      // no column line resident: nothing to detect
		return st.Snapshot(), h
	}
	fast, h := run(true)
	if h.l3Lines[addr.Column] != 0 {
		t.Fatalf("l3Lines = %v, want no column line after the eviction", h.l3Lines)
	}
	if fast[stats.CrossingDetected] != 1 || fast[stats.CrossingClears] != 1 {
		t.Fatalf("detected=%d clears=%d, want the one crossing detected once and cleared once",
			fast[stats.CrossingDetected], fast[stats.CrossingClears])
	}
	if slow, _ := run(false); !reflect.DeepEqual(fast, slow) {
		t.Fatalf("counters differ from the hierarchy without the shortcut:\nwith:    %v\nwithout: %v", fast, slow)
	}
}

func TestPinnedCount(t *testing.T) {
	cfg := smallConfig()
	h, _, eng, _ := newTestHierarchy(t, cfg, true)
	ln := rowLine(3, 8)
	access(t, h, eng, Access{Core: 0, Key: rcKey(ln), MemCoord: ln.Base(), Pin: true})
	if h.PinnedCount() == 0 {
		t.Fatal("pin not counted")
	}
	h.UnpinAll()
	if h.PinnedCount() != 0 {
		t.Fatal("unpin incomplete")
	}
}
