package cache

import (
	"testing"

	"rcnvm/internal/addr"
	"rcnvm/internal/event"
	"rcnvm/internal/stats"
)

// missRig drives the miss path in steady state over a stub memory that
// answers every read after a fixed latency and records nothing: two cores
// walk memory in runs of eight lines, far past what the caches hold. The
// start of a run is a primary miss (a store, from core 0) and an MSHR merge
// (core 1 asks for the line while it is in flight); its third line trains
// the prefetcher, whose stream the walk catches up with; and — the stores
// having dirtied what is evicted — evictions write back.
type missRig struct {
	h     *Hierarchy
	eng   *event.Engine
	st    *stats.Block
	line  uint32 // the walk's next line
	woken int
}

func newMissRig() *missRig {
	cfg := smallConfig()
	cfg.L3Sets, cfg.L3Ways = 64, 4
	r := &missRig{eng: event.New(), st: new(stats.Block)}
	r.h = New(cfg, testGeom, true, r.eng, r.st, func(m *MemRequest) {
		if m.Done != nil {
			r.eng.AtCall(r.eng.Now()+memLatPs, fireDone, m.Done, 0)
		}
	})
	return r
}

func missRigWoken(ctx any, _, _ int64) { ctx.(*missRig).woken++ }

// round walks 256 lines, eight accesses in flight at a time.
func (r *missRig) round() {
	for i := 0; i < 256; i++ {
		if i%8 == 0 {
			r.line += 5 // the next run: the stride breaks
		}
		k := AddrKey(r.line%(1<<16)*addr.LineBytes, addr.Row)
		r.line++
		a := Access{Key: k, MemCoord: k.Base(testGeom), Write: true}
		r.h.AccessCall(a, missRigWoken, r, 0)
		a.Core, a.Write = 1, false
		r.h.AccessCall(a, missRigWoken, r, 0)
		if i%4 == 3 {
			r.eng.Run()
		}
	}
	r.eng.Run()
}

// warm grows what grows to a high-water mark: the entry free list and its
// waiter arrays, the event queue and slab, every level's touched-set list.
func (r *missRig) warm() {
	for i := 0; i < 8; i++ {
		r.round()
	}
}

// BenchmarkMissPath is the zero-alloc gate of the LLC miss: once warm, a
// miss, a merge, a prefetch, a fill, a wake and an eviction allocate
// nothing.
func BenchmarkMissPath(b *testing.B) {
	r := newMissRig()
	r.warm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.round()
	}
}

// TestMissPathZeroAllocSteadyState pins the same contract deterministically
// and checks the round is the traffic it claims to be.
func TestMissPathZeroAllocSteadyState(t *testing.T) {
	r := newMissRig()
	r.warm()
	before, woken := r.st.Snapshot(), r.woken
	if allocs := testing.AllocsPerRun(10, r.round); allocs != 0 {
		t.Fatalf("steady-state allocs per round = %g, want 0", allocs)
	}
	after := r.st.Snapshot()
	for _, name := range []string{stats.LLCMisses, stats.MSHRMerges, stats.Prefetches, stats.PrefetchHits, stats.Evictions, stats.DirtyEvictions} {
		if after[name] == before[name] {
			t.Errorf("%s did not move over the measured rounds", name)
		}
	}
	if got := r.woken - woken; got != 11*2*256 {
		t.Errorf("%d accesses completed over 11 rounds, want %d", got, 11*2*256)
	}
	if err := r.h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
