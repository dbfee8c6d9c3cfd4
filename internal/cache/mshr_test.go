package cache

import (
	"math/rand"
	"reflect"
	"testing"

	"rcnvm/internal/addr"
	"rcnvm/internal/event"
	"rcnvm/internal/stats"
)

// TestMSHRTableAgainstMap drives the open-addressed table and a Go map with
// the same seeded inserts, lookups and removes — populations that take the
// table from 64 slots to 1024, keys in the strided runs scans produce — and
// holds the table to the map after every step and to its own invariants
// (every entry reachable from its home slot, n a recount, free entries
// empty) every few.
func TestMSHRTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var tab mshrTable
	tab.init(mshrMinSlots, func(*mshrEntry, int64) {})
	ref := map[Key]*mshrEntry{}
	var live []Key
	randomKey := func() Key {
		base := uint32(rng.Intn(8)) << 20
		switch rng.Intn(3) {
		case 0:
			return AddrKey(base+uint32(rng.Intn(2048))*addr.LineBytes, addr.Row)
		case 1:
			return AddrKey(base+uint32(rng.Intn(2048))*8192, addr.Column)
		default:
			return GatherKey(uint32(rng.Intn(2048)))
		}
	}
	target := 16 // the population the walk is pulled towards
	for step := 0; step < 200_000; step++ {
		if step%5000 == 0 {
			target = []int{16, 40, 100, 300, 500, 8}[step/5000%6]
		}
		switch k := randomKey(); {
		case ref[k] != nil || rng.Intn(4) == 0:
			if got := tab.get(k); got != ref[k] {
				t.Fatalf("step %d: get(%v) = %p, the map holds %p", step, k, got, ref[k])
			}
		case len(live) < target:
			e := tab.add(k)
			if e.key != k || len(e.waiters) != 0 || e.cores != 0 {
				t.Fatalf("step %d: add(%v) handed out %+v", step, k, *e)
			}
			e.waiters, e.cores = append(e.waiters, waiter{ctx: t, fn: fireDone}), 1
			ref[k], live = e, append(live, k)
		default:
			i := rng.Intn(len(live))
			k = live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			e := tab.remove(k)
			if e != ref[k] || tab.get(k) != nil || tab.remove(k) != nil {
				t.Fatalf("step %d: remove(%v) = %p, the map holds %p; or it is still found", step, k, e, ref[k])
			}
			delete(ref, k)
			tab.recycle(e)
		}
		if tab.n != len(ref) {
			t.Fatalf("step %d: n = %d, the map holds %d", step, tab.n, len(ref))
		}
		if step%64 == 0 {
			if err := tab.check(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			for k, e := range ref {
				if tab.get(k) != e {
					t.Fatalf("step %d: %v lost", step, k)
				}
			}
		}
	}
	if len(tab.slots) != 1024 {
		t.Fatalf("table ended at %d slots, want the walk to have grown it to 1024", len(tab.slots))
	}
}

// TestResetWithMissesInFlight: a Reset that catches demand misses, a merge,
// prefetches and a pending wake event leaves a hierarchy that passes its
// invariants, holds nothing, and replays a sequence exactly as a new one.
func TestResetWithMissesInFlight(t *testing.T) {
	cfg := smallConfig()
	sequence := func(h *Hierarchy, eng *event.Engine) (finish []int64) {
		for i := uint32(0); i < 24; i++ {
			ln := rowLine(3, 8*(i%16))
			h.Access(Access{Core: int(i % 2), Key: rcKey(ln), MemCoord: ln.Base(), Write: i%5 == 0},
				func(f int64) { finish = append(finish, f) })
			if i%4 == 3 {
				eng.Run()
			}
		}
		eng.Run()
		return finish
	}
	fresh, _, freshEng, freshSt := newTestHierarchy(t, cfg, true)
	want := sequence(fresh, freshEng)

	h, _, eng, st := newTestHierarchy(t, cfg, true)
	sequence(h, eng)
	// Misses on three lines, the first with a second waiter, and the
	// prefetches their stride trains; step until the first fill has run and
	// its wake event is queued.
	for i := uint32(0); i < 3; i++ {
		ln := colLine(40+i, 64)
		h.Access(Access{Core: 0, Key: rcKey(ln), MemCoord: ln.Base()}, func(int64) { t.Error("woken after Reset") })
	}
	first := colLine(40, 64)
	h.Access(Access{Core: 1, Key: rcKey(first), MemCoord: first.Base()}, func(int64) { t.Error("woken after Reset") })
	issued := h.OutstandingMisses()
	for h.OutstandingMisses() == issued {
		eng.Step()
	}
	if issued < 4 || h.OutstandingMisses() != issued-1 || eng.Pending() != issued {
		t.Fatalf("%d misses issued, %d in flight, %d events queued: want misses and prefetches, one filled, its wake pending",
			issued, h.OutstandingMisses(), eng.Pending())
	}
	eng.Reset()
	st.Reset()
	h.Reset()
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n := h.l3.countValid() + h.OutstandingMisses() + eng.Pending(); n != 0 {
		t.Fatalf("Reset left %d lines, misses or events behind", n)
	}
	if got := sequence(h, eng); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(st.Snapshot(), freshSt.Snapshot()) {
		t.Fatalf("after Reset: finish times %v, counters %v\non a new hierarchy: %v, %v", got, st.Snapshot(), want, freshSt.Snapshot())
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWakeOrder: one wake event per fill is the schedule one event per
// waiter was. Three waiters on two cores are woken in arrival order at one
// time; what their callbacks schedule at that time runs after all three, in
// issue order; one of them misses the same key again — the fill found its
// L3 set fully pinned and could not install — and gets an entry of its own,
// not the one being woken.
func TestWakeOrder(t *testing.T) {
	cfg := smallConfig()
	cfg.L3Sets, cfg.L3Ways = 1, 2
	cfg.PrefetchDegree = 0
	h, mem, eng, _ := newTestHierarchy(t, cfg, true)
	for i := uint32(1); i <= 2; i++ {
		ln := rowLine(i, 0)
		access(t, h, eng, Access{Core: 0, Key: rcKey(ln), MemCoord: ln.Base(), Pin: true})
	}
	ln := rowLine(9, 0)
	a := Access{Key: rcKey(ln), MemCoord: ln.Base()}
	type seen struct {
		what string
		at   int64
	}
	var order []seen
	note := func(what string) func(int64) {
		return func(now int64) { order = append(order, seen{what, now}) }
	}
	waiterDone := func(name string, again bool) func(int64) {
		return func(now int64) {
			note(name)(now)
			eng.AtCall(now, fireDone, note(name+" follow-up"), 0)
			if again {
				h.Access(a, note(name+" again"))
				if h.OutstandingMisses() != 1 {
					t.Errorf("the second miss on the key is not in flight")
				}
			}
		}
	}
	start := eng.Now()
	for i, name := range []string{"w1", "w2", "w3"} {
		a.Core = i % 2
		h.Access(a, waiterDone(name, name == "w2"))
	}
	eng.Run()
	woken := start + memLatPs + cfg.ResponseLatPs
	want := []seen{
		{"w1", woken}, {"w2", woken}, {"w3", woken},
		{"w1 follow-up", woken}, {"w2 follow-up", woken}, {"w3 follow-up", woken},
		{"w2 again", woken + memLatPs + cfg.ResponseLatPs},
	}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("woken\n%v, want\n%v", order, want)
	}
	if len(mem.requests) != 4 {
		t.Fatalf("%d memory requests, want two pinned fills and two fetches of the key", len(mem.requests))
	}
	if err := h.mshr.check(); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchFillSchedulesNothing: a prefetched line nobody waited for is
// installed by its fill and that is all — no wake event is queued.
func TestPrefetchFillSchedulesNothing(t *testing.T) {
	cfg := smallConfig()
	h, _, eng, st := newTestHierarchy(t, cfg, true)
	for i := uint32(0); i < 3; i++ { // a stride of one line, trained by the third
		ln := rowLine(7, 8*i)
		access(t, h, eng, Access{Core: 0, Key: rcKey(ln), MemCoord: ln.Base()})
	}
	if got := st.Get(stats.Prefetches); got != int64(cfg.PrefetchDegree) {
		t.Fatalf("%d prefetches issued, want %d", got, cfg.PrefetchDegree)
	}
	// access ran the engine dry: the demand miss is long woken, the
	// prefetches filled after it.
	if h.OutstandingMisses() != 0 || h.l3.probe(rcKey(rowLine(7, 8*6))) == nil {
		t.Fatal("the prefetched lines are not in L3")
	}
	ln := rowLine(20, 0)
	e := h.mshr.add(rcKey(ln))
	h.fetch(e, ln.Base())
	for eng.Pending() > 0 {
		eng.Step()
		if h.OutstandingMisses() == 0 && eng.Pending() != 0 {
			t.Fatal("a fill without waiters queued an event")
		}
	}
	if h.l3.probe(rcKey(ln)) == nil || len(h.mshr.free) == 0 {
		t.Fatal("the prefetch fill did not install its line and free its entry")
	}
}

// TestPrefetchStopsAtEndOfMemory: on a geometry narrower than 32 bits a
// trained stride that runs past the last address stops there. It neither
// installs a key no line owns nor — as Decode dropping the high bits would —
// wraps around to fetch the start of memory.
func TestPrefetchStopsAtEndOfMemory(t *testing.T) {
	geom := addr.Geometry{BankBits: 1, RowBits: 10, ColumnBits: 10, DualAddress: true}
	if geom.AddrBits() != 24 {
		t.Fatalf("geometry is %d bits wide, want 24", geom.AddrBits())
	}
	for _, o := range []addr.Orientation{addr.Row, addr.Column} {
		eng, st := event.New(), new(stats.Block)
		mem := &fakeMem{eng: eng}
		h := New(smallConfig(), geom, true, eng, st, mem.submit)
		// The fifth-, fourth- and third-last lines of memory: the third
		// access trains the stride, two lines are left to prefetch.
		const lines = 1 << 24 / addr.LineBytes
		for l := uint32(lines - 5); l < lines-2; l++ {
			k := AddrKey(l*addr.LineBytes, o)
			access(t, h, eng, Access{Core: 0, Key: k, MemCoord: k.Base(geom)})
		}
		if got := st.Get(stats.Prefetches); got != 2 {
			t.Errorf("%v: %d prefetches, want the 2 lines left before the end of memory", o, got)
		}
		last := geom.Decode(1<<24-addr.LineBytes, o)
		if got := mem.requests[len(mem.requests)-1].Coord; got != last {
			t.Errorf("%v: last fetch is of %+v, want the last line of memory %+v", o, got, last)
		}
		n := 0
		h.l3.forEach(func(ln *line) {
			n++
			if ln.key != RCKey(geom, ln.key.Line(geom)) {
				t.Errorf("%v: installed %v, which is not the key of its own line", o, ln.key)
			}
		})
		if n != 5 {
			t.Errorf("%v: %d lines in L3, want 3 fetched and 2 prefetched", o, n)
		}
		if err := h.CheckInvariants(); err != nil {
			t.Errorf("%v: %v", o, err)
		}
	}
}
