package event

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// at schedules a plain closure through AtCall: the func value rides in ctx.
func at(e *Engine, t int64, fn func()) {
	e.AtCall(t, func(ctx any, _, _ int64) { ctx.(func())() }, fn, 0)
}

func TestRunOrder(t *testing.T) {
	e := New()
	var order []int
	at(e, 30, func() { order = append(order, 3) })
	at(e, 10, func() { order = append(order, 1) })
	at(e, 20, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30 {
		t.Errorf("final time = %d, want 30", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		at(e, 5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events ran out of order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var hits []int64
	at(e, 10, func() {
		hits = append(hits, e.Now())
		at(e, e.Now()+5, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Errorf("hits = %v", hits)
	}
}

func TestPastEventClamped(t *testing.T) {
	e := New()
	var ranAt int64 = -1
	at(e, 100, func() {
		at(e, 50, func() { ranAt = e.Now() }) // in the past
	})
	e.Run()
	if ranAt != 100 {
		t.Errorf("past event ran at %d, want clamped to 100", ranAt)
	}
}

func TestStep(t *testing.T) {
	e := New()
	n := 0
	at(e, 1, func() { n++ })
	at(e, 2, func() { n++ })
	if !e.Step() || n != 1 {
		t.Fatal("first step failed")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	if !e.Step() || n != 2 {
		t.Fatal("second step failed")
	}
	if e.Step() {
		t.Fatal("step on empty queue should return false")
	}
}

// TestClockMonotonic: whatever times events are scheduled at, observed Now()
// values never decrease.
func TestClockMonotonic(t *testing.T) {
	prop := func(times []int64) bool {
		e := New()
		var seen []int64
		for _, raw := range times {
			when := raw % 1_000_000
			if when < 0 {
				when = -when
			}
			at(e, when, func() { seen = append(seen, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(times)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

type collector struct {
	order []int64
}

func collect(ctx any, arg, now int64) {
	c := ctx.(*collector)
	c.order = append(c.order, arg, now)
}

func TestAtCall(t *testing.T) {
	e := New()
	var c collector
	e.AtCall(30, collect, &c, 3)
	e.AtCall(10, collect, &c, 1)
	e.AfterCall(20, collect, &c, 2)
	e.Run()
	want := []int64{1, 10, 2, 20, 3, 30}
	if len(c.order) != len(want) {
		t.Fatalf("order = %v, want %v", c.order, want)
	}
	for i := range want {
		if c.order[i] != want[i] {
			t.Fatalf("order = %v, want %v", c.order, want)
		}
	}
}

func TestAtCallClampedPast(t *testing.T) {
	e := New()
	var c collector
	at(e, 100, func() {
		e.AtCall(50, collect, &c, 7) // in the past: clamps to 100
	})
	e.Run()
	if len(c.order) != 2 || c.order[0] != 7 || c.order[1] != 100 {
		t.Fatalf("order = %v, want [7 100]", c.order)
	}
}

// TestHeapOrderRandom drives the 4-ary heap with a large random schedule
// and checks events fire in exact (time, insertion) order.
func TestHeapOrderRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := New()
	const n = 5000
	times := make([]int64, n)
	var fired []int64
	for i := 0; i < n; i++ {
		times[i] = rng.Int63n(977) // plenty of ties
		i := i
		at(e, times[i], func() { fired = append(fired, int64(i)) })
	}
	e.Run()
	if len(fired) != n {
		t.Fatalf("fired %d events, want %d", len(fired), n)
	}
	// Expected order: stable sort by time, insertion order breaking ties.
	want := make([]int64, n)
	for i := range want {
		want[i] = int64(i)
	}
	sort.SliceStable(want, func(a, b int) bool { return times[want[a]] < times[want[b]] })
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("event %d fired as %d, want %d", i, fired[i], want[i])
		}
	}
}

// TestInterleavedPushPop exercises heap repair under a mixed workload where
// every event schedules more events (the simulator's actual shape).
func TestInterleavedPushPop(t *testing.T) {
	e := New()
	var prev int64 = -1
	count := 0
	var chain func()
	chain = func() {
		now := e.Now()
		if now < prev {
			t.Fatalf("clock went backwards: %d after %d", now, prev)
		}
		prev = now
		count++
		if count < 2000 {
			// Fan out at varied offsets, including ties.
			at(e, e.Now()+int64(count%5), chain)
		}
	}
	for i := 0; i < 8; i++ {
		at(e, int64(i%3), chain)
	}
	e.Run()
	if count < 2000 {
		t.Fatalf("ran %d events, want >= 2000", count)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		e := New()
		var order []int
		for i := 0; i < 100; i++ {
			i := i
			at(e, int64(i%7)*10, func() { order = append(order, i) })
		}
		e.Run()
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic order at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// seededSchedule drives a scheduler with a tree of events that only the
// seed decides: bursts of roots at one time, and in every callback children
// at now, in the past (clamped to now), one tick on and further out. at is
// how the scheduler under test takes an event; the return value is the
// callback to run when event id fires at time now.
func seededSchedule(seed int64, at func(t int64, id int64)) (roots func(), fire func(id, now int64)) {
	const budget = 3000
	next := int64(0)
	spawn := func(t int64) {
		if next < budget {
			at(t, next)
			next++
		}
	}
	roots = func() {
		rng := rand.New(rand.NewSource(seed))
		for burst := 0; burst < 12; burst++ {
			t := rng.Int63n(400)
			for n := rng.Intn(9); n >= 0; n-- {
				spawn(t)
			}
		}
	}
	fire = func(id, now int64) {
		rng := rand.New(rand.NewSource(seed<<20 + id))
		for n := rng.Intn(4); n > 0; n-- {
			spawn(now + []int64{0, 0, -50, 1, 1, 7, rng.Int63n(300)}[rng.Intn(7)])
		}
	}
	return roots, fire
}

type firing struct{ id, now int64 }

// TestOrderAgainstStableSort: whatever is scheduled from wherever, events
// fire in the order of a stable sort by (time, scheduling order) — checked
// against a scheduler that is nothing but that definition — and the slab
// holds no callback or context once an event has fired or Reset has
// dropped it, while its slots are reused throughout.
func TestOrderAgainstStableSort(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		// The reference: a list scanned for its least (at, seq).
		type queued struct {
			at, id int64
			seq    int
		}
		var (
			list []queued
			now  int64
			seq  int
			want []firing
		)
		roots, fire := seededSchedule(seed, func(t, id int64) {
			seq++
			list = append(list, queued{max(t, now), id, seq})
		})
		roots()
		for len(list) > 0 {
			m := 0
			for i, q := range list {
				if q.at < list[m].at || q.at == list[m].at && q.seq < list[m].seq {
					m = i
				}
			}
			q := list[m]
			list = append(list[:m], list[m+1:]...)
			now = q.at
			want = append(want, firing{q.id, now})
			fire(q.id, now)
		}

		e := New()
		var got []firing
		var cb Callback
		held := new(int) // every event's ctx: what the slab must let go of
		roots, fire = seededSchedule(seed, func(t, id int64) { e.AtCall(t, cb, held, id) })
		cb = func(ctx any, id, now int64) {
			if ctx != held || now != e.Now() {
				t.Fatalf("seed %d: event %d fired with ctx %v at %d, clock %d", seed, id, ctx, now, e.Now())
			}
			got = append(got, firing{id, now})
			fire(id, now)
		}
		slabEmpty := func(when string) {
			t.Helper()
			for i, c := range e.slab[:cap(e.slab)] {
				if c.fn != nil || c.ctx != nil {
					t.Fatalf("seed %d, %s: slab slot %d still holds a callback or context", seed, when, i)
				}
			}
		}

		// A first start, abandoned with events queued.
		roots()
		for i := 0; i < 40; i++ {
			e.Step()
		}
		if e.Pending() == 0 {
			t.Fatalf("seed %d: nothing queued at the Reset", seed)
		}
		e.Reset()
		slabEmpty("after Reset")
		if e.Pending() != 0 || e.Now() != 0 {
			t.Fatalf("seed %d: Reset left %d events, clock %d", seed, e.Pending(), e.Now())
		}

		got = got[:0]
		peak := 0
		roots, fire = seededSchedule(seed, func(t, id int64) {
			e.AtCall(t, cb, held, id)
			peak = max(peak, e.Pending())
		})
		roots()
		e.Run()
		slabEmpty("after Run")
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d events fired, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d is event %d at %d, want event %d at %d",
					seed, i, got[i].id, got[i].now, want[i].id, want[i].now)
			}
		}
		if len(e.slab) != peak || peak >= len(want) {
			t.Fatalf("seed %d: %d events, at most %d queued at once, took %d slab slots: a free slot is not reused",
				seed, len(want), peak, len(e.slab))
		}
	}
}
