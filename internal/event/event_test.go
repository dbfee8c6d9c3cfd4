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
	e.AtCall(e.Now()+20, collect, &c, 2)
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
// at now, in the past (clamped to now), one tick on and further out. at and
// arm are how the scheduler under test takes an event: through AtCall, or
// on one of the given number of timers, which the tree arms only while it
// has no firing pending (arming at now, in the past and in same-time
// bursts like any other event). The return values are the roots to
// schedule and the callback to run when event id fires at time now.
func seededSchedule(seed int64, timers int, at func(t, id int64), arm func(tm int, t, id int64)) (roots func(), fire func(id, now int64)) {
	const budget = 3000
	next := int64(0)
	armedOn := map[int64]int{} // pending timer firings: event id -> timer
	busy := make([]bool, timers)
	spawn := func(rng *rand.Rand, t int64) {
		if next >= budget {
			return
		}
		tm := -1
		if timers > 0 && rng.Intn(2) == 0 {
			for i, start := 0, rng.Intn(timers); i < timers && tm < 0; i++ {
				if c := (start + i) % timers; !busy[c] {
					tm = c
				}
			}
		}
		if tm < 0 {
			at(t, next)
		} else {
			busy[tm], armedOn[next] = true, tm
			arm(tm, t, next)
		}
		next++
	}
	roots = func() {
		rng := rand.New(rand.NewSource(seed))
		for burst := 0; burst < 12; burst++ {
			t := rng.Int63n(400)
			for n := rng.Intn(9); n >= 0; n-- {
				spawn(rng, t)
			}
		}
	}
	fire = func(id, now int64) {
		if tm, ok := armedOn[id]; ok {
			busy[tm] = false
			delete(armedOn, id)
		}
		rng := rand.New(rand.NewSource(seed<<20 + id))
		for n := rng.Intn(4); n > 0; n-- {
			spawn(rng, now+[]int64{0, 0, -50, 1, 1, 7, rng.Int63n(300)}[rng.Intn(7)])
		}
	}
	return roots, fire
}

type firing struct{ id, now int64 }

// TestOrderAgainstStableSort: whatever is scheduled from wherever, through
// AtCall or on a timer, events fire in the order of a stable sort by (time,
// scheduling order) — checked against a scheduler that is nothing but that
// definition — and the slab holds no callback or context once an event has
// fired or Reset has dropped it, while its slots are reused throughout.
func TestOrderAgainstStableSort(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, timers := range []int{0, 1, 4} {
			checkOrder(t, seed, timers)
		}
	}
}

// FuzzEngineOrder is TestOrderAgainstStableSort over any seed and timer
// count.
func FuzzEngineOrder(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(7), uint8(1))
	f.Add(int64(-3), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, timers uint8) {
		checkOrder(t, seed, int(timers%6))
	})
}

func checkOrder(t *testing.T, seed int64, timers int) {
	t.Helper()
	// The reference: a list scanned for its least (at, seq). A timer's
	// firing is one more entry, sequenced like any other.
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
	enqueue := func(t, id int64) {
		seq++
		list = append(list, queued{max(t, now), id, seq})
	}
	roots, fire := seededSchedule(seed, timers, enqueue, func(_ int, t, id int64) { enqueue(t, id) })
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
	held := new(int)                 // every AtCall event's ctx: what the slab must let go of
	pending := make([]int64, timers) // the id of each timer's pending firing
	tms := make([]Timer, timers)
	for i := range tms {
		tms[i] = e.NewTimer(func(ctx any, arg, now int64) {
			if arg != 0 {
				t.Fatalf("seed %d: timer fired with arg %d", seed, arg)
			}
			cb(held, *ctx.(*int64), now)
		}, &pending[i])
	}
	at := func(t, id int64) { e.AtCall(t, cb, held, id) }
	arm := func(tm int, t, id int64) { pending[tm] = id; e.Arm(tms[tm], t) }
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

	// A first start, abandoned with events queued and timers armed.
	roots, fire = seededSchedule(seed, timers, at, arm)
	roots()
	for i := 0; i < 40 && e.Pending() > 1; i++ {
		e.Step()
	}
	if e.Pending() == 0 {
		t.Fatalf("seed %d: nothing queued at the Reset", seed)
	}
	e.Reset()
	slabEmpty("after Reset")
	if e.Pending() != 0 || e.Now() != 0 || e.Step() {
		t.Fatalf("seed %d: Reset left %d events, clock %d", seed, e.Pending(), e.Now())
	}

	// The run, on the timers registered before the Reset.
	got = got[:0]
	peak := 0
	roots, fire = seededSchedule(seed, timers, func(t, id int64) {
		at(t, id)
		peak = max(peak, len(e.q))
	}, arm)
	roots()
	e.Run()
	slabEmpty("after Run")
	if len(got) != len(want) {
		t.Fatalf("seed %d, %d timers: %d events fired, want %d", seed, timers, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seed %d, %d timers: firing %d is event %d at %d, want event %d at %d",
				seed, timers, i, got[i].id, got[i].now, want[i].id, want[i].now)
		}
	}
	if len(e.slab) != peak || peak >= len(want) {
		t.Fatalf("seed %d: %d events, at most %d queued at once, took %d slab slots: a free slot is not reused",
			seed, len(want), peak, len(e.slab))
	}
}

// TestArmTwicePanics: a timer has at most one firing pending.
func TestArmTwicePanics(t *testing.T) {
	e := New()
	tm := e.NewTimer(func(any, int64, int64) {}, nil)
	e.Arm(tm, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("arming an armed timer did not panic")
		}
	}()
	e.Arm(tm, 9)
}
