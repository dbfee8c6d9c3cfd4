// Package event provides the deterministic discrete-event engine that
// drives the full-system simulation: a monotonic picosecond clock and a
// typed 4-ary min-heap event queue with FIFO tie-breaking, so identical
// inputs always produce identical schedules.
//
// The queue is the simulator's innermost loop, so it is built to stay off
// the garbage collector's radar and to move little: the heap orders
// three-word (at, seq, slot) items that hold no pointer, the callback of
// each lives in a slab slot found through the item and recycled through a
// free list, and AtCall takes a static function plus a context pointer
// instead of a fresh closure per event. Once heap and slab have grown to the workload's high-water mark,
// Run executes with zero allocations.
//
// The second scheduling form is the timer: a callback registered once
// (NewTimer) with at most one firing pending at a time (Arm). The simulator
// has one per core for the core's next issue step — the most common event
// there is — and armed timers wait beside the heap instead of in it. Arm
// takes its sequence number from the same counter as AtCall, and every
// firing is the earliest (at, seq) of the heap top and the armed timers, so
// the order of events is the same whichever form scheduled them.
package event

import (
	"math"
	"math/bits"
	"slices"
)

// Callback is the allocation-free event form: a static function invoked as
// fn(ctx, arg, now), where ctx and arg were captured at scheduling time and
// now is the firing time. Passing a pointer (or a func value) as ctx does
// not allocate; components pass their own struct pointer and decode it with
// a type assertion.
type Callback func(ctx any, arg int64, now int64)

// item is one scheduled event as the heap sees it: when, in which order
// among equals, and where its callback is. at is never negative (the clock
// starts at zero and AtCall clamps to it), so it is held unsigned and
// (at, seq) compares as one 128-bit number.
type item struct {
	at   uint64
	seq  uint64
	slot int32
}

// call is one slab slot: the callback of a queued event, or — fn nil — a
// free slot whose arg is the next free slot's index.
type call struct {
	fn  Callback
	ctx any
	arg int64
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; all simulator components run inside its event callbacks.
// Independent engines (one per simulated system) may run on separate
// goroutines, which is what the parallel sweep harness does.
type Engine struct {
	now  int64
	seq  uint64
	q    []item
	slab []call
	free int32 // head of the free-slot list threaded through slab, -1 when empty

	timers []timer
	armed  []int32 // the armed timers, latest (at, seq) first: the next to fire is last
}

// Timer names a callback registered with NewTimer.
type Timer int32

// timer is one registered timer: its callback, and in key the (at, seq) of
// its pending firing — disarmed, the largest key there is.
type timer struct {
	key item
	fn  Callback
	ctx any
}

// disarmed is the key of a timer with no firing pending: after every armed
// one, since an armed timer's at is a non-negative int64.
var disarmed = item{at: math.MaxUint64, seq: math.MaxUint64}

// New returns an engine with the clock at zero.
func New() *Engine { return &Engine{free: -1} }

// Reset returns the engine to its just-built state — clock and sequence at
// zero, no event queued and no timer armed, no event's callback or context
// held — keeping the capacity of queue and slab and the timer
// registrations.
func (e *Engine) Reset() {
	clear(e.slab)
	for i := range e.timers {
		e.timers[i].key = disarmed
	}
	*e = Engine{q: e.q[:0], slab: e.slab[:0], free: -1, timers: e.timers, armed: e.armed[:0]}
}

// Now returns the current simulation time in picoseconds.
func (e *Engine) Now() int64 { return e.now }

// Pending returns the number of queued events, armed timers included.
func (e *Engine) Pending() int { return len(e.q) + len(e.armed) }

// NewTimer registers fn(ctx, 0, firingTime) as a timer, disarmed. The
// registration lasts as long as the engine, Resets included.
func (e *Engine) NewTimer(fn Callback, ctx any) Timer {
	e.timers = append(e.timers, timer{key: disarmed, fn: fn, ctx: ctx})
	e.armed = slices.Grow(e.armed, len(e.timers)-len(e.armed)) // room to arm every timer without allocating
	return Timer(len(e.timers) - 1)
}

// Arm schedules timer tm's callback at absolute time t, exactly as AtCall
// would schedule it: the same clamp to now, the next sequence number. A
// timer has at most one firing pending; arming an armed timer panics.
func (e *Engine) Arm(tm Timer, t int64) {
	if t < e.now {
		t = e.now
	}
	k := &e.timers[tm].key
	if *k != disarmed {
		panic("event: timer armed while a firing is pending")
	}
	e.seq++
	*k = item{at: uint64(t), seq: e.seq}
	// The new firing has the largest seq yet, so it comes after every armed
	// timer due at or before t: those, a suffix of armed, move up one.
	i := len(e.armed)
	e.armed = append(e.armed, 0)
	for i > 0 && e.timers[e.armed[i-1]].key.at <= k.at {
		e.armed[i] = e.armed[i-1]
		i--
	}
	e.armed[i] = int32(tm)
}

// AtCall schedules fn(ctx, arg, firingTime) at absolute time t. fn should
// be a static (package-level) function and ctx a long-lived pointer or a
// func value the caller already holds, so no per-event closure exists.
// Scheduling in the past runs the event at the current time (the clock
// never rewinds), so firingTime equals t unless t was clamped to now.
func (e *Engine) AtCall(t int64, fn Callback, ctx any, arg int64) {
	if t < e.now {
		t = e.now
	}
	slot := e.free
	if slot < 0 {
		slot = int32(len(e.slab))
		e.slab = append(e.slab, call{arg: -1})
	}
	e.free = int32(e.slab[slot].arg)
	e.slab[slot] = call{fn, ctx, arg}
	e.seq++
	e.push(item{at: uint64(t), seq: e.seq, slot: slot})
}

// Run executes events in time order until the queue drains and no timer is
// armed, and returns the final clock value.
func (e *Engine) Run() int64 {
	for len(e.q) > 0 || len(e.armed) > 0 {
		e.fire()
	}
	return e.now
}

// Step executes exactly one event, returning false when nothing is queued.
func (e *Engine) Step() bool {
	if len(e.q) == 0 && len(e.armed) == 0 {
		return false
	}
	e.fire()
	return true
}

// fire runs the earliest event: the earliest armed timer if it comes before
// the heap top, the heap top otherwise. A heap event's slab slot is emptied
// and put on the free list before the callback runs — the slab never
// retains a fired event's fn or ctx for the garbage collector, and whatever
// the callback schedules can take the slot straight back. A timer is
// disarmed before its callback runs, so the callback may arm it again.
func (e *Engine) fire() {
	if n := len(e.armed) - 1; n >= 0 && (len(e.q) == 0 || e.timers[e.armed[n]].key.before(&e.q[0])) {
		tm := &e.timers[e.armed[n]]
		e.armed = e.armed[:n]
		fn, ctx := tm.fn, tm.ctx
		e.now = int64(tm.key.at)
		tm.key = disarmed
		fn(ctx, 0, e.now)
		return
	}
	it := e.pop()
	c := &e.slab[it.slot]
	fn, ctx, arg := c.fn, c.ctx, c.arg
	*c = call{arg: int64(e.free)}
	e.free = it.slot
	e.now = int64(it.at)
	fn(ctx, arg, e.now)
}

// The queue is a 4-ary min-heap ordered by (at, seq): children of node i
// live at 4i+1..4i+4. The wider fan-out halves the tree depth of the binary
// heap, trading a few extra comparisons per sift-down for fewer item moves.
// seq makes the order total, so same-time events pop in FIFO order despite
// the heap itself being unstable.

// before reports (a.at, a.seq) < (b.at, b.seq), as the borrow out of one
// 128-bit subtraction: no branch for the predictor to miss on the at tie
// that same-time bursts make common.
func (a *item) before(b *item) bool { return a.lt(b) != 0 }

// lt is before as a number, 1 or 0, for selecting without branching.
func (a *item) lt(b *item) int {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(a.at, b.at, borrow)
	return int(borrow)
}

// push appends it and sifts it up with a hole: parents move down until the
// insertion point is found, then the item is written once.
func (e *Engine) push(it item) {
	e.q = append(e.q, it)
	q := e.q
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !it.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = it
}

// pop removes and returns the minimum item, then re-heapifies by sifting
// the last item down from the root.
func (e *Engine) pop() item {
	top := e.q[0]
	n := len(e.q) - 1
	last := e.q[n]
	q := e.q[:n]
	e.q = q
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		if c+4 <= n {
			// A full node: its least child by a two-round tournament of
			// selects, not branches — which child wins is as good as
			// random, and a mispredicted branch costs more than the chain.
			m01 := c + 1 - q[c].lt(&q[c+1])
			m23 := c + 3 - q[c+2].lt(&q[c+3])
			m = m23 + (m01-m23)*q[m01].lt(&q[m23])
		} else {
			for j := c + 1; j < n; j++ {
				if q[j].before(&q[m]) {
					m = j
				}
			}
		}
		if !q[m].before(&last) {
			break
		}
		q[i] = q[m]
		i = m
	}
	if n > 0 {
		q[i] = last
	}
	return top
}
