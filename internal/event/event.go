// Package event provides the deterministic discrete-event engine that
// drives the full-system simulation: a monotonic picosecond clock and a
// typed 4-ary min-heap event queue with FIFO tie-breaking, so identical
// inputs always produce identical schedules.
//
// The queue is the simulator's innermost loop, so it is built to stay off
// the garbage collector's radar: items live inline in a reusable slice
// (no container/heap `any` boxing), and the one scheduling form, AtCall
// (AfterCall is the same relative to now), takes a static function plus a
// context pointer instead of a fresh closure per event. Once the queue
// slice has grown to the workload's high-water mark, Run executes with
// zero allocations.
package event

// Callback is the allocation-free event form: a static function invoked as
// fn(ctx, arg, now), where ctx and arg were captured at scheduling time and
// now is the firing time. Passing a pointer (or a func value) as ctx does
// not allocate; components pass their own struct pointer and decode it with
// a type assertion.
type Callback func(ctx any, arg int64, now int64)

// item is one scheduled event, stored inline in the heap slice.
type item struct {
	at  int64
	seq uint64
	fn  Callback
	ctx any
	arg int64
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; all simulator components run inside its event callbacks.
// Independent engines (one per simulated system) may run on separate
// goroutines, which is what the parallel sweep harness does.
type Engine struct {
	now int64
	seq uint64
	q   []item
}

// New returns an engine with the clock at zero.
func New() *Engine {
	return &Engine{}
}

// Reset returns the engine to its just-built state — clock and sequence at
// zero, no event queued — keeping the queue's capacity.
func (e *Engine) Reset() {
	clear(e.q)
	*e = Engine{q: e.q[:0]}
}

// Now returns the current simulation time in picoseconds.
func (e *Engine) Now() int64 { return e.now }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.q) }

// Reserve pre-grows the queue to hold n events without reallocating.
func (e *Engine) Reserve(n int) {
	if cap(e.q) < n {
		q := make([]item, len(e.q), n)
		copy(q, e.q)
		e.q = q
	}
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
	e.seq++
	e.push(item{at: t, seq: e.seq, fn: fn, ctx: ctx, arg: arg})
}

// AfterCall schedules fn(ctx, arg, firingTime) d picoseconds from now.
func (e *Engine) AfterCall(d int64, fn Callback, ctx any, arg int64) {
	e.AtCall(e.now+d, fn, ctx, arg)
}

// Run executes events in time order until the queue drains, and returns the
// final clock value.
func (e *Engine) Run() int64 {
	for len(e.q) > 0 {
		e.fire()
	}
	return e.now
}

// Step executes exactly one event, returning false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.q) == 0 {
		return false
	}
	e.fire()
	return true
}

func (e *Engine) fire() {
	it := e.pop()
	e.now = it.at
	it.fn(it.ctx, it.arg, it.at)
}

// The queue is a 4-ary min-heap ordered by (at, seq): children of node i
// live at 4i+1..4i+4. The wider fan-out halves the tree depth of the binary
// heap, trading a few extra comparisons per sift-down for fewer item moves
// — a win when items are 6 words and pops dominate. seq makes the order
// total, so same-time events pop in FIFO order despite the heap itself
// being unstable.

func (a *item) before(b *item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push appends it and sifts it up with a hole: parents move down until the
// insertion point is found, then the item is written once.
func (e *Engine) push(it item) {
	e.q = append(e.q, it)
	i := len(e.q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !it.before(&e.q[p]) {
			break
		}
		e.q[i] = e.q[p]
		i = p
	}
	e.q[i] = it
}

// pop removes and returns the minimum item, then re-heapifies by sifting
// the last item down from the root. The vacated tail slot is zeroed so the
// queue never retains ctx or fn references for the garbage collector.
func (e *Engine) pop() item {
	top := e.q[0]
	n := len(e.q) - 1
	last := e.q[n]
	e.q[n] = item{}
	e.q = e.q[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if e.q[j].before(&e.q[m]) {
				m = j
			}
		}
		if !e.q[m].before(&last) {
			break
		}
		e.q[i] = e.q[m]
		i = m
	}
	e.q[i] = last
	return top
}
