package event

import "testing"

// pump is the benchmark event body: each firing re-arms itself until its
// countdown (arg) reaches zero. Being a package-level function invoked
// through AtCall with the engine as ctx, it models the simulator's
// steady-state shape — schedule, fire, reschedule — with no closures.
func pump(ctx any, arg, now int64) {
	if arg > 0 {
		ctx.(*Engine).AtCall(now+1, pump, ctx, arg-1)
	}
}

// ticker is the benchmark's timer: like a core's issue step, each firing
// re-arms it one tick on until its countdown reaches zero.
type ticker struct {
	e    *Engine
	tm   Timer
	left int
}

func tick(ctx any, _, now int64) {
	if t := ctx.(*ticker); t.left > 0 {
		t.left--
		t.e.Arm(t.tm, now+1)
	}
}

const chains, depth = 64, 16

// round drains one benchmark iteration through e: 64 concurrent event
// chains each 16 rearms deep, beside a timer that fires as often as a
// chain (1105 events).
func round(e *Engine, t *ticker) {
	for j := 0; j < chains; j++ {
		e.AtCall(e.Now()+int64(j), pump, e, depth)
	}
	t.left = depth
	e.Arm(t.tm, e.Now())
	e.Run()
}

func newTicker(e *Engine) *ticker {
	t := &ticker{e: e}
	t.tm = e.NewTimer(tick, t)
	return t
}

// BenchmarkEventEngine measures the scheduling hot path, heap and timer,
// through one reused engine. The acceptance bar is 0 allocs/op in steady
// state: after the first iteration grows the queue slice to its high-water
// mark, scheduling and firing allocate nothing.
func BenchmarkEventEngine(b *testing.B) {
	e := New()
	t := newTicker(e)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		round(e, t)
	}
	b.ReportMetric(float64((chains+1)*(depth+1)), "events/op")
}

// TestEventEngineZeroAllocSteadyState pins the 0 allocs/op contract
// deterministically (benchmarks average the warm-up iteration away; this
// measures steady state directly). The observability layer relies on it:
// with no recorder attached, tracing must cost nothing here.
func TestEventEngineZeroAllocSteadyState(t *testing.T) {
	e := New()
	tk := newTicker(e)
	round(e, tk) // warm: grows the queue slice to its high-water mark
	if allocs := testing.AllocsPerRun(10, func() { round(e, tk) }); allocs != 0 {
		t.Fatalf("steady-state allocs per round = %g, want 0", allocs)
	}
}
