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

// BenchmarkEventEngine measures the push/pop hot path: per iteration, 64
// concurrent event chains each 16 rearms deep (1088 events) drain through
// one reused engine. The acceptance bar is 0 allocs/op in steady state:
// after the first iteration grows the queue slice to its high-water mark,
// scheduling and firing allocate nothing.
func BenchmarkEventEngine(b *testing.B) {
	const chains, depth = 64, 16
	e := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < chains; j++ {
			e.AtCall(e.Now()+int64(j), pump, e, depth)
		}
		e.Run()
	}
	b.ReportMetric(float64(chains*(depth+1)), "events/op")
}

// TestEventEngineZeroAllocSteadyState pins the 0 allocs/op contract
// deterministically (benchmarks average the warm-up iteration away; this
// measures steady state directly). The observability layer relies on it:
// with no recorder attached, tracing must cost nothing here.
func TestEventEngineZeroAllocSteadyState(t *testing.T) {
	const chains, depth = 64, 16
	e := New()
	round := func() {
		for j := 0; j < chains; j++ {
			e.AtCall(e.Now()+int64(j), pump, e, depth)
		}
		e.Run()
	}
	round() // warm: grows the queue slice to its high-water mark
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Fatalf("steady-state allocs per round = %g, want 0", allocs)
	}
}
