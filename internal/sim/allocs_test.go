// An allocation ceiling holds the build that serves traffic, so like the
// repository's other ceilings this one is left out of -race builds.

//go:build !race

package sim_test

import (
	"testing"

	"rcnvm/internal/config"
	"rcnvm/internal/obs"
	"rcnvm/internal/sim"
	"rcnvm/internal/trace"
)

// TestReplayerTimeAllocs holds what a warm timed replay allocates outside
// the simulation: the Timing, its shard breakdown and the row-only copy of
// the stream. Neither replay renders a Result, so no counter map, latency
// histogram or per-bank copy is built, and the telemetry is added to in
// place.
func TestReplayerTimeAllocs(t *testing.T) {
	streams := []trace.Stream{captureSum(t)}
	tels := []*obs.Telemetry{obs.NewTelemetry(config.RCNVM().Device.Geom.TotalBanks())}
	r := sim.NewReplayer(1)
	if _, err := r.Time(streams, tels, nil, 0); err != nil { // build the system
		t.Fatal(err)
	}
	const ceiling = 3
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.Time(streams, tels, nil, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("warm Replayer.Time allocates %.1f/op, want <= %d", allocs, ceiling)
	}
	if r.Built() != 1 {
		t.Fatalf("%d systems built, want 1", r.Built())
	}
}
