package experiments

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"

	"rcnvm/internal/config"
	"rcnvm/internal/sim"
	"rcnvm/internal/workload"
)

// sweepDigestSmall is the digest of the Fig 18-21 cell set at the small
// scale. The simulator is deterministic, so a change that only makes it
// faster leaves this value alone; a model change re-pins it and says why.
const sweepDigestSmall = "fb25f670a5ffe894a29a44bedec6bff21e882cbf5216a7b04c6c8b945669005e"

// TestSweepDigestPinned runs every memory system of config.All() on every
// benchmark query at the small scale and hashes what each cell simulated:
// per cell "<name> <TimePs>", then its counters as sorted "name=value"
// lines — the format of the sim_sweep benchmark's sim_stats_digest.
func TestSweepDigestPinned(t *testing.T) {
	h := sha256.New()
	p := ParamsFor(ScaleSmall)
	for _, sys := range config.All() {
		for _, q := range workload.Queries() {
			env, err := workload.NewEnv(sys, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := q.Build(env); err != nil {
				t.Fatalf("%s on %s: %v", q.ID, sys.Name, err)
			}
			res, err := sim.RunOn(sys, env.Exec.Streams())
			if err != nil {
				t.Fatalf("%s on %s: %v", q.ID, sys.Name, err)
			}
			fmt.Fprintf(h, "%s %d\n", res.Name, res.TimePs)
			names := make([]string, 0, len(res.Counters))
			for name := range res.Counters {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fmt.Fprintf(h, "%s=%d\n", name, res.Counters[name])
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != sweepDigestSmall {
		t.Fatalf("sweep digest = %s, want %s", got, sweepDigestSmall)
	}
}
