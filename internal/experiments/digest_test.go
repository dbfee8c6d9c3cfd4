package experiments

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"

	"rcnvm/internal/config"
	"rcnvm/internal/par"
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
	if got := sweepDigest(t, ScaleSmall, 1); got != sweepDigestSmall {
		t.Fatalf("sweep digest = %s, want %s", got, sweepDigestSmall)
	}
}

// sweepDigest runs the Fig 18-21 cell set at scale s on the given number
// of workers and returns its digest in the sim_stats_digest format.
func sweepDigest(t *testing.T, s Scale, workers int) string {
	t.Helper()
	p := ParamsFor(s)
	systems, queries := config.All(), workload.Queries()
	results, err := par.Sweep(context.Background(), workers, len(systems)*len(queries), func(i int) (sim.Result, error) {
		sys, q := systems[i/len(queries)], queries[i%len(queries)]
		env, err := workload.NewEnv(sys, p)
		if err != nil {
			return sim.Result{}, err
		}
		if err := q.Build(env); err != nil {
			return sim.Result{}, fmt.Errorf("%s on %s: %w", q.ID, sys.Name, err)
		}
		res, err := sim.RunOn(sys, env.Exec.Streams())
		if err != nil {
			return sim.Result{}, fmt.Errorf("%s on %s: %w", q.ID, sys.Name, err)
		}
		return res, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, res := range results {
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
	return fmt.Sprintf("%x", h.Sum(nil))
}

// experimentDigestsSmall is the SHA-256 of what each rcnvm-bench -run id
// prints at the small scale in text, the shard sweep over 1, 2 and 4
// shards. A change that only makes an experiment faster leaves these alone;
// a model change re-pins the ids it moves and says why.
var experimentDigestsSmall = map[string]string{
	"table1": "ced90e326e75aecd82c0227edce9c692629c5f99fcc827f4b726b366b4237331",
	"table2": "2f411d188e750810136805beb82ac97c508d23e2f23e36c897ea5e255f72f83e",
	"fig4":   "08d321f3175de9d140595c8dac7a4f00160920dde0b695b6a0e42162527d5e1f",
	"fig5":   "e5190666651857fa597d1ccdbf013b433f10d30cda47903dc394d34eb4b2c2b0",
	"fig17":  "70cbfcfd85630992c204be04954e2efe66ac455f10e6942983ef50b643c5985a",
	"fig18":  "533dc6ba52cd719442d95269252f78cf4ac8ac0136ce5091e70bc1020b14a154",
	"fig22":  "15638b77379eb2c9c2e048a5fb3322ff9248974167b684d4210fc883e6859c3f",
	"fig23":  "bd0639c7602399bce0f80745a6458dd61bf6d9ac359cf0bd2c090e4dbe0f1abc",
	"tech":   "0c1ab6ef1b0daf21597051989aef2add3c43f970035302d36032397f90662b10",
	"energy": "dee6a606a0b70a042705099e99b612414cadeb7b813444cd4e0495771e0b32d7",
	"olxp":   "3a245831e95b9eba2137addec4808006ec5f97c2aca7a35e06bfe6abd6a45d0b",
	"rel":    "d26f7368e0bd55e9d69c3143c4500f11afd7dc0d61a114f26a693b30f20c71ff",
	"hybrid": "ec59e514d7db8aca7ee81bcd65d8fada68a89dc990b7fe8b39e3783e6742aa45",
	"shard":  "5581759773e5e67d959a64bb941788c84df350b7a756e4e14a1c5f9dd00627fb",
	// ablation is results/ablation_small.txt; telemetry is the whole
	// per-bank report, its sim time header included.
	"ablation":  "418ae219973b183ea01f9c49177b6e5089d897a295a3f40df8935bf7b53ed6e0",
	"telemetry": "cef001d3658b239c28d8062bf09d6674adf33a0178dbdd31749748607bc5e8bd",
}

// TestExperimentDigestsPinned runs every experiment of the list rcnvm-bench
// reads at the small scale and compares its output with its pin.
func TestExperimentDigestsPinned(t *testing.T) {
	if len(Experiments) != len(experimentDigestsSmall) {
		t.Errorf("%d experiments, %d pins", len(Experiments), len(experimentDigestsSmall))
	}
	for _, e := range Experiments {
		h := sha256.New()
		if err := e.Run(h, Options{Scale: ScaleSmall, Format: Text, Shards: []int{1, 2, 4}}); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != experimentDigestsSmall[e.ID] {
			t.Errorf("%s: digest %s, want %s", e.ID, got, experimentDigestsSmall[e.ID])
		}
	}
}
