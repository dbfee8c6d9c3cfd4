package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// TestQueryBenchParallelDeterministic: the parallel sweep must render
// byte-identically to the sequential sweep — every cell builds a fresh
// sim.System (no shared mutable state) and results are slotted by cell
// index, so worker scheduling cannot reorder or perturb the tables. Run
// with -race in CI to also catch any sharing the argument above missed.
func TestQueryBenchParallelDeterministic(t *testing.T) {
	seq, err := QueryBench(ScaleSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := QueryBench(ScaleSmall, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, views := range []struct {
		name     string
		seq, par TableData
	}{
		{"exec", seq.Exec, par.Exec},
		{"accesses", seq.Accesses, par.Accesses},
		{"bufmiss", seq.BufMiss, par.BufMiss},
		{"coherence", seq.Coherence, par.Coherence},
	} {
		if s, p := views.seq.String(), views.par.String(); s != p {
			t.Errorf("%s: parallel output differs from sequential:\n--- seq\n%s\n--- par\n%s", views.name, s, p)
		}
	}
}

// TestLatencySensitivityParallelDeterministic: same property for the
// Figure 22 sweep, whose cells span many derived system configurations.
func TestLatencySensitivityParallelDeterministic(t *testing.T) {
	seq, err := LatencySensitivity(ScaleSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := LatencySensitivity(ScaleSmall, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s, p := seq.String(), par.String(); s != p {
		t.Errorf("parallel output differs from sequential:\n--- seq\n%s\n--- par\n%s", s, p)
	}
	if !strings.Contains(seq.String(), "Figure 22") {
		t.Error("rendered table missing header")
	}
}

// BenchmarkSweepParallel measures the Figures 18-21 sweep wall-clock at 1
// worker vs 4 (bench/'s sim_sweep workload is the measured version).
// On multi-core hosts the 4-worker sweep approaches a linear speedup
// (cells are independent); on a single core it should only pay goroutine
// overhead, not regress.
func BenchmarkSweepParallel(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := QueryBench(ScaleSmall, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
