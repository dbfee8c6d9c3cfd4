// Command rcnvm-bench regenerates the tables and figures of the RC-NVM
// paper's evaluation on the built-in simulator.
//
// Usage:
//
//	rcnvm-bench [-scale small|medium|full] [-run fig4,fig17,...]
//	            [-workers N] [-timing] [-telemetry]
//
// Experiments: table1, table2, fig4, fig5, fig17, fig18 (includes fig19,
// fig20, fig21), fig22, fig23, tech (PCM/3D XPoint extension), energy
// (energy-model extension). Default: all of them. The reliability sweep
// (rel: ECC corrections/uncorrectables and retry-latency overhead across
// injected raw bit error rates) and the hybrid-memory sweep (hybrid:
// DRAM tier with row-buffer-locality-aware migration in front of RRAM
// and RC-NVM on the sustained OLXP mix) are opt-in via -run, keeping the
// default output identical to earlier builds.
//
// Independent simulation cells of one experiment fan out over -workers
// goroutines (default: one per CPU); results are identical to a
// sequential run. -timing writes per-experiment wall-clock to stderr so
// the tables on stdout stay diffable.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"rcnvm/internal/benchjson"
	"rcnvm/internal/experiments"
	"rcnvm/internal/par"
)

// parseShardCounts parses the -shards flag ("1,2,4") into cluster sizes.
func parseShardCounts(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-shards: bad cluster size %q", part)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

func main() {
	scaleFlag := flag.String("scale", "full", "workload scale: small|medium|full")
	formatFlag := flag.String("format", "text", "output format: text|csv|md")
	runFlag := flag.String("run", "all", "comma-separated experiments (table1,table2,fig4,fig5,fig17,fig18,fig22,fig23,tech,energy,olxp,rel,shard,hybrid) or 'all' (rel, shard and hybrid stay opt-in)")
	workersFlag := flag.Int("workers", 0, "parallel simulation workers (0 = one per CPU)")
	shardsFlag := flag.String("shards", "1,2,4", "cluster sizes for the shard-scaling sweep (-run shard); first is the determinism baseline")
	timingFlag := flag.Bool("timing", true, "print per-experiment wall-clock timing to stderr")
	telemetryFlag := flag.Bool("telemetry", false, "append a per-bank telemetry report for the mixed workload on RC-NVM")
	benchJSON := flag.String("bench-json", "", "write machine-readable per-experiment wall-clock results as BENCH_experiments.json to this directory (\"\" disables)")
	flag.Parse()

	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	format, err := experiments.ParseFormat(*formatFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	workers := *workersFlag
	render := func(t experiments.TableData) {
		if err := t.RenderAs(os.Stdout, format); err != nil {
			fmt.Fprintln(os.Stderr, "rcnvm-bench:", err)
			os.Exit(1)
		}
	}

	want := map[string]bool{}
	if *runFlag == "all" {
		for _, id := range []string{"table1", "table2", "fig4", "fig5", "fig17", "fig18", "fig22", "fig23", "tech", "energy", "olxp"} {
			want[id] = true
		}
	} else {
		for _, id := range strings.Split(*runFlag, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	total := time.Duration(0)
	var benchMetrics []benchjson.Metric
	// step runs one experiment if selected, timing it so sweep-level perf
	// regressions are visible without polluting the stdout tables.
	step := func(id string, fn func() error) {
		if !want[id] {
			return
		}
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintln(os.Stderr, "rcnvm-bench:", err)
			os.Exit(1)
		}
		d := time.Since(start)
		total += d
		if *timingFlag {
			fmt.Fprintf(os.Stderr, "timing  %-7s %8.2fs\n", id, d.Seconds())
		}
		benchMetrics = append(benchMetrics, benchjson.Metric{
			Name: id + "_seconds", Value: d.Seconds(), Unit: "s", Better: benchjson.Lower,
		})
	}

	step("table1", func() error {
		fmt.Print(experiments.ConfigTable())
		return nil
	})
	step("table2", func() error {
		fmt.Print(experiments.QueryTable())
		return nil
	})
	step("fig4", func() error {
		render(experiments.AreaOverhead())
		return nil
	})
	step("fig5", func() error {
		render(experiments.LatencyOverhead())
		return nil
	})
	step("fig17", func() error {
		tab, err := experiments.MicroBench(scale, workers)
		if err != nil {
			return err
		}
		render(tab)
		return nil
	})
	if want["fig19"] || want["fig20"] || want["fig21"] {
		want["fig18"] = true
	}
	step("fig18", func() error {
		res, err := experiments.QueryBench(scale, workers)
		if err != nil {
			return err
		}
		render(res.Exec)
		render(res.Accesses)
		render(res.BufMiss)
		render(res.Coherence)
		return nil
	})
	step("fig22", func() error {
		tab, err := experiments.LatencySensitivity(scale, workers)
		if err != nil {
			return err
		}
		render(tab)
		return nil
	})
	step("fig23", func() error {
		tab, err := experiments.GroupCaching(scale, workers)
		if err != nil {
			return err
		}
		render(tab)
		return nil
	})
	step("tech", func() error {
		tab, err := experiments.TechnologyComparison(scale, workers)
		if err != nil {
			return err
		}
		render(tab)
		return nil
	})
	step("energy", func() error {
		tab, err := experiments.EnergyComparison(scale, workers)
		if err != nil {
			return err
		}
		render(tab)
		return nil
	})
	step("olxp", func() error {
		tab, err := experiments.OLXPMix(scale, workers)
		if err != nil {
			return err
		}
		render(tab)
		return nil
	})
	step("rel", func() error {
		tab, err := experiments.ReliabilitySweep(scale, workers)
		if err != nil {
			return err
		}
		render(tab)
		return nil
	})
	step("hybrid", func() error {
		tab, err := experiments.HybridSweep(scale, workers)
		if err != nil {
			return err
		}
		render(tab)
		return nil
	})
	step("shard", func() error {
		counts, err := parseShardCounts(*shardsFlag)
		if err != nil {
			return err
		}
		tab, err := experiments.ShardScaling(counts, workers)
		if err != nil {
			return err
		}
		render(tab)
		return nil
	})
	if *telemetryFlag {
		rep, err := experiments.TelemetryReport(scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rcnvm-bench:", err)
			os.Exit(1)
		}
		fmt.Print(rep)
	}
	if *timingFlag {
		fmt.Fprintf(os.Stderr, "timing  total   %8.2fs (workers=%d)\n",
			total.Seconds(), par.Workers(workers))
	}
	if *benchJSON != "" {
		path, err := benchjson.Write(*benchJSON, &benchjson.Result{
			Name: "experiments",
			Config: map[string]any{
				"scale":   *scaleFlag,
				"run":     *runFlag,
				"workers": par.Workers(workers),
			},
			Metrics: append(benchMetrics, benchjson.Metric{
				Name: "total_seconds", Value: total.Seconds(), Unit: "s", Better: benchjson.Lower,
			}),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "rcnvm-bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "rcnvm-bench: wrote %s\n", path)
	}
}
