// Command rcnvm-bench regenerates the tables and figures of the RC-NVM
// paper's evaluation on the built-in simulator.
//
// Usage:
//
//	rcnvm-bench [-scale small|medium|full] [-run fig4,fig17,...]
//	            [-workers N] [-timing]
//
// -run takes the experiment ids -h lists (experiments.Experiments; fig19,
// fig20 and fig21 come out of fig18's sweep). Default: all but the opt-in
// ones, which run only when named, so the default output stays identical
// to earlier builds. An id that names no experiment is an error (exit 2,
// with the valid ids).
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
	"slices"
	"strconv"
	"strings"
	"time"

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
	var ids, optIn []string
	for _, e := range experiments.Experiments {
		ids = append(ids, e.ID)
		if e.OptIn {
			optIn = append(optIn, e.ID)
		}
	}
	scaleFlag := flag.String("scale", "full", "workload scale: small|medium|full")
	formatFlag := flag.String("format", "text", "output format: text|csv|md")
	runFlag := flag.String("run", "all", fmt.Sprintf("comma-separated experiments (%s) or 'all' (%s stay opt-in)",
		strings.Join(ids, ","), strings.Join(optIn, ", ")))
	workersFlag := flag.Int("workers", 0, "parallel simulation workers (0 = one per CPU)")
	shardsFlag := flag.String("shards", "1,2,4", "cluster sizes for the shard-scaling sweep (-run shard); first is the determinism baseline")
	timingFlag := flag.Bool("timing", true, "print per-experiment wall-clock timing to stderr")
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
	want := map[string]bool{} // the ids -run names
	if *runFlag != "all" {
		for _, id := range strings.Split(*runFlag, ",") {
			id = strings.TrimSpace(id)
			if id == "fig19" || id == "fig20" || id == "fig21" {
				id = "fig18" // one sweep renders all four figures
			}
			if !slices.Contains(ids, id) {
				fmt.Fprintf(os.Stderr, "rcnvm-bench: -run: unknown experiment %q (valid: %s, or all; fig19-fig21 run fig18)\n", id, strings.Join(ids, ", "))
				os.Exit(2)
			}
			want[id] = true
		}
	}
	opts := experiments.Options{Scale: scale, Format: format, Workers: *workersFlag}
	if want["shard"] {
		if opts.Shards, err = parseShardCounts(*shardsFlag); err != nil {
			fmt.Fprintln(os.Stderr, "rcnvm-bench:", err)
			os.Exit(1)
		}
	}

	total := time.Duration(0)
	for _, e := range experiments.Experiments {
		if !want[e.ID] && (*runFlag != "all" || e.OptIn) {
			continue
		}
		// Time each experiment so sweep-level perf regressions are visible
		// without polluting the stdout tables.
		start := time.Now()
		if err := e.Run(os.Stdout, opts); err != nil {
			fmt.Fprintln(os.Stderr, "rcnvm-bench:", err)
			os.Exit(1)
		}
		d := time.Since(start)
		total += d
		if *timingFlag {
			fmt.Fprintf(os.Stderr, "timing  %-7s %8.2fs\n", e.ID, d.Seconds())
		}
	}
	if *timingFlag {
		fmt.Fprintf(os.Stderr, "timing  total   %8.2fs (workers=%d)\n",
			total.Seconds(), par.Workers(*workersFlag))
	}
}
