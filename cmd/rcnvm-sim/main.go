// Command rcnvm-sim runs a synthetic memory access pattern through one or
// more of the simulated systems and prints timing and device statistics — a
// quick way to poke at the memory model without the database layer.
//
// Usage:
//
//	rcnvm-sim [-system rcnvm|rram|dram|gsdram|all|a,b,...] [-pattern row|col|strided]
//	          [-n 4096] [-stride 16] [-write] [-cores 4] [-workers N]
//	          [-record trace.bin] [-replay trace.bin]
//
// Patterns:
//
//	row      sequential 8-byte words along rows (row-major scan)
//	col      sequential words down columns (RC-NVM cload; on row-only
//	         systems the same cells via strided row accesses)
//	strided  every stride-th word with row-oriented accesses
//
// With multiple systems (comma-separated, or "all"), each system simulates
// on its own worker up to -workers (default: one per CPU) and the reports
// print in the order given.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"rcnvm/internal/addr"
	"rcnvm/internal/config"
	"rcnvm/internal/par"
	"rcnvm/internal/sim"
	"rcnvm/internal/trace"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rcnvm-sim:", err)
	os.Exit(1)
}

func parseSystems(s string) ([]config.System, error) {
	if s == "all" {
		return config.All(), nil
	}
	var out []config.System
	for _, name := range strings.Split(s, ",") {
		switch strings.TrimSpace(name) {
		case "rcnvm":
			out = append(out, config.RCNVM())
		case "rram":
			out = append(out, config.RRAM())
		case "dram":
			out = append(out, config.DRAM())
		case "gsdram":
			out = append(out, config.GSDRAM())
		default:
			return nil, fmt.Errorf("unknown system %q", name)
		}
	}
	return out, nil
}

func main() {
	systemFlag := flag.String("system", "rcnvm", "rcnvm|rram|dram|gsdram, a comma-separated list, or 'all'")
	patternFlag := flag.String("pattern", "col", "row|col|strided")
	nFlag := flag.Int("n", 4096, "number of 8-byte accesses")
	strideFlag := flag.Int("stride", 16, "stride in words for -pattern strided")
	writeFlag := flag.Bool("write", false, "use stores instead of loads")
	coresFlag := flag.Int("cores", 4, "cores to spread the pattern across (1..4)")
	workersFlag := flag.Int("workers", 0, "parallel workers across systems (0 = one per CPU)")
	recordFlag := flag.String("record", "", "save the generated trace to this file (single system only)")
	replayFlag := flag.String("replay", "", "replay a saved trace instead of generating a pattern")
	flag.Parse()

	systems, err := parseSystems(*systemFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rcnvm-sim:", err)
		os.Exit(2)
	}
	if *recordFlag != "" && len(systems) != 1 {
		fmt.Fprintln(os.Stderr, "rcnvm-sim: -record requires a single -system (traces are geometry-specific)")
		os.Exit(2)
	}
	for _, cfg := range systems {
		if *coresFlag < 1 || *coresFlag > cfg.CPU.Cores {
			fmt.Fprintf(os.Stderr, "rcnvm-sim: cores must be 1..%d\n", cfg.CPU.Cores)
			os.Exit(2)
		}
	}

	var replayed []trace.Stream
	if *replayFlag != "" {
		f, err := os.Open(*replayFlag)
		if err != nil {
			fail(err)
		}
		replayed, err = trace.LoadStreams(f)
		f.Close()
		if err != nil {
			fail(err)
		}
	}

	streamsFor := func(cfg config.System) []trace.Stream {
		if replayed != nil {
			if err := trace.Validate(replayed, cfg.Device.Geom); err != nil {
				fail(err)
			}
			if len(replayed) > cfg.CPU.Cores {
				fail(fmt.Errorf("trace has %d cores, system has %d", len(replayed), cfg.CPU.Cores))
			}
			return replayed
		}
		geom := cfg.Device.Geom
		dual := cfg.Device.SupportsColumn()
		buildOp := func(i int) trace.Op {
			switch *patternFlag {
			case "row":
				c := geom.Decode(uint32(i*addr.WordBytes), addr.Row)
				if *writeFlag {
					return trace.StoreOp(c)
				}
				return trace.LoadOp(c)
			case "col":
				c := addr.Coord{Row: uint32(i % geom.Rows()), Column: uint32(i/geom.Rows()) % uint32(geom.Columns())}
				if dual {
					if *writeFlag {
						return trace.CStoreOp(c)
					}
					return trace.CLoadOp(c)
				}
				if *writeFlag {
					return trace.StoreOp(c)
				}
				return trace.LoadOp(c)
			case "strided":
				c := geom.Decode(uint32(i**strideFlag*addr.WordBytes), addr.Row)
				if *writeFlag {
					return trace.StoreOp(c)
				}
				return trace.LoadOp(c)
			default:
				fmt.Fprintf(os.Stderr, "rcnvm-sim: unknown pattern %q\n", *patternFlag)
				os.Exit(2)
				return trace.Op{}
			}
		}
		streams := make([]trace.Stream, *coresFlag)
		for i := 0; i < *nFlag; i++ {
			core := i * *coresFlag / *nFlag
			streams[core].Append(buildOp(i))
		}
		return streams
	}

	if *recordFlag != "" {
		f, err := os.Create(*recordFlag)
		if err != nil {
			fail(err)
		}
		err = trace.SaveStreams(f, streamsFor(systems[0]))
		f.Close()
		if err != nil {
			fail(err)
		}
		fmt.Printf("recorded trace to %s\n", *recordFlag)
	}

	// One simulation cell per system; reports stay in flag order.
	type cell struct {
		streams []trace.Stream
		res     sim.Result
	}
	cells := make([]cell, len(systems))
	err = par.RunCells(context.Background(), *workersFlag, len(systems), func(i int) error {
		cells[i].streams = streamsFor(systems[i])
		var err error
		cells[i].res, err = sim.RunOn(systems[i], cells[i].streams)
		return err
	})
	if err != nil {
		fail(err)
	}
	for i, cfg := range systems {
		if i > 0 {
			fmt.Println()
		}
		report(cfg, cells[i].streams, cells[i].res, *replayFlag, *patternFlag, *nFlag, *strideFlag, *writeFlag, *coresFlag)
	}
}

func report(cfg config.System, streams []trace.Stream, res sim.Result, replay, pattern string, n, stride int, write bool, cores int) {
	fmt.Printf("system   %s\n", cfg.Name)
	nOps := 0
	for _, s := range streams {
		nOps += s.MemOps()
	}
	if replay != "" {
		fmt.Printf("pattern  replay of %s (%d mem ops, %d cores)\n", replay, nOps, len(streams))
	} else {
		fmt.Printf("pattern  %s x %d (stride %d, write=%v, cores=%d)\n",
			pattern, n, stride, write, cores)
	}
	fmt.Printf("time     %.3f us (%.3f Mcycles)\n", float64(res.TimePs)/1e6, res.MCycles())
	if nOps > 0 {
		fmt.Printf("per op   %.2f ns\n", float64(res.TimePs)/float64(nOps)/1000)
	}
	if res.MemLatency.Count() > 0 {
		fmt.Printf("latency  mean %.1f ns, p50 %.1f ns, p95 %.1f ns, p99 %.1f ns\n",
			res.MemLatency.Mean()/1000,
			float64(res.MemLatency.Quantile(0.5))/1000,
			float64(res.MemLatency.Quantile(0.95))/1000,
			float64(res.MemLatency.Quantile(0.99))/1000)
	}
	fmt.Println("counters:")
	keys := make([]string, 0, len(res.Counters))
	for k := range res.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-28s %d\n", k, res.Counters[k])
	}
}
