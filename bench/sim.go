package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"rcnvm/internal/config"
	"rcnvm/internal/experiments"
	"rcnvm/internal/sim"
	"rcnvm/internal/stats"
	"rcnvm/internal/workload"
)

// sim_sweep reproduces the cell set of the paper's Figures 18-21: the four
// memory systems of config.All() times the benchmark queries Q1-Q13, at
// the medium scale (64K/64K/32K tuples: table-a is 8 MB, the size of the
// modelled L3, table-b 10 MB; caches start cold in every cell). Two
// workers, one per core of the sandbox.
const sweepWorkers = 2

// The paper's Figure 18 averages: RC-NVM cuts execution time by 71% against
// RRAM and by 67% against DRAM. They are the only reference there is; no
// hardware was measured.
const (
	paperVsRRAMPct = 71
	paperVsDRAMPct = 67
)

// cell is one simulated (system, query) pair with where its host time went.
type cell struct {
	res                   sim.Result
	ops                   int // trace ops simulated, summed over cores
	buildNs, newNs, runNs int64
}

func (c *cell) hostNs() int64 { return c.buildNs + c.newNs + c.runNs }

// sweepInputs is the fixed input of the sweep. Its seed is pinned in
// workload.Params and deliberately not taken from -seed, so the simulated
// statistics are the same numbers on every run of every commit.
type sweepInputs struct {
	systems []config.System
	queries []workload.Spec
	params  workload.Params
}

func newSweepInputs(quick bool) sweepInputs {
	scale := experiments.ScaleMedium
	if quick {
		scale = experiments.ScaleSmall
	}
	return sweepInputs{config.All(), workload.Queries(), experiments.ParamsFor(scale)}
}

// build lowers cell i's query to per-core traces on its system.
func (in *sweepInputs) build(i int) (*workload.Env, config.System, error) {
	sys, q := in.systems[i/len(in.queries)], in.queries[i%len(in.queries)]
	env, err := workload.NewEnv(sys, in.params)
	if err != nil {
		return nil, sys, err
	}
	if err := q.Build(env); err != nil {
		return nil, sys, fmt.Errorf("%s on %s: %w", q.ID, sys.Name, err)
	}
	return env, sys, nil
}

func (in *sweepInputs) run(i int, tr *tracer) (cell, error) {
	t0 := time.Now()
	env, sys, err := in.build(i)
	if err != nil {
		return cell{}, err
	}
	streams := env.Exec.Streams()
	t1 := time.Now()
	machine, err := sim.New(sys)
	if err != nil {
		return cell{}, err
	}
	t2 := time.Now()
	res, err := machine.Run(streams)
	if err != nil {
		return cell{}, err
	}
	t3 := time.Now()
	tr.span("cell", "", i, t0, t3)
	tr.span("workload.build", "cell", i, t0, t1)
	tr.span("sim.new", "cell", i, t1, t2)
	tr.span("sim.run", "cell", i, t2, t3)
	c := cell{res: res, buildNs: t1.Sub(t0).Nanoseconds(), newNs: t2.Sub(t1).Nanoseconds(), runNs: t3.Sub(t2).Nanoseconds()}
	for _, s := range streams {
		c.ops += len(s)
	}
	return c, nil
}

// digest is a SHA-256 over every cell's simulated time and counters, in
// cell order with counter names sorted.
func digest(cells []cell) string {
	h := sha256.New()
	for _, c := range cells {
		fmt.Fprintf(h, "%s %d\n", c.res.Name, c.res.TimePs)
		names := make([]string, 0, len(c.res.Counters))
		for name := range c.res.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(h, "%s=%d\n", name, c.res.Counters[name])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func runSimSweep(o options) (result, error) {
	in := newSweepInputs(o.quick)
	n := len(in.systems) * len(in.queries)
	res := result{metrics: map[string]float64{}}

	// Set-up is what must happen before the first event can be simulated:
	// placing the tables and lowering the first cell's query to a trace.
	// It takes milliseconds, so one reading would be mostly noise.
	reps := 21
	if o.quick {
		reps = 3
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if _, _, err := in.build(0); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var (
		first         []cell
		firstDigest   string
		rates, cellUs []float64 // per sweep: cells per second, mean host time of a cell
		wall          time.Duration
		before, after runtime.MemStats
	)
	runtime.ReadMemStats(&before)
	for wall.Seconds() < o.seconds || first == nil {
		t0 := time.Now()
		spans := tr
		if first != nil {
			spans = nil // one sweep's spans are the whole picture
		}
		cells, err := experiments.Sweep(context.Background(), sweepWorkers, n, func(i int) (cell, error) {
			return in.run(i, spans)
		})
		if err != nil {
			return result{}, err
		}
		sweepWall := time.Since(t0)
		wall += sweepWall
		rates = append(rates, float64(n)/sweepWall.Seconds())
		var hostNs int64
		for i := range cells {
			hostNs += cells[i].hostNs()
		}
		cellUs = append(cellUs, float64(hostNs)/1e3/float64(n))
		res.attempted += n
		if first == nil {
			first, firstDigest = cells, digest(cells)
		} else if digest(cells) != firstDigest {
			res.failed += n
			fmt.Println("# sim_sweep: two sweeps of the same cells disagree")
		}
	}
	runtime.ReadMemStats(&after)
	sweeps := len(rates)

	// The simulator must not depend on how cells are scheduled: the RC-NVM
	// row of the sweep (the first of config.All()), re-run sequentially, has
	// to reproduce exactly.
	nq := len(in.queries)
	if in.systems[0].Name != config.RCNVM().Name {
		return result{}, fmt.Errorf("config.All() no longer lists %s first", config.RCNVM().Name)
	}
	var again []cell
	for i := 0; i < nq; i++ {
		c, err := in.run(i, nil)
		if err != nil {
			return result{}, err
		}
		again = append(again, c)
	}
	res.attempted += nq
	if digest(again) != digest(first[:nq]) {
		res.failed += nq
		fmt.Printf("# sim_sweep: workers=%d and sequential runs of the RC-NVM cells disagree\n", sweepWorkers)
	}
	fmt.Printf("# sim_sweep: sim_stats_digest=%s (workload.Params.Seed=%d, %d sweeps, caches start cold)\n",
		firstDigest, in.params.Seed, sweeps)

	if !o.trace {
		res.metrics["setup_s"] = median(setups)
		res.metrics["stmts_per_s"] = quantile(rates, rateQuantile)
		// Cells differ a hundredfold in length, so the median cell is an
		// accident of the mix; the mean over the sweep's cells is the steady
		// figure.
		res.metrics["p50_us"] = quantile(cellUs, latencyQuantile)
		return res, nil
	}
	if err := tr.write("sim_sweep"); err != nil {
		return result{}, err
	}
	simLayerMetrics(in, first, res.metrics)
	res.metrics["sim.alloc_mb_per_cell"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / float64(sweeps*n)
	var ops int
	for i := range first {
		ops += first[i].ops
	}
	res.metrics["sim.kops_per_s"] = float64(ops) / 1e3 * quantile(rates, rateQuantile) / float64(n)
	res.metrics["host.rss_peak_mb"] = rssPeakMB()
	return res, nil
}

// simLayerMetrics derives the per-layer metrics of one sweep. Everything
// simulated is exact: a change that only makes the simulator faster must
// leave it identical.
func simLayerMetrics(in sweepInputs, cells []cell, m map[string]float64) {
	nq := len(in.queries)
	row := func(name string) []cell {
		for si, sys := range in.systems {
			if sys.Name == name {
				return cells[si*nq : (si+1)*nq]
			}
		}
		return nil
	}
	rc, rram, dram := row(config.RCNVM().Name), row(config.RRAM().Name), row(config.DRAM().Name)

	var vsRRAM, vsDRAM, mcycles float64
	for q := range rc {
		vsRRAM += 1 - float64(rc[q].res.TimePs)/float64(rram[q].res.TimePs)
		vsDRAM += 1 - float64(rc[q].res.TimePs)/float64(dram[q].res.TimePs)
		mcycles += rc[q].res.MCycles()
	}
	vsRRAM, vsDRAM = 100*vsRRAM/float64(nq), 100*vsDRAM/float64(nq)
	m["sim.mcycles_rcnvm"] = mcycles
	m["sim.reduction_vs_rram_pct"] = vsRRAM
	m["sim.reduction_vs_dram_pct"] = vsDRAM
	m["sim.paper_gap_pp"] = (math.Abs(vsRRAM-paperVsRRAMPct) + math.Abs(vsDRAM-paperVsDRAMPct)) / 2

	sum := func(cs []cell, name string) (t int64) {
		for i := range cs {
			t += cs[i].res.Counters[name]
		}
		return t
	}
	hitRatio := func(cs []cell) float64 {
		hits := sum(cs, stats.BufferHits)
		return float64(hits) / float64(hits+sum(cs, stats.BufferMisses))
	}
	m["device.buffer_hit_ratio"] = hitRatio(rc)
	m["device.buffer_hit_ratio_rram"] = hitRatio(rram)
	m["device.row_activations"] = float64(sum(rc, stats.RowActivations))
	m["device.col_activations"] = float64(sum(rc, stats.ColActivations))
	m["device.orient_switches"] = float64(sum(rc, stats.OrientSwitches))
	m["memctrl.reads"] = float64(sum(rc, stats.MemReads))
	m["memctrl.writes"] = float64(sum(rc, stats.MemWrites))
	m["memctrl.fr_hits"] = float64(sum(rc, stats.SchedFRHits))
	m["cache.llc_misses"] = float64(sum(rc, stats.LLCMisses))
	l1 := sum(rc, stats.L1Hits)
	m["cache.l1_hit_ratio"] = float64(l1) / float64(l1+sum(rc, stats.L2Hits)+sum(rc, stats.L3Hits)+sum(rc, stats.LLCMisses)+sum(rc, stats.MSHRMerges))
	var peak, coreTimePs int64
	var p50s []float64
	for i := range rc {
		peak = max(peak, rc[i].res.Counters[stats.QueueMaxOccupancy])
		coreTimePs += rc[i].res.TimePs * int64(rc[i].res.Cores)
		p50s = append(p50s, float64(rc[i].res.MemLatency.Quantile(0.5)))
	}
	m["memctrl.queue_peak"] = float64(peak)
	m["cache.overhead_share"] = float64(sum(rc, stats.OverheadPs)) / float64(coreTimePs)
	m["cpu.mem_latency_p50_ps"] = median(p50s)

	// Host time, all cells.
	var ops, buildNs, runNs, hostNs int64
	var newMs []float64
	for i := range cells {
		ops += int64(cells[i].ops)
		buildNs += cells[i].buildNs
		runNs += cells[i].runNs
		hostNs += cells[i].hostNs()
		newMs = append(newMs, float64(cells[i].newNs)/1e6)
	}
	m["sim.run_ns_per_op"] = float64(runNs) / float64(ops)
	m["sim.new_ms"] = median(newMs)
	m["workload.build_share"] = float64(buildNs) / float64(hostNs)
}
