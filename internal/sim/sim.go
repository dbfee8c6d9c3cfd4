// Package sim assembles the full-system simulator: trace-driven cores, the
// 3-level cache hierarchy with RC-NVM synonym handling, per-channel FR-FCFS
// memory controllers, and the memory device. One System instance simulates
// one workload run on one machine configuration at a time; caches and
// buffers start cold, so each further run needs a fresh System or a Reset,
// which returns a used one to exactly its just-built state. A Replayer
// keeps a few reset systems for callers that replay statement after
// statement.
package sim

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"rcnvm/internal/cache"
	"rcnvm/internal/config"
	"rcnvm/internal/cpu"
	"rcnvm/internal/device"
	"rcnvm/internal/event"
	"rcnvm/internal/fault"
	"rcnvm/internal/memctrl"
	"rcnvm/internal/obs"
	"rcnvm/internal/stats"
	"rcnvm/internal/tier"
	"rcnvm/internal/trace"
)

// System is one wired machine instance.
type System struct {
	Cfg    config.System
	Eng    *event.Engine
	Dev    *device.Device
	Router *memctrl.Router
	Hier   *cache.Hierarchy
	Runner *cpu.Runner
	Stats  *stats.Block
	Faults *fault.Injector // nil unless Cfg.Fault is enabled
	Tier   *tier.Cache     // nil unless Cfg.Tier is enabled

	ran bool
}

// New builds a system from the configuration.
func New(cfg config.System) (*System, error) {
	if err := cfg.Cache.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %s: %w", cfg.Name, err)
	}
	eng := event.New()
	st := new(stats.Block)
	dev, err := device.New(cfg.Device, st)
	if err != nil {
		return nil, err
	}
	router := memctrl.NewRouter(eng, dev, st, cfg.MemWindow)
	router.SetPolicy(cfg.MemPolicy)
	dual := cfg.Device.SupportsColumn()
	hier := cache.New(cfg.Cache, cfg.Device.Geom, dual, eng, st, func(r *cache.MemRequest) {
		// r is the hierarchy's scratch request; copy into a pooled
		// controller request (recycled after issue) before returning.
		req := router.Alloc()
		req.Coord = r.Coord
		req.Orient = r.Orient
		req.Write = r.Write
		req.Writeback = r.Writeback
		req.Gather = r.Gather
		req.Done = r.Done
		router.Submit(req)
	})
	s := &System{
		Cfg:    cfg,
		Eng:    eng,
		Dev:    dev,
		Router: router,
		Hier:   hier,
		Runner: cpu.NewRunner(cfg.CPU, eng, hier, cfg.Device.Geom, st),
		Stats:  st,
	}
	s.attach()
	return s, nil
}

// attach puts what hangs off the wired components in its starting state:
// no span recorder, and a new fault injector and DRAM tier (nil when
// disabled) — rebuilt, so no wear or residency carries over.
func (s *System) attach() {
	s.Router.SetRecorder(nil, "")
	s.Faults = fault.New(s.Cfg.Device.Geom, s.Cfg.Fault)
	s.Dev.SetFaults(s.Faults)
	s.Tier = tier.New(s.Cfg.Tier, s.Cfg.Device.Geom, s.Eng, s.Stats)
	s.Router.SetTier(s.Tier)
}

// Reset returns the system to its just-built state, whatever happened to it
// since (a completed run, one that failed part-way, observers attached): a
// Run after Reset returns what the same Run on a New system returns —
// time, counter names and values, latency buckets, per-bank traffic. It costs
// what the run touched, not the modelled cache sizes. Stuck cells added to
// Faults by hand are gone with the old injector.
func (s *System) Reset() {
	s.Eng.Reset()
	s.Stats.Reset()
	s.Dev.Reset()
	s.Router.Reset()
	s.Hier.Reset()
	s.Runner.Reset()
	s.attach()
	s.ran = false
}

// Result summarizes one run. It marshals to stable JSON (the /stats and
// per-query timing payloads of internal/server): the histogram carries
// exact bucket contents, so quantiles survive a decode.
type Result struct {
	Name     string           `json:"name"`
	TimePs   int64            `json:"time_ps"`
	Cores    int              `json:"cores"`
	CyclePs  int64            `json:"cycle_ps"`
	Counters map[string]int64 `json:"counters"`
	// MemLatency is the distribution of demand memory-op latencies
	// (issue to completion, picoseconds).
	MemLatency *stats.Histogram `json:"mem_latency,omitempty"`
	// Banks is the run's memory traffic per bank (Block.Banks), indexed by
	// dense bank id. It stays out of the JSON: the /stats/banks and
	// /metrics views serve it summed over runs.
	Banks []stats.BankCounters `json:"-"`
}

// Run executes the per-core streams to completion. A System runs once per
// Reset.
func (s *System) Run(streams []trace.Stream) (Result, error) {
	if s.ran {
		return Result{}, fmt.Errorf("sim: system %q already ran; Reset it or create a fresh one", s.Cfg.Name)
	}
	s.ran = true
	if len(streams) > s.Cfg.CPU.Cores {
		return Result{}, fmt.Errorf("sim: %d streams for %d cores", len(streams), s.Cfg.CPU.Cores)
	}
	for i, ops := range streams {
		s.Runner.SetStream(i, ops)
	}
	s.Runner.Start()
	s.Eng.Run()
	if !s.Runner.Done() {
		return Result{}, fmt.Errorf("sim: engine drained but cores not done (deadlock?)")
	}
	// Post-run flush: persist dirty cached data (accounted in the write
	// traffic counters, but not in the reported execution time, matching
	// how the paper measures query latency).
	s.Hier.FlushDirty()
	s.Eng.Run()
	// An injected memory error that survived ECC correction and the
	// controller's read retries fails the run with the typed error
	// (unless the fault config opts into counting-only mode).
	if err := s.Router.FaultErr(); err != nil {
		return Result{}, fmt.Errorf("sim: %s: %w", s.Cfg.Name, err)
	}
	return Result{
		Name:       s.Cfg.Name,
		TimePs:     s.Runner.FinishAt,
		Cores:      s.Cfg.CPU.Cores,
		CyclePs:    s.Cfg.CPU.CyclePs,
		Counters:   s.Stats.Snapshot(),
		MemLatency: s.Runner.Latency(),
		Banks:      slices.Clone(s.Stats.Banks),
	}, nil
}

// RunOn is the one-call helper: build the system, run the streams.
func RunOn(cfg config.System, streams []trace.Stream) (Result, error) {
	s, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	return s.Run(streams)
}

// Replayer replays captured access streams on the RC-NVM system, the
// timing side of a timed statement. It owns a bounded free list of systems:
// a replay takes one (building it only when the list is empty), runs, and
// puts it back reset unless the list is full, so steady timed traffic
// constructs nothing. The list is a buffered channel, not a sync.Pool: a
// Pool is emptied by every garbage collection, which under load brings the
// constructor back every few statements. A system is held by one replay at
// a time.
type Replayer struct {
	free  chan *System
	built atomic.Int64
}

// NewReplayer returns a replayer that keeps at most max idle systems.
func NewReplayer(max int) *Replayer { return &Replayer{free: make(chan *System, max)} }

// Replays serves the callers that hold no replayer of their own (EXPLAIN
// ANALYZE, the shell and the examples).
var Replays = NewReplayer(2 * runtime.GOMAXPROCS(0))

// Built returns how many systems the replayer has constructed so far.
func (r *Replayer) Built() int64 { return r.built.Load() }

// Run replays one stream on a pooled system. rec, when non-nil, receives
// the run's memory-request spans under process name proc.
func (r *Replayer) Run(stream trace.Stream, rec *obs.Recorder, proc string) (Result, error) {
	var s *System
	select {
	case s = <-r.free:
	default:
		var err error
		if s, err = New(config.RCNVM()); err != nil {
			return Result{}, err
		}
		r.built.Add(1)
	}
	defer func() {
		s.Reset() // an idle system holds no reference to its last statement
		select {
		case r.free <- s:
		default:
		}
	}()
	s.Router.SetRecorder(rec, proc)
	return s.Run([]trace.Stream{stream})
}

// Timing is the simulated memory time of one statement, as issued and
// rewritten to conventional row-only accesses — the per-statement form of
// the paper's dual-vs-row comparison, and the timing object of the query
// server's timed reply.
type Timing struct {
	MemOps int `json:"mem_ops"`
	// DualPs and RowPs are simulated picoseconds on the RC-NVM timing
	// model with column accesses as issued vs. forced row-only. Over
	// several shards they are the slowest shard's replay (shards run
	// their sub-plans concurrently on independent channels).
	DualPs int64 `json:"dual_ps"`
	RowPs  int64 `json:"row_ps"`
	// Speedup is RowPs/DualPs (1.0 when the statement issued no column
	// accesses, 0 when it touched no memory).
	Speedup float64 `json:"speedup"`
	// Shards attributes the statement to the shards it touched. Present
	// only when more than one shard's streams were given, so a 1-shard
	// reply is byte-identical to an unsharded one.
	Shards []ShardTiming `json:"shards,omitempty"`
}

// ShardTiming is one shard's share of a statement's simulated memory time.
type ShardTiming struct {
	Shard  int   `json:"shard"`
	MemOps int   `json:"mem_ops"`
	DualPs int64 `json:"dual_ps"`
	RowPs  int64 `json:"row_ps"`
}

// Time is the one timing of a captured statement. streams[i] is shard i's
// access stream; an empty one (a shard the statement never touched) is
// skipped. Every other stream replays on its own simulated channel, first
// as issued, then rewritten by trace.RowOnly: the statement takes as long
// as its slowest shard, and MemOps is the total. A statement that touched
// no memory replays nothing. tels, when non-nil, holds one telemetry per
// shard that the shard's as-issued replay's Banks are added to. rec, when
// non-nil, receives the replays' memory-request spans (as-issued and
// row-only under separate processes) and one wall-clock span per phase,
// replay_dual and replay_row, on lane tid.
func (r *Replayer) Time(streams []trace.Stream, tels []*obs.Telemetry, rec *obs.Recorder, tid int64) (*Timing, error) {
	t := &Timing{}
	dualStart := time.Now()
	for i, stream := range streams {
		n := stream.MemOps()
		if n == 0 {
			continue
		}
		dual, err := r.Run(stream, rec, obs.ProcSimDual)
		if err != nil {
			return nil, fmt.Errorf("trace replay: %w", err)
		}
		if tels != nil {
			tels[i].Add(dual.Banks)
		}
		t.Shards = append(t.Shards, ShardTiming{Shard: i, MemOps: n, DualPs: dual.TimePs})
		t.MemOps += n
		t.DualPs = max(t.DualPs, dual.TimePs)
	}
	if t.MemOps == 0 {
		return t, nil
	}
	rec.WallSince(obs.ProcQuery, "replay_dual", obs.CatServer, tid, dualStart)

	rowStart := time.Now()
	for j := range t.Shards {
		sh := &t.Shards[j]
		row, err := r.Run(trace.RowOnly(streams[sh.Shard]), rec, obs.ProcSimRow)
		if err != nil {
			return nil, fmt.Errorf("row-only replay: %w", err)
		}
		sh.RowPs = row.TimePs
		t.RowPs = max(t.RowPs, row.TimePs)
	}
	rec.WallSince(obs.ProcQuery, "replay_row", obs.CatServer, tid, rowStart)

	if len(streams) == 1 {
		t.Shards = nil // the breakdown would repeat the totals
	}
	if t.DualPs > 0 {
		t.Speedup = float64(t.RowPs) / float64(t.DualPs)
	}
	return t, nil
}

// Cycles returns the execution time in CPU cycles.
func (r Result) Cycles() int64 {
	if r.CyclePs == 0 {
		return 0
	}
	return r.TimePs / r.CyclePs
}

// MCycles returns the execution time in millions of CPU cycles (the unit of
// Figures 17, 18 and 23).
func (r Result) MCycles() float64 { return float64(r.Cycles()) / 1e6 }

// LLCMisses returns the memory accesses of Figure 19.
func (r Result) LLCMisses() int64 { return r.Counters[stats.LLCMisses] }

// BufferMissRate returns the combined row-/column-buffer miss rate of
// Figure 20.
func (r Result) BufferMissRate() float64 {
	return stats.Ratio(r.Counters[stats.BufferMisses], r.Counters[stats.BufferHits])
}

// OverheadRatio returns the Figure 21 cache synonym + coherence overhead as
// a fraction of total core time.
func (r Result) OverheadRatio() float64 {
	total := r.TimePs * int64(r.Cores)
	if total == 0 {
		return 0
	}
	return float64(r.Counters[stats.OverheadPs]) / float64(total)
}

func (r Result) String() string {
	return fmt.Sprintf("%s: %.2f Mcycles, %d LLC misses, %.1f%% buffer miss rate",
		r.Name, r.MCycles(), r.LLCMisses(), r.BufferMissRate()*100)
}

// MemAccesses returns the total memory read accesses (demand misses,
// prefetches and gathers) — the Figure 19 metric.
func (r Result) MemAccesses() int64 { return r.Counters[stats.MemReads] }
