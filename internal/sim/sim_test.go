package sim

import (
	"strings"
	"testing"

	"rcnvm/internal/addr"
	"rcnvm/internal/config"
	"rcnvm/internal/memctrl"
	"rcnvm/internal/stats"
	"rcnvm/internal/trace"
)

// linearScan builds a row-oriented scan of n consecutive words starting at
// byte 0, in the coordinate space of geom.
func linearScan(geom addr.Geometry, n int) trace.Stream {
	ops := make(trace.Stream, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, trace.LoadOp(geom.Decode(uint32(i*addr.WordBytes), addr.Row)))
	}
	return ops
}

// stridedScan builds a row-oriented scan touching every stride-th word
// (the strided access pattern OLAP induces on a row-store).
func stridedScan(geom addr.Geometry, n, stride int) trace.Stream {
	ops := make(trace.Stream, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, trace.LoadOp(geom.Decode(uint32(i*stride*addr.WordBytes), addr.Row)))
	}
	return ops
}

// columnScan builds a column-oriented scan of n words down consecutive
// columns of subarray 0 (RC-NVM only).
func columnScan(geom addr.Geometry, n int) trace.Stream {
	ops := make(trace.Stream, 0, n)
	rows := geom.Rows()
	for i := 0; i < n; i++ {
		c := addr.Coord{Row: uint32(i % rows), Column: uint32(i / rows)}
		ops = append(ops, trace.CLoadOp(c))
	}
	return ops
}

func mustRun(t *testing.T, cfg config.System, streams []trace.Stream) Result {
	t.Helper()
	res, err := RunOn(cfg, streams)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunAllSystems(t *testing.T) {
	for _, cfg := range config.All() {
		res := mustRun(t, cfg, []trace.Stream{linearScan(cfg.Device.Geom, 256)})
		if res.TimePs <= 0 {
			t.Errorf("%s: non-positive time", cfg.Name)
		}
		if res.LLCMisses() == 0 {
			t.Errorf("%s: no LLC misses on a cold scan", cfg.Name)
		}
		if res.Cycles() <= 0 || res.MCycles() <= 0 {
			t.Errorf("%s: cycle accounting broken", cfg.Name)
		}
	}
}

func TestSystemRunsOnce(t *testing.T) {
	s, err := New(config.RCNVM())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(nil); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestTooManyStreams(t *testing.T) {
	cfg := config.RCNVM()
	streams := make([]trace.Stream, cfg.CPU.Cores+1)
	if _, err := RunOn(cfg, streams); err == nil {
		t.Fatal("expected error for too many streams")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := config.RCNVM()
	streams := []trace.Stream{
		linearScan(cfg.Device.Geom, 500),
		columnScan(cfg.Device.Geom, 500),
	}
	a := mustRun(t, cfg, streams)
	b := mustRun(t, config.RCNVM(), streams)
	if a.TimePs != b.TimePs {
		t.Fatalf("nondeterministic time: %d vs %d", a.TimePs, b.TimePs)
	}
	for k, v := range a.Counters {
		if b.Counters[k] != v {
			t.Errorf("counter %s differs: %d vs %d", k, v, b.Counters[k])
		}
	}
}

// TestRowScanDRAMBeatsRRAM reproduces the Figure 17 row-read ordering:
// sequential row scans favour DRAM over RRAM (RRAM runs at a lower bus
// frequency), and RC-NVM tracks RRAM closely.
func TestRowScanDRAMBeatsRRAM(t *testing.T) {
	const n = 8192 // 64 KB
	dram := mustRun(t, config.DRAM(), []trace.Stream{linearScan(config.DRAM().Device.Geom, n)})
	rram := mustRun(t, config.RRAM(), []trace.Stream{linearScan(config.RRAM().Device.Geom, n)})
	rc := mustRun(t, config.RCNVM(), []trace.Stream{linearScan(config.RCNVM().Device.Geom, n)})
	if dram.TimePs >= rram.TimePs {
		t.Errorf("DRAM (%d) should beat RRAM (%d) on sequential row scans", dram.TimePs, rram.TimePs)
	}
	// RC-NVM is within ~10% of RRAM on row work (paper: 4% slower).
	ratio := float64(rc.TimePs) / float64(rram.TimePs)
	if ratio > 1.15 {
		t.Errorf("RC-NVM/RRAM row-scan ratio = %.3f, want close to 1", ratio)
	}
}

// TestColumnScanRCNVMBeatsStridedDRAM reproduces the core claim: scanning a
// "column" (one 8-byte field every 16 words) is far faster with RC-NVM
// column access than with strided row accesses on DRAM.
func TestColumnScanRCNVMBeatsStridedDRAM(t *testing.T) {
	const n = 4096
	dram := mustRun(t, config.DRAM(), []trace.Stream{stridedScan(config.DRAM().Device.Geom, n, 16)})
	rc := mustRun(t, config.RCNVM(), []trace.Stream{columnScan(config.RCNVM().Device.Geom, n)})
	if rc.TimePs*2 >= dram.TimePs {
		t.Errorf("RC-NVM column scan (%d) not clearly faster than strided DRAM (%d)",
			rc.TimePs, dram.TimePs)
	}
	// And it needs ~8x fewer memory accesses (full cache-line utilization).
	if rc.LLCMisses()*4 >= dram.LLCMisses() {
		t.Errorf("RC-NVM misses %d vs DRAM %d: expected large reduction",
			rc.LLCMisses(), dram.LLCMisses())
	}
}

func TestBufferMissRateAccessor(t *testing.T) {
	cfg := config.RCNVM()
	res := mustRun(t, cfg, []trace.Stream{linearScan(cfg.Device.Geom, 2048)})
	r := res.BufferMissRate()
	if r <= 0 || r >= 1 {
		t.Errorf("buffer miss rate = %v, want in (0,1) for a sequential scan", r)
	}
	// A sequential scan mostly hits the row buffer: expect a low rate.
	if r > 0.2 {
		t.Errorf("sequential scan buffer miss rate = %.2f, want < 0.2", r)
	}
}

func TestOverheadRatioZeroWithoutColumnAccess(t *testing.T) {
	cfg := config.RCNVM()
	res := mustRun(t, cfg, []trace.Stream{linearScan(cfg.Device.Geom, 512)})
	if res.OverheadRatio() != 0 {
		t.Errorf("row-only run has synonym overhead %v, want 0", res.OverheadRatio())
	}
	if res.Counters[stats.CrossingDetected] != 0 {
		t.Error("crossings detected without mixed-orientation accesses")
	}
}

func TestMixedOrientationHasOverhead(t *testing.T) {
	cfg := config.RCNVM()
	geom := cfg.Device.Geom
	var ops trace.Stream
	// Touch the same 64x64 block through both orientations.
	for i := 0; i < 64; i++ {
		ops = append(ops, trace.LoadOp(addr.Coord{Row: uint32(i), Column: 0}))
	}
	ops = append(ops, trace.BarrierOp())
	for i := 0; i < 64; i++ {
		ops = append(ops, trace.CStoreOp(addr.Coord{Row: 0, Column: uint32(i)}))
	}
	res := mustRun(t, cfg, []trace.Stream{ops})
	if res.Counters[stats.CrossingDetected] == 0 {
		t.Error("mixed orientations should detect crossings")
	}
	if res.OverheadRatio() <= 0 {
		t.Error("mixed orientations should accrue overhead")
	}
	_ = geom
}

func TestResultString(t *testing.T) {
	cfg := config.DRAM()
	res := mustRun(t, cfg, []trace.Stream{linearScan(cfg.Device.Geom, 64)})
	if res.String() == "" {
		t.Fatal("empty result string")
	}
}

// TestIdealDualBuffersFaster: a stream that alternates orientations on one
// bank benefits from the idealized dual-active-buffer ablation device.
func TestIdealDualBuffersFaster(t *testing.T) {
	mk := func(ideal bool) Result {
		cfg := config.RCNVM()
		cfg.Device.IdealDualBuffers = ideal
		var ops trace.Stream
		for i := 0; i < 512; i++ {
			if i%2 == 0 {
				ops = append(ops, trace.LoadOp(addr.Coord{Row: uint32(i % 64 * 8), Column: 512}))
			} else {
				ops = append(ops, trace.CLoadOp(addr.Coord{Row: 512, Column: uint32(i % 64 * 8)}))
			}
		}
		return mustRun(t, cfg, []trace.Stream{ops})
	}
	restricted := mk(false)
	ideal := mk(true)
	if ideal.TimePs >= restricted.TimePs {
		t.Errorf("ideal dual buffers (%d) not faster than restricted (%d)",
			ideal.TimePs, restricted.TimePs)
	}
	if restricted.Counters[stats.OrientSwitches] == 0 {
		t.Error("restricted run should switch orientations")
	}
	if ideal.Counters[stats.OrientSwitches] != 0 {
		t.Error("ideal run should never switch")
	}
}

// TestFCFSPolicySmoke: the FCFS ablation runs to completion and is not
// faster than FR-FCFS on a buffer-locality-heavy stream.
func TestFCFSPolicySmoke(t *testing.T) {
	mk := func(pol memctrl.Policy) Result {
		cfg := config.RCNVM()
		cfg.MemPolicy = pol
		streams := make([]trace.Stream, 2)
		for c := 0; c < 2; c++ {
			for i := 0; i < 256; i++ {
				// Both cores interleave on the same bank, different rows.
				streams[c] = append(streams[c],
					trace.LoadOp(addr.Coord{Row: uint32(c), Column: uint32(i * 8 % 1024)}))
			}
		}
		return mustRun(t, cfg, streams)
	}
	fr := mk(memctrl.FRFCFS)
	fcfs := mk(memctrl.FCFS)
	if fcfs.TimePs < fr.TimePs {
		t.Errorf("FCFS (%d) beat FR-FCFS (%d) on a row-locality stream", fcfs.TimePs, fr.TimePs)
	}
}

// TestPrefetcherCoversSequentialStream: a long sequential scan sees most
// of its lines arrive via the stride prefetcher.
func TestPrefetcherCoversSequentialStream(t *testing.T) {
	cfg := config.DRAM()
	res := mustRun(t, cfg, []trace.Stream{linearScan(cfg.Device.Geom, 16384)})
	pf := res.Counters[stats.Prefetches]
	if pf == 0 {
		t.Fatal("prefetcher idle on a sequential stream")
	}
	if pf*2 < res.MemAccesses() {
		t.Errorf("prefetches %d cover too little of %d accesses", pf, res.MemAccesses())
	}
	// Disabling the prefetcher makes the same stream slower.
	cfg2 := config.DRAM()
	cfg2.Cache.PrefetchDegree = 0
	res2 := mustRun(t, cfg2, []trace.Stream{linearScan(cfg2.Device.Geom, 16384)})
	if res2.TimePs <= res.TimePs {
		t.Errorf("no-prefetch run (%d) not slower than prefetch run (%d)", res2.TimePs, res.TimePs)
	}
}

// TestMemLatencyHistogram: demand latencies are recorded and plausible
// (above the device CAS time, below the run duration).
func TestMemLatencyHistogram(t *testing.T) {
	cfg := config.RCNVM()
	res := mustRun(t, cfg, []trace.Stream{linearScan(cfg.Device.Geom, 2048)})
	h := res.MemLatency
	if h.Count() == 0 {
		t.Fatal("no latencies recorded")
	}
	// Latencies include cache hits, so the floor is the L1 hit time; the
	// tail must reach at least the device CAS latency (real misses).
	if h.Min() < cfg.Cache.L1LatPs {
		t.Errorf("min latency %d below L1 hit time %d", h.Min(), cfg.Cache.L1LatPs)
	}
	if h.Max() < cfg.Device.Timing.CASPs() {
		t.Errorf("max latency %d below tCAS %d: no miss recorded?", h.Max(), cfg.Device.Timing.CASPs())
	}
	if h.Max() > res.TimePs {
		t.Errorf("max latency %d exceeds run time %d", h.Max(), res.TimePs)
	}
	if h.Quantile(0.5) > h.Quantile(0.99) {
		t.Error("quantiles not monotone")
	}
}

// TestNewRejectsNonPowerOfTwoSets: a set index is the block number masked
// to the set count, so a cache with any other set count is refused.
func TestNewRejectsNonPowerOfTwoSets(t *testing.T) {
	cfg := config.RCNVM()
	cfg.Cache.L2Sets = 384
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "L2 has 384 sets") {
		t.Fatalf("New with 384 L2 sets: err = %v, want a power-of-two error", err)
	}
	cfg.Cache.L2Sets = 256
	if _, err := New(cfg); err != nil {
		t.Fatalf("New with 256 L2 sets: %v", err)
	}
}
