package cpu

import (
	"testing"

	"rcnvm/internal/addr"
	"rcnvm/internal/cache"
	"rcnvm/internal/event"
	"rcnvm/internal/stats"
	"rcnvm/internal/trace"
)

const memLatPs = 100_000

// testRig wires cores to a real cache hierarchy backed by a fixed-latency
// fake memory.
type testRig struct {
	eng    *event.Engine
	st     *stats.Block
	hier   *cache.Hierarchy
	runner *Runner
	memReq int
}

func newRig(t *testing.T, cfg Config) *testRig {
	t.Helper()
	return newRigGeom(t, cfg, addr.Geometry{
		ChannelBits: 1, RankBits: 2, BankBits: 3, SubarrayBits: 3,
		RowBits: 10, ColumnBits: 10, DualAddress: true,
	})
}

func newRigGeom(t *testing.T, cfg Config, geom addr.Geometry) *testRig {
	t.Helper()
	rig := &testRig{eng: event.New(), st: new(stats.Block)}
	ccfg := cache.DefaultConfig()
	ccfg.Cores = cfg.Cores
	rig.hier = cache.New(ccfg, geom, true, rig.eng, rig.st, func(r *cache.MemRequest) {
		rig.memReq++
		// The hierarchy reuses *r as scratch: copy Done out before
		// scheduling the response.
		if done := r.Done; done != nil {
			rig.eng.AtCall(rig.eng.Now()+memLatPs, func(ctx any, _, now int64) {
				ctx.(func(int64))(now)
			}, done, 0)
		}
	})
	rig.runner = NewRunner(cfg, rig.eng, rig.hier, geom, rig.st)
	return rig
}

func (rig *testRig) run() int64 {
	rig.runner.Start()
	return rig.eng.Run()
}

func TestEmptyStreamsFinishImmediately(t *testing.T) {
	rig := newRig(t, DefaultConfig())
	end := rig.run()
	if !rig.runner.Done() {
		t.Fatal("runner not done")
	}
	if end != 0 {
		t.Fatalf("end = %d, want 0", end)
	}
}

func TestComputeOnlyStream(t *testing.T) {
	cfg := DefaultConfig()
	rig := newRig(t, cfg)
	rig.runner.SetStream(0, trace.Stream{trace.ComputeOp(100), trace.ComputeOp(50)})
	end := rig.run()
	want := 150 * cfg.CyclePs
	if end != want {
		t.Fatalf("end = %d, want %d", end, want)
	}
	if rig.st.Get(stats.ComputePs) != want {
		t.Errorf("compute ps = %d, want %d", rig.st.Get(stats.ComputePs), want)
	}
}

func TestSingleLoad(t *testing.T) {
	cfg := DefaultConfig()
	rig := newRig(t, cfg)
	rig.runner.SetStream(0, trace.Stream{trace.LoadOp(addr.Coord{Row: 1})})
	end := rig.run()
	if end < memLatPs {
		t.Fatalf("end = %d, load should have gone to memory", end)
	}
	if rig.memReq != 1 {
		t.Fatalf("mem requests = %d, want 1", rig.memReq)
	}
	if rig.st.Get(stats.OpsExecuted) != 1 {
		t.Error("op not counted")
	}
}

// TestWindowOverlapsMisses: W independent misses to different lines overlap,
// so total time is far below W*memLat.
func TestWindowOverlapsMisses(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 1
	cfg.Window = 8
	rig := newRig(t, cfg)
	var ops trace.Stream
	for i := 0; i < 8; i++ {
		ops = append(ops, trace.LoadOp(addr.Coord{Row: uint32(i), Bank: uint32(i % 8)}))
	}
	rig.runner.SetStream(0, ops)
	end := rig.run()
	if end >= 2*memLatPs {
		t.Fatalf("8 overlapping misses took %d, want < %d", end, 2*memLatPs)
	}
}

// TestWindowLimitsOverlap: with Window=1, misses serialize.
func TestWindowLimitsOverlap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 1
	cfg.Window = 1
	rig := newRig(t, cfg)
	var ops trace.Stream
	for i := 0; i < 4; i++ {
		ops = append(ops, trace.LoadOp(addr.Coord{Row: uint32(i)}))
	}
	rig.runner.SetStream(0, ops)
	end := rig.run()
	if end < 4*memLatPs {
		t.Fatalf("window=1 should serialize: end = %d, want >= %d", end, 4*memLatPs)
	}
	if rig.st.Get(stats.StallPs) == 0 {
		t.Error("stall time not recorded")
	}
}

// TestBarrierDrains: ops after a barrier do not issue until prior misses
// complete.
func TestBarrierDrains(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 1
	rig := newRig(t, cfg)
	rig.runner.SetStream(0, trace.Stream{
		trace.LoadOp(addr.Coord{Row: 1}),
		trace.LoadOp(addr.Coord{Row: 2}),
		trace.BarrierOp(),
		trace.LoadOp(addr.Coord{Row: 3}),
	})
	end := rig.run()
	// First two overlap (~memLat), the third starts only after both finish.
	if end < 2*memLatPs {
		t.Fatalf("barrier did not serialize phases: end = %d", end)
	}
	if end > 3*memLatPs {
		t.Fatalf("barrier over-serialized: end = %d", end)
	}
}

func TestCachedLoadsAreFast(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 1
	rig := newRig(t, cfg)
	c := addr.Coord{Row: 7, Column: 3}
	rig.runner.SetStream(0, trace.Stream{
		trace.LoadOp(c), trace.BarrierOp(),
		trace.LoadOp(c), trace.LoadOp(c), trace.LoadOp(c),
	})
	end := rig.run()
	if end > memLatPs+20_000 {
		t.Fatalf("cached loads too slow: end = %d", end)
	}
	if rig.memReq != 1 {
		t.Fatalf("mem requests = %d, want 1", rig.memReq)
	}
	if rig.st.Get(stats.L1Hits) != 3 {
		t.Errorf("L1 hits = %d, want 3", rig.st.Get(stats.L1Hits))
	}
}

// TestCLoadUsesColumnOrientation: a cload to a word and a load to the same
// word occupy different cache lines (the synonym pair).
func TestCLoadUsesColumnOrientation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 1
	rig := newRig(t, cfg)
	c := addr.Coord{Row: 437, Column: 182}
	rig.runner.SetStream(0, trace.Stream{
		trace.LoadOp(c), trace.BarrierOp(),
		trace.CLoadOp(c), trace.BarrierOp(),
	})
	rig.run()
	if rig.memReq != 2 {
		t.Fatalf("mem requests = %d, want 2 (row line + column line)", rig.memReq)
	}
	if rig.st.Get(stats.CrossingDetected) != 1 {
		t.Errorf("crossing detections = %d, want 1", rig.st.Get(stats.CrossingDetected))
	}
}

// TestColumnSpatialLocality: 8 cloads down one column share one column-
// oriented cache line -> 1 memory request.
func TestColumnSpatialLocality(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 1
	rig := newRig(t, cfg)
	var ops trace.Stream
	for i := 0; i < 8; i++ {
		ops = append(ops, trace.CLoadOp(addr.Coord{Row: uint32(i), Column: 5}))
	}
	rig.runner.SetStream(0, ops)
	rig.run()
	if rig.memReq != 1 {
		t.Fatalf("mem requests = %d, want 1 (column line locality)", rig.memReq)
	}
}

func TestMultiCoreParallelism(t *testing.T) {
	cfg := DefaultConfig()
	rig := newRig(t, cfg)
	// 4 cores each load 4 distinct lines; with private misses overlapping,
	// wall time stays near one round of memory latency.
	for core := 0; core < 4; core++ {
		var ops trace.Stream
		for i := 0; i < 4; i++ {
			ops = append(ops, trace.LoadOp(addr.Coord{Row: uint32(core*100 + i)}))
		}
		rig.runner.SetStream(core, ops)
	}
	end := rig.run()
	if end >= 2*memLatPs {
		t.Fatalf("4-core run took %d, want < %d", end, 2*memLatPs)
	}
	if !rig.runner.Done() {
		t.Fatal("runner not done")
	}
	if rig.runner.FinishAt != end {
		t.Errorf("FinishAt = %d, want %d", rig.runner.FinishAt, end)
	}
}

func TestUnpinAllOp(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 1
	rig := newRig(t, cfg)
	c := addr.Coord{Row: 1, Column: 1}
	rig.runner.SetStream(0, trace.Stream{
		trace.PinnedCLoadOp(c),
		trace.BarrierOp(),
		trace.UnpinAllOp(),
	})
	rig.run()
	if rig.st.Get(stats.PinnedLines) == 0 {
		t.Error("pinned prefetch did not pin")
	}
}

func TestGatherOpFlow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 1
	rig := newRig(t, cfg)
	rig.runner.SetStream(0, trace.Stream{
		trace.GatherOp(addr.Coord{Row: 2}, 11),
		trace.BarrierOp(),
		trace.GatherOp(addr.Coord{Row: 2}, 11), // same pattern: cache hit
	})
	rig.run()
	if rig.memReq != 1 {
		t.Fatalf("mem requests = %d, want 1", rig.memReq)
	}
}

// TestOrderedWindowSerializes: Ordered ops overlap at most OrderedWindow
// deep, while plain ops use the full window.
func TestOrderedWindowSerializes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 1
	cfg.Window = 8
	cfg.OrderedWindow = 1
	rig := newRig(t, cfg)
	var ops trace.Stream
	for i := 0; i < 4; i++ {
		op := trace.LoadOp(addr.Coord{Row: uint32(i)})
		op.Ordered = true
		ops = append(ops, op)
	}
	rig.runner.SetStream(0, ops)
	end := rig.run()
	if end < 4*memLatPs {
		t.Fatalf("ordered ops overlapped: end = %d, want >= %d", end, 4*memLatPs)
	}
}

// TestPinnedPrefetchNonBlocking: pinned prefetches do not occupy window
// slots, so many can be in flight at once, yet a barrier waits for them.
func TestPinnedPrefetchNonBlocking(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 1
	cfg.Window = 1
	rig := newRig(t, cfg)
	var ops trace.Stream
	for i := 0; i < 16; i++ {
		op := trace.CLoadOp(addr.Coord{Row: uint32(i * 8), Column: uint32(i)})
		op.Pin = true
		ops = append(ops, op)
	}
	ops = append(ops, trace.BarrierOp())
	rig.runner.SetStream(0, ops)
	end := rig.run()
	// 16 distinct lines with window 1 would serialize to >= 16*memLat;
	// non-blocking prefetches overlap them all.
	if end >= 3*memLatPs {
		t.Fatalf("prefetches did not overlap: end = %d", end)
	}
	if end < memLatPs {
		t.Fatalf("barrier did not wait for prefetches: end = %d", end)
	}
}
