package sim

import (
	"reflect"
	"testing"

	"rcnvm/internal/addr"
	"rcnvm/internal/config"
	"rcnvm/internal/stats"
	"rcnvm/internal/tier"
	"rcnvm/internal/trace"
)

// smallCacheRCNVM returns an RC-NVM system with a tiny cache hierarchy, so
// short traces produce recurring LLC misses on the same memory rows.
func smallCacheRCNVM() config.System {
	cfg := config.RCNVM()
	cfg.Cache.L1Sets, cfg.Cache.L1Ways = 4, 2
	cfg.Cache.L2Sets, cfg.Cache.L2Ways = 8, 2
	cfg.Cache.L3Sets, cfg.Cache.L3Ways = 16, 2
	cfg.Cache.PrefetchDegree = 0
	return cfg
}

// rowPingPong alternates line-aligned accesses between two rows of bank 0:
// every access re-activates the bank's row buffer, the pattern the tier's
// miss counters are built to catch.
func rowPingPong(n int) trace.Stream {
	ops := make(trace.Stream, 0, n)
	for i := 0; i < n; i++ {
		c := addr.Coord{Row: uint32(i % 2), Column: uint32((i / 2) * addr.LineWords)}
		ops = append(ops, trace.LoadOp(c))
	}
	return ops
}

func TestTierSpeedsUpBufferMissHeavyPattern(t *testing.T) {
	streams := []trace.Stream{rowPingPong(512)}

	base := mustRun(t, smallCacheRCNVM(), streams)

	cfg := smallCacheRCNVM()
	cfg.Tier = tier.Config{Rows: 64, PromoteAfter: 2}
	hybrid := mustRun(t, cfg, streams)

	if hybrid.Counters[stats.TierPromotions] == 0 {
		t.Fatalf("no promotions on a ping-pong pattern:\n%v", hybrid.Counters)
	}
	if hybrid.Counters[stats.TierDRAMHits] == 0 {
		t.Fatalf("no DRAM hits after promotion")
	}
	if hybrid.TimePs >= base.TimePs {
		t.Fatalf("hybrid %d ps not faster than RC-NVM-only %d ps", hybrid.TimePs, base.TimePs)
	}
	// DRAM absorbed activations: the hybrid run re-activates NVM rows less.
	if hybrid.Counters[stats.RowActivations] >= base.Counters[stats.RowActivations] {
		t.Fatalf("hybrid row activations %d >= base %d",
			hybrid.Counters[stats.RowActivations], base.Counters[stats.RowActivations])
	}
}

func TestTierDisabledLeavesNoTrace(t *testing.T) {
	res := mustRun(t, smallCacheRCNVM(), []trace.Stream{rowPingPong(128)})
	for name := range res.Counters {
		if len(name) > 5 && name[:5] == "tier." {
			t.Fatalf("tier counter %q present with tier disabled", name)
		}
	}
	if s, _ := New(smallCacheRCNVM()); s.Tier != nil {
		t.Fatalf("tier built despite zero config")
	}
}

func TestTierRunsAreDeterministic(t *testing.T) {
	run := func() Result {
		cfg := smallCacheRCNVM()
		cfg.Tier = tier.Config{Rows: 16, PromoteAfter: 2}
		return mustRun(t, cfg, []trace.Stream{rowPingPong(256), linearScan(cfg.Device.Geom, 128)})
	}
	a, b := run(), run()
	if a.TimePs != b.TimePs {
		t.Fatalf("TimePs differs across identical runs: %d vs %d", a.TimePs, b.TimePs)
	}
	if !reflect.DeepEqual(a.Counters, b.Counters) {
		t.Fatalf("counters differ across identical runs:\n%v\n%v", a.Counters, b.Counters)
	}
}

// TestTierDirtyDemotionWritesBack checks the demotion path feeds the normal
// device write machinery: writes served by DRAM must reach NVM as
// write-backs when the row is evicted or hit by a column write.
func TestTierDirtyDemotionWritesBack(t *testing.T) {
	cfg := smallCacheRCNVM()
	cfg.Tier = tier.Config{Rows: 2, PromoteAfter: 1}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Writes ping-ponging across 4 rows with a 2-row tier: promotions evict
	// dirty rows continuously.
	n := 256
	ops := make(trace.Stream, 0, n)
	for i := 0; i < n; i++ {
		c := addr.Coord{Row: uint32(i % 4), Column: uint32((i / 4) * addr.LineWords)}
		ops = append(ops, trace.StoreOp(c))
	}
	res, err := s.Run([]trace.Stream{ops})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters[stats.TierDemotions] == 0 {
		t.Fatalf("no demotions with a 2-row tier under a 4-row write pattern:\n%v", res.Counters)
	}
	if res.Counters[stats.TierWritebacks] == 0 {
		t.Fatalf("dirty demotions produced no write-backs")
	}
}
