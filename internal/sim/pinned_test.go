package sim_test

import (
	"reflect"
	"testing"

	"rcnvm/internal/config"
	"rcnvm/internal/sim"
	"rcnvm/internal/trace"
)

// latency is a histogram's exact contents: count, sum, min, max and its
// non-empty buckets as (lower bound, count) pairs.
type latency struct {
	count, sum, min, max int64
	buckets              [][2]int64
}

// TestTimedPairPinned replays the timed_query aggregate's stream as issued
// and rewritten to row accesses, and pins everything each replay reports:
// time, counters and the demand-latency distribution. The simulator is
// deterministic, so a change that only makes it faster leaves every value
// alone; a model change re-pins them and says why.
func TestTimedPairPinned(t *testing.T) {
	want := []struct {
		timePs   int64
		counters map[string]int64
		p50      int64
		latency  latency // Result.MemLatency's exact contents
	}{
		{
			timePs: 14_542_000,
			counters: map[string]int64{
				"cache.evictions":         816,
				"cache.llc_misses":        480,
				"cache.mshr_merges":       4128,
				"cache.prefetch_hits":     544,
				"cache.prefetches":        640,
				"core.ops":                4608,
				"core.stall_ps":           12158500,
				"mem.buffer_hits":         1088,
				"mem.buffer_misses":       32,
				"mem.col_activations":     32,
				"mem.queue_max_occupancy": 10,
				"mem.reads":               1120,
			},
			p50: 32768,
			latency: latency{4608, 108874000, 6500, 126000,
				[][2]int64{{1 << 12, 1088}, {1 << 13, 1088}, {1 << 14, 1792}, {1 << 15, 234}, {1 << 16, 406}}},
		},
		{
			timePs: 187_159_000,
			counters: map[string]int64{
				"cache.evictions":         12308,
				"cache.llc_misses":        2288,
				"cache.mshr_merges":       2320,
				"cache.prefetch_hits":     2320,
				"cache.prefetches":        2368,
				"core.ops":                4608,
				"core.stall_ps":           184515500,
				"mem.buffer_misses":       4656,
				"mem.queue_max_occupancy": 11,
				"mem.reads":               4656,
				"mem.row_activations":     4656,
			},
			p50: 351000,
			latency: latency{4608, 1496068000, 57000, 351000,
				[][2]int64{{1 << 15, 63}, {1 << 16, 94}, {1 << 17, 189}, {1 << 18, 4262}}},
		},
	}
	stream := captureSum(t)
	for i, s := range []trace.Stream{stream, trace.RowOnly(stream)} {
		res, err := sim.RunOn(config.RCNVM(), []trace.Stream{s})
		if err != nil {
			t.Fatal(err)
		}
		w := want[i]
		if res.TimePs != w.timePs {
			t.Errorf("replay %d: TimePs = %d, want %d", i, res.TimePs, w.timePs)
		}
		if !reflect.DeepEqual(res.Counters, w.counters) {
			t.Errorf("replay %d: counters = %v, want %v", i, res.Counters, w.counters)
		}
		if p50 := res.MemLatency.Quantile(0.5); p50 != w.p50 {
			t.Errorf("replay %d: latency p50 = %d, want %d", i, p50, w.p50)
		}
		h := res.MemLatency
		if got := (latency{h.Count(), h.Sum(), h.Min(), h.Max(), h.Buckets()}); !reflect.DeepEqual(got, w.latency) {
			t.Errorf("replay %d: latency = %v, want %v", i, got, w.latency)
		}
	}
}
