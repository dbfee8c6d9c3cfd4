package sim_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"rcnvm/internal/config"
	"rcnvm/internal/sim"
	"rcnvm/internal/stats"
	"rcnvm/internal/workload"
)

// TestResultJSONRoundTrip marshals a real simulation result (so counters
// and the latency histogram are populated) and checks that every reported
// metric survives the decode.
func TestResultJSONRoundTrip(t *testing.T) {
	spec, ok := workload.QueryByID("Q1")
	if !ok {
		t.Fatal("no Q1")
	}
	res, err := workload.Run(config.RCNVM(), spec, workload.SmallParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.TimePs <= 0 || res.MemLatency.Count() == 0 {
		t.Fatalf("implausible run to serialize: %+v", res)
	}

	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var got sim.Result
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}

	if got.Name != res.Name || got.TimePs != res.TimePs ||
		got.Cores != res.Cores || got.CyclePs != res.CyclePs {
		t.Fatalf("scalar fields changed:\n got %+v\nwant %+v", got, res)
	}
	if got.Cycles() != res.Cycles() || got.LLCMisses() != res.LLCMisses() {
		t.Fatal("derived metrics changed across round trip")
	}
	if !reflect.DeepEqual(got.Counters, res.Counters) {
		t.Fatalf("counters changed:\n got %v\nwant %v", got.Counters, res.Counters)
	}
	if got.MemLatency.Count() != res.MemLatency.Count() ||
		got.MemLatency.Quantile(0.99) != res.MemLatency.Quantile(0.99) ||
		got.MemLatency.Mean() != res.MemLatency.Mean() {
		t.Fatalf("latency histogram changed: got %v, want %v", got.MemLatency, res.MemLatency)
	}
	if got.BufferMissRate() != res.BufferMissRate() {
		t.Fatal("buffer miss rate changed across round trip")
	}
}

// TestResultJSONNilHistogram: a Result without a latency histogram (e.g.
// hand-built summaries) must still round-trip.
func TestResultJSONNilHistogram(t *testing.T) {
	res := sim.Result{Name: "x", TimePs: 5, Cores: 1, CyclePs: 500,
		Counters: map[string]int64{stats.MemReads: 3}}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var got sim.Result
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.MemLatency != nil || got.TimePs != 5 || got.Counters[stats.MemReads] != 3 {
		t.Fatalf("round trip changed result: %+v", got)
	}
}
