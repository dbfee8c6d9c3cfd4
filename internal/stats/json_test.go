package stats

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestHistogramJSONRoundTrip(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{1, 3, 3, 900, 1 << 20, 1<<40 + 5, 7} {
		h.Observe(v)
	}

	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	got := NewHistogram()
	if err := json.Unmarshal(b, got); err != nil {
		t.Fatal(err)
	}

	if got.Count() != h.Count() || got.Min() != h.Min() || got.Max() != h.Max() {
		t.Fatalf("round trip changed summary: got n=%d min=%d max=%d, want n=%d min=%d max=%d",
			got.Count(), got.Min(), got.Max(), h.Count(), h.Min(), h.Max())
	}
	if got.Mean() != h.Mean() {
		t.Fatalf("mean changed: got %f, want %f", got.Mean(), h.Mean())
	}
	for _, q := range []float64{0.5, 0.95, 0.99, 1} {
		if got.Quantile(q) != h.Quantile(q) {
			t.Fatalf("q%.2f changed: got %d, want %d", q, got.Quantile(q), h.Quantile(q))
		}
	}
	if !reflect.DeepEqual(got.Buckets(), h.Buckets()) {
		t.Fatalf("buckets changed:\n got %v\nwant %v", got.Buckets(), h.Buckets())
	}
	// The decoded histogram keeps accumulating correctly.
	got.Observe(2)
	if got.Count() != h.Count()+1 {
		t.Fatal("decoded histogram not live")
	}
}

func TestHistogramJSONEmpty(t *testing.T) {
	b, err := json.Marshal(NewHistogram())
	if err != nil {
		t.Fatal(err)
	}
	got := NewHistogram()
	if err := json.Unmarshal(b, got); err != nil {
		t.Fatal(err)
	}
	if got.Count() != 0 || got.Min() != 0 || got.Max() != 0 {
		t.Fatalf("empty round trip: n=%d min=%d max=%d", got.Count(), got.Min(), got.Max())
	}
	got.Observe(9) // min tracking must still work after the round trip
	if got.Min() != 9 || got.Max() != 9 {
		t.Fatalf("post-decode observe broken: min=%d max=%d", got.Min(), got.Max())
	}
}

func TestHistogramJSONRejectsCorrupt(t *testing.T) {
	for _, bad := range []string{
		`{"count":2,"sum":3,"min":1,"max":2,"buckets":[[70,2]]}`, // index out of range
		`{"count":3,"sum":3,"min":1,"max":2,"buckets":[[1,2]]}`,  // count mismatch
	} {
		if err := json.Unmarshal([]byte(bad), NewHistogram()); err == nil {
			t.Errorf("decoded corrupt histogram %s", bad)
		}
	}
}
