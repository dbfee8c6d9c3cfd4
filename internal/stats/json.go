package stats

import (
	"encoding/json"
	"fmt"
)

// histogramJSON is the wire form of a Histogram: its exact bucket
// contents, so a decode rebuilds an equivalent histogram — quantiles,
// mean, min and max all survive the round trip. Buckets holds
// (bucketIndex, count) pairs for the non-empty buckets; bucket i covers
// [2^i, 2^(i+1)).
type histogramJSON struct {
	Count   int64      `json:"count"`
	Sum     int64      `json:"sum"`
	Min     int64      `json:"min"`
	Max     int64      `json:"max"`
	Buckets [][2]int64 `json:"buckets,omitempty"`
}

// MarshalJSON renders the histogram's full state.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := histogramJSON{Count: h.s.count, Sum: h.s.sum, Max: h.s.max}
	if h.s.count > 0 {
		out.Min = h.s.min
	}
	for i, n := range h.s.buckets {
		if n > 0 {
			out.Buckets = append(out.Buckets, [2]int64{int64(i), n})
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON replaces the histogram's state with the decoded one.
func (h *Histogram) UnmarshalJSON(b []byte) error {
	var in histogramJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	var buckets [64]int64
	var total int64
	for _, p := range in.Buckets {
		i := p[0]
		if i < 0 || i >= 64 {
			return fmt.Errorf("stats: histogram bucket index %d out of range", i)
		}
		buckets[i] += p[1]
		total += p[1]
	}
	if total != in.Count {
		return fmt.Errorf("stats: histogram bucket counts sum to %d, want %d", total, in.Count)
	}
	out := Samples{buckets: buckets, count: in.Count, sum: in.Sum, max: in.Max}
	if in.Count > 0 {
		out.min = in.Min
	}
	h.mu.Lock()
	h.s = out
	h.mu.Unlock()
	return nil
}
