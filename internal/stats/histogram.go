package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
)

// Histogram accumulates int64 samples (picoseconds in this project) into
// logarithmic buckets: bucket i covers [2^i, 2^(i+1)) for i >= 1, and
// bucket 0 covers [0, 2) plus any stray negative samples (a sample below
// the documented range is clamped into the lowest bucket rather than
// misfiled or dropped). It is cheap enough to record every memory
// operation's latency, and safe for concurrent use.
type Histogram struct {
	mu sync.Mutex
	s  Samples
}

// Samples is what a Histogram holds, without the lock: a value that one
// goroutine records into on its own and then publishes, once, as a
// Histogram. The zero value is empty.
type Samples struct {
	buckets [64]int64
	count   int64
	sum     int64
	min     int64 // meaningful once count > 0
	max     int64
}

// Observe records one sample. Non-positive samples count into bucket 0
// (the [0,2) bucket); they still contribute to count, sum, min and max.
func (s *Samples) Observe(v int64) {
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v)) - 1
	}
	s.buckets[i]++
	if s.count == 0 || v < s.min {
		s.min = v
	}
	s.count++
	s.sum += v
	if v > s.max {
		s.max = v
	}
}

// Histogram returns a new Histogram holding a copy of the samples.
func (s *Samples) Histogram() *Histogram { return &Histogram{s: *s} }

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return new(Histogram) }

// Observe records one sample, as Samples.Observe does.
func (h *Histogram) Observe(v int64) {
	h.mu.Lock()
	h.s.Observe(v)
	h.mu.Unlock()
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.s.count
}

// Mean returns the average sample, or 0 when empty.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.s.count == 0 {
		return 0
	}
	return float64(h.s.sum) / float64(h.s.count)
}

// Min returns the smallest sample (0 when empty).
func (h *Histogram) Min() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.s.count == 0 {
		return 0
	}
	return h.s.min
}

// Max returns the largest sample.
func (h *Histogram) Max() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.s.max
}

// Quantile returns an upper bound of the q-quantile (0 < q <= 1) at bucket
// resolution: the top of the bucket containing the q-th sample.
func (h *Histogram) Quantile(q float64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.s.count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(h.s.count)))
	var seen int64
	for i, n := range h.s.buckets {
		seen += n
		if seen >= target {
			if i == 63 {
				return h.s.max
			}
			upper := int64(1) << uint(i+1)
			if upper > h.s.max {
				return h.s.max
			}
			return upper
		}
	}
	return h.s.max
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.s.sum
}

// Cumulative returns the distribution as Prometheus-style cumulative
// buckets: bounds[i] is the inclusive upper bound of bucket i (2^(i+1)-1)
// and counts[i] the number of samples <= bounds[i]. Buckets above the
// highest non-empty one are omitted (the +Inf bucket is Count()).
func (h *Histogram) Cumulative() (bounds, counts []int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	top := -1
	for i, n := range h.s.buckets {
		if n > 0 {
			top = i
		}
	}
	if top < 0 {
		return nil, nil
	}
	bounds = make([]int64, top+1)
	counts = make([]int64, top+1)
	var cum int64
	for i := 0; i <= top; i++ {
		cum += h.s.buckets[i]
		if i == 63 {
			bounds[i] = math.MaxInt64
		} else {
			bounds[i] = int64(1)<<uint(i+1) - 1
		}
		counts[i] = cum
	}
	return bounds, counts
}

// Buckets returns the non-empty buckets as (lowerBound, count) pairs in
// ascending order.
func (h *Histogram) Buckets() [][2]int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out [][2]int64
	for i, n := range h.s.buckets {
		if n > 0 {
			out = append(out, [2]int64{1 << uint(i), n})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.0f min=%d p50=%d p95=%d p99=%d max=%d",
		h.Count(), h.Mean(), h.Min(), h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99), h.Max())
	return b.String()
}
