package main

import (
	"math"
	"slices"
	"sort"
)

// Exact order statistics over raw samples. The server's own latency
// histogram has power-of-two buckets, so a median between 262 µs and
// 524 µs reads as 524 µs whatever happened; the benchmark keeps every
// sample instead.

// quantile returns the q-quantile of vals, interpolating linearly between
// order statistics (0 for an empty slice). vals is sorted in place.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	pos := q * float64(len(vals)-1)
	i := int(pos)
	if i+1 >= len(vals) {
		return vals[i]
	}
	f := pos - float64(i)
	return vals[i]*(1-f) + vals[i+1]*f
}

// median returns the exact median of vals. vals is sorted in place.
func median(vals []float64) float64 { return quantile(vals, 0.5) }

// Blocks of one run are not one population: the shared host stalls some of
// them (another tenant's burst on the disk or a core), and an instance's
// memory placement sorts the rest into a fast and a slow mode. The
// interference only ever slows a block, so what repeats from run to run is
// the least-disturbed decile: the rate a tenth of the blocks exceed, the
// latency a tenth of the blocks stay under. Of eight statistics tried over
// eleven sets of ten runs (mean, median, midmean, quartiles, best block,
// ...) these spread least, 6.6% and 7.0% on average; with a synthetic
// noisy neighbour bursting write+fsync on the disk, durable_write's rate
// spread 18% as the mean of the blocks and 11% as their upper decile.
const (
	rateQuantile    = 0.9
	latencyQuantile = 0.1
)

// medianNs is median over nanosecond samples.
func medianNs(ns []int64) float64 {
	f := make([]float64, len(ns))
	for i, v := range ns {
		f[i] = float64(v)
	}
	return median(f)
}

// tail reports the client-visible tail: the 99th percentile or, with fewer
// than 1000 samples, the highest percentile that still has ten samples
// beyond it. With fewer than eleven samples it reports the maximum at
// percentile 0.
func tail(ns []int64) (pct float64, value int64) {
	n := len(ns)
	if n == 0 {
		return 0, 0
	}
	s := slices.Clone(ns)
	slices.Sort(s)
	if n <= 10 {
		return 0, s[n-1]
	}
	beyond := max(10, n/100)
	return 100 * float64(n-beyond) / float64(n), s[n-beyond-1]
}

// selfUs is the median, in microseconds, of what each statement took on
// the upper rung beyond what the same statement took on the rung below.
// Pairing by statement keeps a mix of cheap and dear statements from
// turning the difference of two medians into a comparison of two
// different statements.
func selfUs(upper, lower []int64) float64 {
	d := make([]float64, len(upper))
	for i := range upper {
		d[i] = float64(upper[i]-lower[i]) / 1e3
	}
	return median(d)
}

func sumNs(ns []int64) int64 {
	var t int64
	for _, v := range ns {
		t += v
	}
	return t
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
