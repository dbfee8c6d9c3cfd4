package obs

import (
	"sync"

	"rcnvm/internal/stats"
)

// Per-bank telemetry: each simulated run counts its memory traffic per bank
// into its own stats.Block (sim.Result.Banks): which bank served every
// access, whether the open buffer hit, how deep each bank's queue ran, how
// long the data bus stayed busy on its behalf, and how many ECC retries it
// forced. A Telemetry sums those runs for a long-lived reader, such as a
// query server shard's /metrics ("which bank was the bottleneck").

// Telemetry accumulates the per-bank counters of many runs. It is safe for
// concurrent use: several replays add to one shard's telemetry while a
// scrape reads it.
type Telemetry struct {
	mu    sync.Mutex
	banks []stats.BankCounters
	runs  int64
}

// NewTelemetry creates telemetry for a device with the given bank count.
func NewTelemetry(banks int) *Telemetry {
	return &Telemetry{banks: make([]stats.BankCounters, banks)}
}

// Add folds one run's per-bank counters into the telemetry and counts the
// run. Banks beyond the telemetry's bank count are dropped.
func (t *Telemetry) Add(banks []stats.BankCounters) {
	t.mu.Lock()
	for i := range min(len(banks), len(t.banks)) {
		t.banks[i].Add(banks[i])
	}
	t.runs++
	t.mu.Unlock()
}

// Sum returns a new telemetry holding tels added together: bank counters
// and runs summed, queue peaks the maximum. tels must be non-empty with
// one bank count.
func Sum(tels []*Telemetry) *Telemetry {
	out := NewTelemetry(len(tels[0].banks))
	for _, t := range tels {
		t.mu.Lock()
		for i := range t.banks {
			out.banks[i].Add(t.banks[i])
		}
		out.runs += t.runs
		t.mu.Unlock()
	}
	return out
}

// BankSnapshot is the derived per-bank view /metrics renders.
type BankSnapshot struct {
	Bank int
	stats.BankCounters
	// RowHitRate and ColHitRate are buffer hit fractions per orientation
	// (0 when the orientation saw no traffic).
	RowHitRate float64
	ColHitRate float64
}

// Snapshot is the whole telemetry: the runs added and the derived
// per-bank rates.
type Snapshot struct {
	Runs  int64
	Banks []BankSnapshot
}

// Snapshot returns a consistent copy of the telemetry (one lock).
func (t *Telemetry) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := Snapshot{Runs: t.runs}
	out.Banks = make([]BankSnapshot, len(t.banks))
	for i, b := range t.banks {
		out.Banks[i] = BankSnapshot{
			Bank:         i,
			BankCounters: b,
			RowHitRate:   stats.Ratio(b.RowHits, b.RowMisses),
			ColHitRate:   stats.Ratio(b.ColHits, b.ColMisses),
		}
	}
	return out
}
