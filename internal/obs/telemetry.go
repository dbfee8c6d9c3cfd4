package obs

import (
	"sync"

	"rcnvm/internal/stats"
)

// Per-bank telemetry: the memory controller and device record which bank
// served every access, whether the open buffer hit, how deep each bank's
// queue ran, how long the data bus stayed busy on its behalf, and how many
// ECC retries it forced. Counters accumulate monotonically and are
// periodically snapshotted into a ring buffer, giving a bounded time
// series of the run ("which bank was the bottleneck, and when").

// BankCounters is the cumulative telemetry of one bank.
type BankCounters struct {
	Reads      int64 `json:"reads"`
	Writes     int64 `json:"writes"`
	Writebacks int64 `json:"writebacks"`
	RowHits    int64 `json:"row_hits"`
	RowMisses  int64 `json:"row_misses"`
	ColHits    int64 `json:"col_hits"`
	ColMisses  int64 `json:"col_misses"`
	Retries    int64 `json:"retries"`
	// BusBusyPs is simulated bus time spent on this bank's transfers.
	BusBusyPs int64 `json:"bus_busy_ps"`
	// Queued is the bank's current queue depth; QueuePeak its high-water
	// mark.
	Queued    int64 `json:"queued"`
	QueuePeak int64 `json:"queue_peak"`
}

// Add folds o into b: every counter summed, the queue peak the maximum,
// the instantaneous queue depth left alone.
func (b *BankCounters) Add(o BankCounters) {
	b.Reads += o.Reads
	b.Writes += o.Writes
	b.Writebacks += o.Writebacks
	b.RowHits += o.RowHits
	b.RowMisses += o.RowMisses
	b.ColHits += o.ColHits
	b.ColMisses += o.ColMisses
	b.Retries += o.Retries
	b.BusBusyPs += o.BusBusyPs
	if o.QueuePeak > b.QueuePeak {
		b.QueuePeak = o.QueuePeak
	}
}

// BankSample is one ring-buffer entry: the cumulative per-bank counters as
// of a point in simulated time, in picoseconds.
type BankSample struct {
	At    int64          `json:"at"`
	Banks []BankCounters `json:"banks"`
}

// DefaultSampleIntervalPs spaces in-run ring samples 100 us of simulated
// time apart — a few hundred samples for the paper's query workloads.
const DefaultSampleIntervalPs = 100_000_000

// DefaultRingSize bounds the ring buffer.
const DefaultRingSize = 256

// Telemetry accumulates per-bank counters and samples them into a ring.
// It is safe for concurrent use (the parallel sweep runner may merge
// several systems' telemetry); within one single-threaded simulation the
// lock is uncontended. A nil *Telemetry is the disabled path: call sites
// guard with `if tel != nil` so disabled runs pay one branch, no call.
type Telemetry struct {
	mu      sync.Mutex
	banks   []BankCounters
	everyPs int64
	nextPs  int64
	ring    []BankSample
	ringCap int
	runs    int64
}

// NewTelemetry creates telemetry for a device with the given bank count.
// everyPs spaces the ring samples (<= 0 disables sampling, for a
// telemetry that is only merged into).
func NewTelemetry(banks int, everyPs int64) *Telemetry {
	return &Telemetry{
		banks:   make([]BankCounters, banks),
		everyPs: everyPs,
		nextPs:  everyPs,
		ringCap: DefaultRingSize,
	}
}

// Banks returns the number of tracked banks.
func (t *Telemetry) Banks() int {
	if t == nil {
		return 0
	}
	return len(t.banks)
}

// Access records one device access: the bank, the orientation and whether
// the open buffer served it.
func (t *Telemetry) Access(bank int, column, hit bool) {
	t.mu.Lock()
	b := &t.banks[bank]
	switch {
	case column && hit:
		b.ColHits++
	case column:
		b.ColMisses++
	case hit:
		b.RowHits++
	default:
		b.RowMisses++
	}
	t.mu.Unlock()
}

// Request records one issued memory request by kind.
func (t *Telemetry) Request(bank int, write, writeback bool) {
	t.mu.Lock()
	b := &t.banks[bank]
	switch {
	case writeback:
		b.Writebacks++
	case write:
		b.Writes++
	default:
		b.Reads++
	}
	t.mu.Unlock()
}

// Enqueue notes a request entering the bank's controller queue.
func (t *Telemetry) Enqueue(bank int) {
	t.mu.Lock()
	b := &t.banks[bank]
	b.Queued++
	if b.Queued > b.QueuePeak {
		b.QueuePeak = b.Queued
	}
	t.mu.Unlock()
}

// Dequeue notes a request leaving the bank's queue (issued).
func (t *Telemetry) Dequeue(bank int) {
	t.mu.Lock()
	t.banks[bank].Queued--
	t.mu.Unlock()
}

// Retry records one ECC-triggered re-read of the bank.
func (t *Telemetry) Retry(bank int) {
	t.mu.Lock()
	t.banks[bank].Retries++
	t.mu.Unlock()
}

// Bus charges busyPs of data-bus occupancy to the bank's transfers.
func (t *Telemetry) Bus(bank int, busyPs int64) {
	t.mu.Lock()
	t.banks[bank].BusBusyPs += busyPs
	t.mu.Unlock()
}

// MaybeSample pushes a ring sample if the sampling interval has elapsed.
// The memory controller calls it once per issued request with the current
// simulation time.
func (t *Telemetry) MaybeSample(nowPs int64) {
	t.mu.Lock()
	if t.everyPs > 0 && nowPs >= t.nextPs {
		t.sampleLocked(nowPs)
		for t.nextPs <= nowPs {
			t.nextPs += t.everyPs
		}
	}
	t.mu.Unlock()
}

func (t *Telemetry) sampleLocked(at int64) {
	banks := make([]BankCounters, len(t.banks))
	copy(banks, t.banks)
	if len(t.ring) >= t.ringCap {
		// Drop the oldest entry; the ring keeps the most recent window.
		copy(t.ring, t.ring[1:])
		t.ring = t.ring[:len(t.ring)-1]
	}
	t.ring = append(t.ring, BankSample{At: at, Banks: banks})
}

// Merge folds another telemetry instance's counters into this one and
// counts one merged run. Bank counts must match.
func (t *Telemetry) Merge(o *Telemetry) {
	o.mu.Lock()
	banks := make([]BankCounters, len(o.banks))
	copy(banks, o.banks)
	o.mu.Unlock()

	t.mu.Lock()
	for i := range banks {
		if i < len(t.banks) {
			t.banks[i].Add(banks[i])
		}
	}
	t.runs++
	t.mu.Unlock()
}

// Sum returns a new telemetry holding tels added together: bank counters
// and merged runs summed, queue peaks the maximum, no samples. tels must be
// non-empty with one bank count.
func Sum(tels []*Telemetry) *Telemetry {
	out := NewTelemetry(len(tels[0].banks), 0)
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

// BankSnapshot is the derived per-bank view served over /stats/banks.
type BankSnapshot struct {
	Bank int `json:"bank"`
	BankCounters
	// RowHitRate and ColHitRate are buffer hit fractions per orientation
	// (0 when the orientation saw no traffic).
	RowHitRate float64 `json:"row_hit_rate"`
	ColHitRate float64 `json:"col_hit_rate"`
}

// Snapshot is the full telemetry payload: derived per-bank rates plus the
// raw ring-buffer time series.
type Snapshot struct {
	Runs    int64          `json:"runs"`
	Banks   []BankSnapshot `json:"banks"`
	Samples []BankSample   `json:"samples"`
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
	out.Samples = make([]BankSample, len(t.ring))
	copy(out.Samples, t.ring)
	return out
}
