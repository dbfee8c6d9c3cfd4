package obs

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"rcnvm/internal/stats"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Add(Span{Name: "x"})
	r.Sim(ProcSimDual, "queue", CatMem, 0, 0, 1)
	r.WallSince(ProcQuery, "exec", CatSQL, 0, time.Now())
	if r.Spans() != nil || r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder must report empty state")
	}
}

func TestRecorderLimitCountsDropped(t *testing.T) {
	r := NewRecorderLimit(2)
	for i := 0; i < 5; i++ {
		r.Sim(ProcSimDual, "queue", CatMem, 0, int64(i), 1)
	}
	if r.Len() != 2 {
		t.Fatalf("len = %d, want 2", r.Len())
	}
	if r.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", r.Dropped())
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Sim(ProcSimDual, "queue", CatMem, int64(g), int64(i), 1)
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Fatalf("len = %d, want 800", r.Len())
	}
}

func TestWallSinceUsesEpoch(t *testing.T) {
	r := NewRecorder()
	start := r.Epoch().Add(5 * time.Millisecond)
	r.WallSince(ProcQuery, "exec", CatSQL, 0, start)
	s := r.Spans()[0]
	if s.Start != (5 * time.Millisecond).Nanoseconds() {
		t.Fatalf("start = %d ns, want 5ms", s.Start)
	}
	if s.Sim {
		t.Fatal("wall span marked sim")
	}
}

// TestTelemetryAccounting: runs' bank counters add up bank by bank, the
// queue peak is the maximum over runs, the instantaneous depth is left
// alone, every Add counts a run, and Snapshot derives the hit rates.
func TestTelemetryAccounting(t *testing.T) {
	tel := NewTelemetry(3)
	tel.Add([]stats.BankCounters{
		1: {Reads: 1, Writes: 1, RowHits: 1, RowMisses: 1, QueuePeak: 2, Queued: 1, BusBusyPs: 6000},
		2: {ColHits: 2, ColMisses: 1, Retries: 1, Writebacks: 1},
	})
	tel.Add([]stats.BankCounters{
		1: {Reads: 2, RowHits: 2, QueuePeak: 1, BusBusyPs: 4000},
		2: {ColHits: 1, Retries: 2},
	})
	snap := tel.Snapshot()
	if snap.Runs != 2 || len(snap.Banks) != 3 {
		t.Fatalf("runs = %d, banks = %d; want 2, 3", snap.Runs, len(snap.Banks))
	}
	b0, b1, b2 := snap.Banks[0], snap.Banks[1], snap.Banks[2]
	if b0.BankCounters != (stats.BankCounters{}) || b0.Bank != 0 {
		t.Fatalf("bank0 = %+v, want untouched", b0)
	}
	want1 := stats.BankCounters{Reads: 3, Writes: 1, RowHits: 3, RowMisses: 1, QueuePeak: 2, BusBusyPs: 10000}
	if b1.Bank != 1 || b1.BankCounters != want1 || b1.RowHitRate != 0.75 || b1.ColHitRate != 0 {
		t.Fatalf("bank1 = %+v, want %+v at row hit rate 0.75", b1, want1)
	}
	want2 := stats.BankCounters{ColHits: 3, ColMisses: 1, Retries: 3, Writebacks: 1}
	if b2.BankCounters != want2 || b2.ColHitRate != 0.75 {
		t.Fatalf("bank2 = %+v, want %+v at col hit rate 0.75", b2, want2)
	}
}

// TestTelemetryMerge: one run's bank counters added twice count two runs,
// double every counter and keep the queue peak at the run's own peak.
func TestTelemetryMerge(t *testing.T) {
	agg := NewTelemetry(2)
	run := []stats.BankCounters{{RowHits: 1, QueuePeak: 1}, {ColMisses: 1}}
	agg.Add(run)
	agg.Add(run)
	snap := agg.Snapshot()
	if snap.Runs != 2 {
		t.Fatalf("runs = %d, want 2", snap.Runs)
	}
	if snap.Banks[0].RowHits != 2 || snap.Banks[1].ColMisses != 2 {
		t.Fatalf("merged = %+v", snap.Banks)
	}
	if snap.Banks[0].QueuePeak != 1 {
		t.Fatalf("queue peak = %d, want max-merge 1", snap.Banks[0].QueuePeak)
	}
}

// TestTelemetryAddBankCounts: a run with more banks than the telemetry
// loses the extra banks; one with fewer adds to the banks it has.
func TestTelemetryAddBankCounts(t *testing.T) {
	tel := NewTelemetry(2)
	tel.Add([]stats.BankCounters{{Reads: 1}, {Reads: 2}, {Reads: 4}})
	tel.Add([]stats.BankCounters{{Writes: 1}})
	snap := tel.Snapshot()
	if snap.Runs != 2 || len(snap.Banks) != 2 || snap.Banks[0].Reads != 1 || snap.Banks[0].Writes != 1 || snap.Banks[1].Reads != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	var none *Telemetry
	if none.Snapshot().Banks != nil {
		t.Fatal("a nil telemetry must report no banks")
	}
}

// TestTelemetrySum: a sum of telemetries is what one telemetry added to by
// every run reports — counters and runs added, queue peaks the maximum —
// and leaves its inputs alone.
func TestTelemetrySum(t *testing.T) {
	runA := []stats.BankCounters{{RowHits: 1}, {Reads: 1, QueuePeak: 2}}
	runB := []stats.BankCounters{{}, {ColMisses: 1, QueuePeak: 1}}
	a, b, all := NewTelemetry(2), NewTelemetry(2), NewTelemetry(2)
	a.Add(runA)
	a.Add(runA)
	b.Add(runB)
	for _, run := range [][]stats.BankCounters{runA, runA, runB} {
		all.Add(run)
	}
	got := Sum([]*Telemetry{a, b}).Snapshot()
	if want := all.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Sum = %+v, want %+v", got, want)
	}
	if got.Runs != 3 || got.Banks[0].RowHits != 2 || got.Banks[1].QueuePeak != 2 {
		t.Fatalf("Sum = %+v: want 3 runs, 2 row hits, queue peak 2", got)
	}
	if a.Snapshot().Runs != 2 || b.Snapshot().Runs != 1 {
		t.Fatal("Sum changed its inputs")
	}
}

// TestTelemetryConcurrentAdd: replays on several goroutines add to one
// telemetry while it is read.
func TestTelemetryConcurrentAdd(t *testing.T) {
	tel := NewTelemetry(1)
	run := []stats.BankCounters{{Reads: 1}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tel.Add(run)
				_ = Sum([]*Telemetry{tel}).Snapshot()
			}
		}()
	}
	wg.Wait()
	if snap := tel.Snapshot(); snap.Runs != 400 || snap.Banks[0].Reads != 400 {
		t.Fatalf("snapshot = %+v, want 400 runs and reads", snap)
	}
}
