package obs

import (
	"reflect"
	"sync"
	"testing"
	"time"
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

func TestTelemetryAccounting(t *testing.T) {
	tel := NewTelemetry(4, 0)
	tel.Access(1, false, true)  // row hit
	tel.Access(1, false, false) // row miss
	tel.Access(2, true, true)   // col hit
	tel.Access(2, true, true)
	tel.Access(2, true, false)
	tel.Request(1, false, false)
	tel.Request(1, true, false)
	tel.Request(3, false, true)
	tel.Enqueue(1)
	tel.Enqueue(1)
	tel.Dequeue(1)
	tel.Retry(2)
	tel.Bus(1, 6000)

	snap := tel.Snapshot()
	b1, b2, b3 := snap.Banks[1], snap.Banks[2], snap.Banks[3]
	if b1.RowHits != 1 || b1.RowMisses != 1 || b1.Reads != 1 || b1.Writes != 1 {
		t.Fatalf("bank1 = %+v", b1)
	}
	if b1.RowHitRate != 0.5 {
		t.Fatalf("bank1 row hit rate = %g, want 0.5", b1.RowHitRate)
	}
	if b1.Queued != 1 || b1.QueuePeak != 2 || b1.BusBusyPs != 6000 {
		t.Fatalf("bank1 queue/bus = %+v", b1)
	}
	if b2.ColHits != 2 || b2.ColMisses != 1 || b2.Retries != 1 {
		t.Fatalf("bank2 = %+v", b2)
	}
	if got := b2.ColHitRate; got < 0.66 || got > 0.67 {
		t.Fatalf("bank2 col hit rate = %g, want 2/3", got)
	}
	if b3.Writebacks != 1 {
		t.Fatalf("bank3 = %+v", b3)
	}
}

func TestTelemetryRingSampling(t *testing.T) {
	tel := NewTelemetry(1, 100)
	tel.Access(0, false, false)
	tel.MaybeSample(50) // before first interval boundary
	if len(tel.Snapshot().Samples) != 0 {
		t.Fatal("sampled before interval")
	}
	tel.MaybeSample(100)
	tel.Access(0, false, true)
	tel.MaybeSample(150) // same interval: no new sample
	tel.MaybeSample(350) // skips ahead: one sample, next at 400
	snap := tel.Snapshot()
	if len(snap.Samples) != 2 {
		t.Fatalf("samples = %d, want 2", len(snap.Samples))
	}
	if snap.Samples[0].At != 100 || snap.Samples[1].At != 350 {
		t.Fatalf("sample times = %d, %d", snap.Samples[0].At, snap.Samples[1].At)
	}
	// The first sample caught only the miss; the second both accesses.
	if snap.Samples[0].Banks[0].RowMisses != 1 || snap.Samples[0].Banks[0].RowHits != 0 {
		t.Fatalf("sample0 = %+v", snap.Samples[0].Banks[0])
	}
	if snap.Samples[1].Banks[0].RowHits != 1 {
		t.Fatalf("sample1 = %+v", snap.Samples[1].Banks[0])
	}
}

func TestTelemetryRingBounded(t *testing.T) {
	tel := NewTelemetry(1, 1)
	for i := 1; i <= DefaultRingSize+10; i++ {
		tel.MaybeSample(int64(i))
	}
	snap := tel.Snapshot()
	if len(snap.Samples) != DefaultRingSize {
		t.Fatalf("ring len = %d, want %d", len(snap.Samples), DefaultRingSize)
	}
	if snap.Samples[0].At != 11 {
		t.Fatalf("oldest sample at %d, want 11 (oldest dropped)", snap.Samples[0].At)
	}
}

func TestTelemetryMerge(t *testing.T) {
	agg := NewTelemetry(2, 0)
	run := NewTelemetry(2, 0)
	run.Access(0, false, true)
	run.Access(1, true, false)
	run.Enqueue(0)
	run.Dequeue(0)
	agg.Merge(run)
	agg.Merge(run)
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

// TestTelemetrySum: a sum of telemetries is what one telemetry merged into
// by every run reports — counters and runs added, queue peaks the maximum,
// no samples — and leaves its inputs alone.
func TestTelemetrySum(t *testing.T) {
	runA, runB := NewTelemetry(2, 0), NewTelemetry(2, 0)
	runA.Access(0, false, true)
	runA.Enqueue(1)
	runA.Enqueue(1)
	runA.Dequeue(1)
	runA.Dequeue(1)
	runB.Access(1, true, false)
	runB.Enqueue(1)
	runB.Dequeue(1)
	a, b, all := NewTelemetry(2, 0), NewTelemetry(2, 0), NewTelemetry(2, 0)
	a.Merge(runA)
	a.Merge(runA)
	b.Merge(runB)
	for _, run := range []*Telemetry{runA, runA, runB} {
		all.Merge(run)
	}
	got := Sum([]*Telemetry{a, b}).Snapshot()
	if want := all.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Sum = %+v, want %+v", got, want)
	}
	if got.Runs != 3 || got.Banks[1].QueuePeak != 2 || len(got.Samples) != 0 {
		t.Fatalf("Sum = %+v: want 3 runs, queue peak 2, no samples", got)
	}
	if a.Snapshot().Runs != 2 || b.Snapshot().Runs != 1 {
		t.Fatal("Sum changed its inputs")
	}
}
