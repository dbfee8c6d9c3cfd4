package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"rcnvm/internal/config"
	"rcnvm/internal/fault"
	"rcnvm/internal/obs"
	"rcnvm/internal/stats"
	"rcnvm/internal/trace"
)

// TestObservedRunIsDeterministic is the zero-overhead contract at the
// simulator level: attaching a recorder must not change the run's timing,
// counters or per-bank traffic in any way.
func TestObservedRunIsDeterministic(t *testing.T) {
	streams := func(cfg config.System) []trace.Stream {
		return []trace.Stream{
			linearScan(cfg.Device.Geom, 512),
			columnScan(cfg.Device.Geom, 512),
		}
	}

	plainCfg := config.RCNVM()
	plain := mustRun(t, plainCfg, streams(plainCfg))

	obsCfg := config.RCNVM()
	sys, err := New(obsCfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	sys.Router.SetRecorder(rec, obs.ProcSimDual)
	observed, err := sys.Run(streams(obsCfg))
	if err != nil {
		t.Fatal(err)
	}

	if plain.TimePs != observed.TimePs {
		t.Fatalf("TimePs drifted: plain %d, observed %d", plain.TimePs, observed.TimePs)
	}
	if !reflect.DeepEqual(plain.Counters, observed.Counters) {
		t.Fatalf("counters drifted:\nplain:    %v\nobserved: %v", plain.Counters, observed.Counters)
	}
	if !reflect.DeepEqual(plain.Banks, observed.Banks) {
		t.Fatal("per-bank traffic drifted")
	}
	if rec.Len() == 0 {
		t.Fatal("recorder captured no spans")
	}
	for _, s := range rec.Spans() {
		if !s.Sim || s.Proc != obs.ProcSimDual || s.Cat != obs.CatMem {
			t.Fatalf("unexpected span %+v", s)
		}
		if s.Dur < 0 || s.Start < 0 {
			t.Fatalf("negative span %+v", s)
		}
	}
}

// TestTelemetryMatchesStats cross-checks the run's per-bank traffic against
// the device's aggregate counters: summed over banks they must agree.
func TestTelemetryMatchesStats(t *testing.T) {
	cfg := config.RCNVM()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run([]trace.Stream{
		linearScan(cfg.Device.Geom, 512),
		columnScan(cfg.Device.Geom, 512),
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(res.Banks) != cfg.Device.Geom.TotalBanks() {
		t.Fatalf("%d banks counted, want %d", len(res.Banks), cfg.Device.Geom.TotalBanks())
	}
	var hits, misses, reads, writebacks int64
	for _, b := range res.Banks {
		hits += b.RowHits + b.ColHits
		misses += b.RowMisses + b.ColMisses
		reads += b.Reads
		writebacks += b.Writebacks
	}
	if hits != res.Counters[stats.BufferHits] {
		t.Errorf("telemetry hits %d != stats %d", hits, res.Counters[stats.BufferHits])
	}
	if misses != res.Counters[stats.BufferMisses] {
		t.Errorf("telemetry misses %d != stats %d", misses, res.Counters[stats.BufferMisses])
	}
	if reads != res.Counters[stats.MemReads] {
		t.Errorf("telemetry reads %d != stats %d", reads, res.Counters[stats.MemReads])
	}
	if writebacks != res.Counters[stats.MemWritebacks] {
		t.Errorf("telemetry writebacks %d != stats %d", writebacks, res.Counters[stats.MemWritebacks])
	}
	if res.Banks[0].ColHits+res.Banks[0].ColMisses == 0 {
		t.Error("column scan recorded no column accesses on bank 0")
	}
}

// TestBankCountsMatchFaultyRun: on a run with both orientations, write-backs
// and ECC re-reads, every per-bank counter sums to its aggregate — each
// transfer holds the bus one burst. (Stores
// reach memory as write-backs: the caches allocate on write.)
func TestBankCountsMatchFaultyRun(t *testing.T) {
	cfg := smallCacheRCNVM()
	cfg.Fault = fault.Config{Enabled: true, Seed: 5, RBER: 1e-3, WearThresholdWrites: 8,
		WearStuckRate: 0.05, ContinueOnUncorrectable: true}
	res := mustRun(t, cfg, []trace.Stream{mixedCells(rand.New(rand.NewSource(3)), 3000)})

	var sum stats.BankCounters
	for _, b := range res.Banks {
		sum.Add(b)
	}
	c := res.Counters
	requests := c[stats.MemReads] + c[stats.MemWrites] + c[stats.MemWritebacks]
	for _, k := range []struct {
		name      string
		got, want int64
	}{
		{"reads", sum.Reads, c[stats.MemReads]},
		{"writes", sum.Writes, c[stats.MemWrites]},
		{"write-backs", sum.Writebacks, c[stats.MemWritebacks]},
		{"buffer hits", sum.RowHits + sum.ColHits, c[stats.BufferHits]},
		{"buffer misses", sum.RowMisses + sum.ColMisses, c[stats.BufferMisses]},
		{"ECC retries", sum.Retries, c[stats.ECCRetries]},
		{"bus time", sum.BusBusyPs, requests * cfg.Device.Timing.BurstPs()},
	} {
		if k.got != k.want {
			t.Errorf("per-bank %s sum to %d, want %d", k.name, k.got, k.want)
		}
	}
	if sum.RowHits == 0 || sum.ColHits == 0 || sum.Writebacks == 0 || sum.Retries == 0 || sum.QueuePeak == 0 {
		t.Fatalf("the run missed a case: %+v", sum)
	}
}
