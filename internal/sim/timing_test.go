package sim_test

import (
	"reflect"
	"testing"

	"rcnvm/internal/config"
	"rcnvm/internal/obs"
	"rcnvm/internal/sim"
	"rcnvm/internal/trace"
)

// TestReplayerTime splits TestTimedPairPinned's stream over three shards,
// the middle one empty, and holds Replayer.Time to what one cold system per
// replay reports: each shard's as-issued and row-only time, MemOps summed,
// the statement's times the slowest shard's, the empty shard skipped, each
// shard's telemetry added to by its own as-issued replay only, the memory
// requests of both replays, and one replay_dual and one replay_row span.
// A single stream carries no shard breakdown, and all-empty input replays
// nothing and records nothing.
func TestReplayerTime(t *testing.T) {
	whole := captureSum(t)
	half := len(whole) / 2
	streams := []trace.Stream{whole[:half], nil, whole[half:]}
	banks := config.RCNVM().Device.Geom.TotalBanks()

	var want sim.Timing
	wantTels := make([]obs.Snapshot, len(streams))
	for i, s := range streams {
		tel := obs.NewTelemetry(banks)
		if len(s) > 0 {
			dual, err := sim.RunOn(config.RCNVM(), []trace.Stream{s})
			if err != nil {
				t.Fatal(err)
			}
			row, err := sim.RunOn(config.RCNVM(), []trace.Stream{trace.RowOnly(s)})
			if err != nil {
				t.Fatal(err)
			}
			tel.Add(dual.Banks)
			want.Shards = append(want.Shards, sim.ShardTiming{Shard: i, MemOps: s.MemOps(), DualPs: dual.TimePs, RowPs: row.TimePs})
			want.MemOps += s.MemOps()
			want.DualPs = max(want.DualPs, dual.TimePs)
			want.RowPs = max(want.RowPs, row.TimePs)
		}
		wantTels[i] = tel.Snapshot()
	}
	want.Speedup = float64(want.RowPs) / float64(want.DualPs)
	if want.MemOps != whole.MemOps() || len(want.Shards) != 2 {
		t.Fatalf("split lost accesses: %d of %d over %d shards", want.MemOps, whole.MemOps(), len(want.Shards))
	}

	r := sim.NewReplayer(2)
	tels := make([]*obs.Telemetry, len(streams))
	for i := range tels {
		tels[i] = obs.NewTelemetry(banks)
	}
	rec := obs.NewRecorderLimit(1 << 20) // room for every memory-request span
	got, err := r.Time(streams, tels, rec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("Time = %+v\nwant  %+v", *got, want)
	}
	for i, tel := range tels {
		if snap := tel.Snapshot(); !reflect.DeepEqual(snap, wantTels[i]) {
			t.Errorf("shard %d telemetry: %d runs, want %d; banks equal: %v",
				i, snap.Runs, wantTels[i].Runs, reflect.DeepEqual(snap.Banks, wantTels[i].Banks))
		}
	}
	var phases []string
	procs := map[string]bool{}
	for _, sp := range rec.Spans() {
		procs[sp.Proc] = true
		if sp.Proc == obs.ProcQuery {
			if sp.TID != 7 {
				t.Errorf("%s span on lane %d, want 7", sp.Name, sp.TID)
			}
			phases = append(phases, sp.Name)
		}
	}
	if !reflect.DeepEqual(phases, []string{"replay_dual", "replay_row"}) {
		t.Errorf("wall spans %v, want [replay_dual replay_row]", phases)
	}
	if !procs[obs.ProcSimDual] || !procs[obs.ProcSimRow] {
		t.Errorf("span processes %v: want memory-request spans of both replays", procs)
	}

	one, err := r.Time([]trace.Stream{whole}, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if one.Shards != nil || one.MemOps != whole.MemOps() || one.DualPs != 14_542_000 || one.RowPs != 187_159_000 {
		t.Errorf("single stream: %+v, want TestTimedPairPinned's times and no shard breakdown", *one)
	}

	built := r.Built()
	rec = obs.NewRecorder()
	none, err := r.Time([]trace.Stream{nil, {}}, tels[:2], rec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*none, sim.Timing{}) || rec.Len() != 0 || r.Built() != built || tels[0].Snapshot().Runs != 1 {
		t.Errorf("all-empty input: %+v, %d spans, %d systems built: want nothing replayed or recorded",
			*none, rec.Len(), r.Built()-built)
	}
}
