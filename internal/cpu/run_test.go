package cpu

import (
	"reflect"
	"testing"

	"rcnvm/internal/addr"
	"rcnvm/internal/stats"
	"rcnvm/internal/trace"
)

// perOp is the fully expanded form of a stream: every access and every
// compute a record of its own.
func perOp(s trace.Stream) trace.Stream {
	var out trace.Stream
	s.Expand(func(op trace.Op) { out = append(out, op) })
	return out
}

// rigOutcome is everything a run reports.
type rigOutcome struct {
	End, FinishAt int64
	MemReq        int
	Counters      map[string]int64
	Latency       *stats.Histogram
}

func runStreams(t *testing.T, cfg Config, geom addr.Geometry, streams []trace.Stream) rigOutcome {
	t.Helper()
	rig := newRigGeom(t, cfg, geom)
	for i, s := range streams {
		rig.runner.SetStream(i, s)
	}
	end := rig.run()
	if !rig.runner.Done() {
		t.Fatal("runner not done")
	}
	return rigOutcome{end, rig.runner.FinishAt, rig.memReq, rig.st.Snapshot(), rig.runner.Latency()}
}

// TestRunFormEqualsPerOp: a stream in run form and its expansion, one
// record per op, are the same program — finish time, every counter, every
// latency bucket — wherever the cursor is when the core blocks.
func TestRunFormEqualsPerOp(t *testing.T) {
	rigGeom := addr.Geometry{ChannelBits: 1, RankBits: 2, BankBits: 3, SubarrayBits: 3,
		RowBits: 10, ColumnBits: 10, DualAddress: true}
	// One bank of 2^17 rows, so a single column holds a 10^5-access run.
	tall := addr.Geometry{BankBits: 1, RowBits: 17, ColumnBits: 10, DualAddress: true}
	col := func(n uint32, step int32, cycles int64) trace.Op {
		op := trace.Op{Kind: trace.CLoad, Coord: addr.Coord{Column: 3}, Axis: addr.Column, N: n, Step: step, Cycles: cycles}
		if step < 0 {
			op.Coord.Row = 1023
		}
		return op
	}
	ordered, pinned := col(96, 8, 2), col(32, 8, 0)
	ordered.Ordered, pinned.Pin = true, true
	upwards := trace.Op{Kind: trace.Store, Coord: addr.Coord{Row: 5, Column: 1016}, Axis: addr.Row, N: 100, Step: -8, Cycles: 1}
	gathers := trace.Op{Kind: trace.Gather, Coord: addr.Coord{Row: 2}, Axis: addr.Row, N: 40, Step: 16, GatherID: 9, Cycles: 8}

	one := DefaultConfig()
	one.Cores = 1
	cases := []struct {
		name    string
		cfg     Config
		geom    addr.Geometry
		streams []trace.Stream
	}{
		{"window fills mid-run", one, rigGeom, []trace.Stream{{col(128, 8, 0)}}},
		{"compute after each access", one, rigGeom, []trace.Stream{{col(128, 8, 16)}}},
		{"within one line", one, rigGeom, []trace.Stream{{col(64, 1, 1)}}},
		{"ordered run", one, rigGeom, []trace.Stream{{ordered, col(16, 8, 0)}}},
		{"pinned run then UnpinAll", one, rigGeom, []trace.Stream{{pinned, trace.BarrierOp(), col(256, 1, 1), trace.UnpinAllOp(), col(64, 8, 0)}}},
		{"barrier directly after a run", one, rigGeom, []trace.Stream{{col(40, 8, 3), trace.BarrierOp(), upwards, trace.BarrierOp()}}},
		{"gathers", one, rigGeom, []trace.Stream{{gathers, trace.ComputeOp(5), gathers}}},
		{"four cores", DefaultConfig(), rigGeom, []trace.Stream{
			{col(100, 10, 2)}, {upwards, trace.BarrierOp(), col(50, 1, 0)}, {ordered, pinned, trace.UnpinAllOp()}, {col(128, -8, 0)}}},
		{"one record of 1e5 accesses", one, tall, []trace.Stream{{col(100_000, 1, 1)}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := trace.Validate(tc.streams, tc.geom); err != nil {
				t.Fatal(err)
			}
			expanded := make([]trace.Stream, len(tc.streams))
			ops := 0
			for i, s := range tc.streams {
				expanded[i] = perOp(s)
				ops += len(expanded[i])
			}
			run, each := runStreams(t, tc.cfg, tc.geom, tc.streams), runStreams(t, tc.cfg, tc.geom, expanded)
			if !reflect.DeepEqual(run, each) {
				t.Errorf("run form %+v\nper op   %+v", run, each)
			}
			if got := run.Counters[stats.OpsExecuted]; got != int64(ops) {
				t.Errorf("ops executed = %d, want %d", got, ops)
			}
			if run.Counters[stats.StallPs] == 0 {
				t.Error("the core never blocked: nothing was resumed mid-record")
			}
		})
	}
}
