package sim_test

import (
	"testing"

	"rcnvm/internal/config"
	"rcnvm/internal/engine"
	"rcnvm/internal/experiments"
	"rcnvm/internal/imdb"
	"rcnvm/internal/sim"
	"rcnvm/internal/trace"
	"rcnvm/internal/workload"
)

// captureSum records the access stream of the timed_query aggregate,
// SELECT SUM(val), COUNT(*) FROM t WHERE grp = 3 over 4096 rows of
// t(id, grp, val): a column scan of grp, then a gather of val over the
// matching eighth of the rows.
func captureSum(tb testing.TB) trace.Stream {
	tb.Helper()
	db, err := engine.Open()
	if err != nil {
		tb.Fatal(err)
	}
	tbl, err := db.CreateTable("t", imdb.Uniform("t", 3), 4096)
	if err != nil {
		tb.Fatal(err)
	}
	for i := uint64(0); i < 4096; i++ {
		if _, err := tbl.Append(i, i%8, 3*i); err != nil {
			tb.Fatal(err)
		}
	}
	var stream trace.Stream
	tbl = tbl.Traced(&stream)
	rows, err := tbl.ScanWhere("f2", func(v []uint64) bool { return v[0] == 3 })
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := tbl.SumField("f3", rows); err != nil {
		tb.Fatal(err)
	}
	return stream
}

// BenchmarkTimedReplay is the simulator's share of one timed statement: the
// captured stream replayed as issued and downgraded to row-only. "reused"
// is what the server pays (one system, Reset between runs); "fresh" builds
// a system per run, which is what every statement paid before Reset.
func BenchmarkTimedReplay(b *testing.B) {
	stream := captureSum(b)
	pair := [2][]trace.Stream{{stream}, {trace.RowOnly(stream)}}
	b.Run("reused", func(b *testing.B) {
		sys, err := sim.New(config.RCNVM())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, streams := range pair {
				sys.Reset()
				if _, err := sys.Run(streams); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, streams := range pair {
				if _, err := sim.RunOn(config.RCNVM(), streams); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// build lowers one query at the medium scale to its per-core streams on
// sys: placing the tables and lowering the query, nothing simulated.
func build(tb testing.TB, sys config.System, id string) []trace.Stream {
	tb.Helper()
	env, err := workload.NewEnv(sys, experiments.ParamsFor(experiments.ScaleMedium))
	if err != nil {
		tb.Fatal(err)
	}
	q, _ := workload.QueryByID(id)
	if err := q.Build(env); err != nil {
		tb.Fatal(err)
	}
	return env.Exec.Streams()
}

// buildQ3 lowers the heaviest cell of the Fig 18 sweep, Q3 (SELECT * with
// most tuples matching) on RRAM at medium scale.
func buildQ3(tb testing.TB) []trace.Stream { return build(tb, config.RRAM(), "Q3") }

// BenchmarkBuildCell is the planner's share of a sweep cell: placing the
// tables and lowering the query, nothing simulated. B/op is the size of
// the trace. "setup" is the sim_sweep benchmark's set-up cell (Q1 on
// RC-NVM), "q3/rcnvm" a dense fetch lowered as a word-major column scan,
// "q3/rram" the sweep's heaviest cell (row fetches on the NVM layout) and
// "q3/dram" the same query on the linear placement.
func BenchmarkBuildCell(b *testing.B) {
	for _, c := range []struct {
		name, query string
		sys         config.System
	}{
		{"setup", "Q1", config.RCNVM()},
		{"q3/rcnvm", "Q3", config.RCNVM()},
		{"q3/rram", "Q3", config.RRAM()},
		{"q3/dram", "Q3", config.DRAM()},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				build(b, c.sys, c.query)
			}
		})
	}
}

// BenchmarkSweepCell is one whole sweep cell as bench/'s sim_sweep runs
// it: build, a fresh system, run.
func BenchmarkSweepCell(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunOn(config.RRAM(), buildQ3(b)); err != nil {
			b.Fatal(err)
		}
	}
}
