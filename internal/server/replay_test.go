package server

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"rcnvm/internal/config"
	"rcnvm/internal/engine"
	"rcnvm/internal/obs"
	"rcnvm/internal/shard"
	"rcnvm/internal/sim"
	"rcnvm/internal/sql"
	"rcnvm/internal/trace"
)

// replaySeed creates and fills t(id, grp, val): 512 rows, grp = id mod 8.
func replaySeed() []string {
	var ins bytes.Buffer
	ins.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < 512; i++ {
		if i > 0 {
			ins.WriteByte(',')
		}
		fmt.Fprintf(&ins, "(%d,%d,%d)", i, i%8, 3*i)
	}
	return []string{"CREATE TABLE t (id, grp, val) CAPACITY 1024", ins.String()}
}

// replayStatements is session k's share of the load: point reads, grouped
// aggregates and an UPDATE of val. No statement's access trace depends on a
// val, so the traces — and with them the timings — are the same whatever
// order the sessions interleave in.
func replayStatements(k int) []string {
	var out []string
	for i := 0; i < 16; i++ {
		id := 128*k + 7*i
		switch i % 4 {
		case 0:
			out = append(out, fmt.Sprintf("SELECT val FROM t WHERE id = %d", id))
		case 1:
			out = append(out, fmt.Sprintf("SELECT SUM(val), COUNT(*) FROM t WHERE grp = %d", (k+i)%8))
		case 2:
			out = append(out, fmt.Sprintf("UPDATE t SET val = %d WHERE id = %d", 1000+i, id))
		default:
			out = append(out, fmt.Sprintf("SELECT AVG(val) FROM t WHERE grp = %d", i%8))
		}
	}
	return out
}

// TestTimedStatementsReuseSimulators: 64 timed statements from 4 concurrent
// sessions, with garbage collections as part of the load (a server under
// load collects constantly — the free list must survive that, which a
// sync.Pool does not), build at most one system per worker (a run slot
// holds its statement through the replays) and count one
// timed_queries per timing:true request; every Timing is what two fresh
// sim.RunOn calls give for the statement's captured stream;
// and the per-bank telemetry equals both the sum of those fresh runs'
// Banks and what a server that never reuses a system reports.
func TestTimedStatementsReuseSimulators(t *testing.T) {
	const sessions, workers = 4, 2

	// The reference: a twin database, each statement's stream captured
	// through the same pipeline and replayed on two systems built for it.
	db, err := engine.Open()
	if err != nil {
		t.Fatal(err)
	}
	twin := shard.Wrap(db)
	for _, q := range replaySeed() {
		if _, _, err := sql.Execute(twin, q, sql.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	want := make(map[string]sim.Timing) // by statement text; sessions share some
	statements := 0
	wantTel := obs.NewTelemetry(config.RCNVM().Device.Geom.TotalBanks())
	for k := 0; k < sessions; k++ {
		for _, q := range replayStatements(k) {
			_, streams, err := sql.Execute(twin, q, sql.ExecOptions{Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			dual, err := sim.RunOn(config.RCNVM(), streams)
			if err != nil {
				t.Fatal(err)
			}
			wantTel.Add(dual.Banks)
			row, err := sim.RunOn(config.RCNVM(), []trace.Stream{trace.RowOnly(streams[0])})
			if err != nil {
				t.Fatal(err)
			}
			statements++
			want[q] = sim.Timing{MemOps: streams[0].MemOps(), DualPs: dual.TimePs, RowPs: row.TimePs,
				Speedup: float64(row.TimePs) / float64(dual.TimePs)}
		}
	}

	serve := func(keep int, concurrent bool) *Server {
		s, addr := newTestServer(t, Options{Workers: workers})
		s.replays = sim.NewReplayer(keep)
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range replaySeed() {
			mustQuery(t, c, q)
		}
		c.Close()
		var wg sync.WaitGroup
		for k := 0; k < sessions; k++ {
			session := func() {
				defer wg.Done()
				c, err := Dial(addr)
				if err != nil {
					t.Error(err)
					return
				}
				defer c.Close()
				for _, q := range replayStatements(k) {
					resp, err := c.QueryTimed(q)
					if err != nil {
						t.Errorf("%s: %v", q, err)
						return
					}
					if resp.Timing == nil || !reflect.DeepEqual(*resp.Timing, want[q]) {
						t.Errorf("%s: timing %+v, want %+v from fresh systems", q, resp.Timing, want[q])
					}
					runtime.GC()
				}
			}
			wg.Add(1)
			if concurrent {
				go session()
			} else {
				session()
			}
		}
		wg.Wait()
		return s
	}

	reusing := serve(workers, true)
	counters := reusing.Stats().Counters
	built := counters[ReplaySimsBuilt]
	if built < 1 || built > workers {
		t.Fatalf("%s = %d after %d timed statements, want 1..%d", ReplaySimsBuilt, built, statements, workers)
	}
	if n := counters[TimedQueries]; n != int64(statements) {
		t.Fatalf("%s = %d, want one per timing:true request (%d); the seed statements were untimed", TimedQueries, n, statements)
	}
	got := reusing.Telemetry().Snapshot()
	if w := wantTel.Snapshot(); got.Runs != int64(statements) || !reflect.DeepEqual(got, w) {
		t.Fatalf("bank telemetry differs from fresh runs: runs %d vs %d, banks equal: %v",
			got.Runs, w.Runs, reflect.DeepEqual(got.Banks, w.Banks))
	}

	never := serve(0, false)
	if b := never.Stats().Counters[ReplaySimsBuilt]; b != int64(2*statements) {
		t.Fatalf("the never-reusing server built %d systems, want one per replay (%d)", b, 2*statements)
	}
	if !reflect.DeepEqual(got, never.Telemetry().Snapshot()) {
		t.Fatal("bank telemetry differs between the reusing and the never-reusing server")
	}
}
