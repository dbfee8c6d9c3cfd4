package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"rcnvm/internal/cluster"
	"rcnvm/internal/config"
	"rcnvm/internal/durable"
	"rcnvm/internal/engine"
	"rcnvm/internal/server"
	"rcnvm/internal/shard"
	"rcnvm/internal/sim"
	"rcnvm/internal/sql"
	"rcnvm/internal/trace"
)

// The traced run records spans from the benchmark's own code only, around
// its calls into each layer; spans inside the program are a later change.
// A serving workload's statement list is replayed through rungs — direct
// engine calls, sql, Server.Do, a TCP session, a TCP session through the
// router — each on a fresh, identical database, so a layer's self time is
// the median, over the statements, of its rung's time minus the time of
// the rung it calls.

type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"` // the span (of the same req) that calls this one
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) span(name, parent string, req int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name, parent, req, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

func (t *tracer) write(workload string) error {
	doc, err := json.Marshal(map[string]any{"workload": workload, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir(), "trace_"+workload+".json"), doc, 0o644)
}

// rung replays list through call, one span per statement, and returns the
// per-statement host times. call reports whether the answer was right.
func (t *tracer) rung(name, parent string, list []stmt, res *result, call func(s *stmt) bool) []int64 {
	ns := make([]int64, len(list))
	for i := range list {
		start := time.Now()
		ok := call(&list[i])
		end := time.Now()
		ns[i] = end.Sub(start).Nanoseconds()
		t.span(name, parent, i, start, end)
		res.attempted++
		if !ok {
			res.failed++
		}
	}
	return ns
}

// reply adapts the sql layer's return values to the oracle's input.
func reply(r *sql.Result, err error) *server.Response {
	if err != nil {
		return nil
	}
	return &server.Response{Rows: r.Rows, Floats: r.Floats, Affected: r.Affected}
}

// rungs measures every layer under one session's first block of the
// workload's statements.
func (w *serving) rungs(o options, tr *tracer, res *result) error {
	list := newSession(w, rand.New(rand.NewSource(o.seed)).Int63(), 0).block(w, w.block)
	m := res.metrics
	us := func(ns []int64) float64 { return medianNs(ns) / 1e3 }

	// engine: the statements as direct engine.Table calls.
	cl, _, err := w.openCluster(1, "")
	if err != nil {
		return err
	}
	db := cl.Shard(0)
	engineNs := tr.rung("engine", "sql", list, res, func(s *stmt) bool { return s.eng(db) == nil })

	// sql: plan cache + lock round + execution, as the server calls it
	// for plain statements.
	if cl, _, err = w.openCluster(1, ""); err != nil {
		return err
	}
	plans := sql.NewPlanCache(0)
	cachedNs := tr.rung("sql", "server", list, res, func(s *stmt) bool {
		return s.want.matches(reply(sql.ExecShardedCached(cl, plans, s.sql)), false)
	})

	// sql with access-trace capture, as the server calls it for timing:true.
	if cl, _, err = w.openCluster(1, ""); err != nil {
		return err
	}
	var captured [][]trace.Stream
	tracedNs := tr.rung("sql_traced", "server", list, res, func(s *stmt) bool {
		r, streams, err := sql.ExecShardedTraced(cl, s.sql)
		if w.timed {
			captured = append(captured, streams)
		}
		return s.want.matches(reply(r, err), false)
	})
	m["engine.trace_capture_ratio"] = float64(sumNs(tracedNs)) / float64(sumNs(cachedNs))
	sqlNs := cachedNs
	if w.timed {
		sqlNs = tracedNs
	}
	m["sql.exec_self_us"] = selfUs(cachedNs, engineNs)

	// two shards: what scatter-gather costs the same statements.
	cl2, _, err := w.openCluster(2, "")
	if err != nil {
		return err
	}
	plans2 := sql.NewPlanCache(0)
	shard2Ns := tr.rung("sql_2shards", "server", list, res, func(s *stmt) bool {
		return s.want.matches(reply(sql.ExecShardedCached(cl2, plans2, s.sql)), false)
	})
	m["shard.scatter2_ratio"] = float64(sumNs(shard2Ns)) / float64(sumNs(cachedNs))

	// server, tcp, router, batch: each on its own fresh instance.
	var (
		doNs, tcpNs, routerNs []int64
		dualPs, rowPs         int64
		speedups              float64
	)
	err = w.onInstance(func(e *env) error {
		doNs = tr.rung("server", "tcp", list, res, func(s *stmt) bool {
			r := e.srv.Do(&server.Request{Query: s.sql, Timing: w.timed})
			if r.Timing != nil {
				dualPs += r.Timing.DualPs
				rowPs += r.Timing.RowPs
				speedups += r.Timing.Speedup
			}
			return s.want.matches(r, w.timed)
		})
		return nil
	})
	if err != nil {
		return err
	}
	m["server.do_self_us"] = selfUs(doNs, sqlNs)
	if w.timed {
		// Simulated, so exact for a given seed: the timed path's answers.
		m["sim.dual_ps_sum"] = float64(dualPs)
		m["sim.row_ps_sum"] = float64(rowPs)
		m["sim.attr_speedup_mean"] = speedups / float64(len(list))
	}

	// over is a rung that sends each statement over one TCP session.
	over := func(c *server.Client, name, parent string) []int64 {
		return tr.rung(name, parent, list, res, func(s *stmt) bool {
			r, _ := c.Do(server.Request{Query: s.sql, Timing: w.timed})
			return s.want.matches(r, w.timed)
		})
	}
	err = w.onInstance(func(e *env) error {
		tcpNs = over(e.conns[0], "tcp", "router")
		return nil
	})
	if err != nil {
		return err
	}
	m["client.wire_us"] = selfUs(tcpNs, doNs)

	err = w.onInstance(func(e *env) error {
		rt := cluster.NewRouter(cluster.RouterOptions{Primary: cluster.Backend{TCP: e.addr}})
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			rt.Shutdown(ctx)
		}()
		raddr, err := rt.ListenTCP("127.0.0.1:0")
		if err != nil {
			return err
		}
		routed, err := server.Dial(raddr.String())
		if err != nil {
			return err
		}
		defer routed.Close()
		routerNs = over(routed, "router", "")
		return nil
	})
	if err != nil {
		return err
	}
	m["cluster.router_hop_us"] = selfUs(routerNs, tcpNs)

	var batchNs int64
	err = w.onInstance(func(e *env) error {
		for i := 0; i < len(list); i += 16 {
			batch := list[i:min(i+16, len(list))]
			texts := make([]string, len(batch))
			for j := range batch {
				texts[j] = batch[j].sql
			}
			start := time.Now()
			slots, err := e.conns[0].Batch(texts)
			end := time.Now()
			batchNs += end.Sub(start).Nanoseconds()
			tr.span("tcp_batch16", "", i, start, end)
			for j := range batch {
				res.attempted++
				if err != nil || !batch[j].want.matches(slots[j], false) {
					res.failed++
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["server.batch16_us_per_stmt"] = float64(batchNs) / 1e3 / float64(len(list))

	// the parser alone, cold and through a warm plan cache.
	parseNs := tr.rung("sql.parse", "sql", list, res, func(s *stmt) bool {
		_, err := sql.Parse(s.sql)
		return err == nil
	})
	m["sql.parse_us"] = us(parseNs)
	hitNs := tr.rung("sql.plancache", "sql", list, res, func(s *stmt) bool {
		_, err := plans.Parse(s.sql)
		return err == nil
	})
	m["sql.plancache_hit_us"] = us(hitNs)

	if err := w.engineMicro(m); err != nil {
		return err
	}
	if w.durable {
		if err := w.durableRungs(tr, list, res, cachedNs); err != nil {
			return err
		}
	}
	if w.timed {
		if err := simRung(tr, captured, m); err != nil {
			return err
		}
	}
	fmt.Printf("# %s rung medians (us): engine %.2f  sql %.2f  sql_traced %.2f  server %.2f  tcp %.2f  router %.2f\n",
		w.name, us(engineNs), us(cachedNs), us(tracedNs), us(doNs), us(tcpNs), us(routerNs))
	return nil
}

// onInstance runs f against a freshly set-up instance and tears it down.
func (w *serving) onInstance(f func(e *env) error) error {
	e, err := w.setUp()
	if err != nil {
		return err
	}
	defer e.tearDown()
	return f(e)
}

// engineMicro times the three engine primitives the statements are made
// of, on a table of the workload's size.
func (w *serving) engineMicro(m map[string]float64) error {
	cl, _, err := w.openCluster(1, "")
	if err != nil {
		return err
	}
	t, _ := cl.Shard(0).Table(w.table)
	const reps = 64
	scan, point, app := make([]float64, reps), make([]float64, reps), make([]float64, reps)
	for i := 0; i < reps; i++ {
		grp := uint64(i % groups)
		t0 := time.Now()
		rows, err := t.ScanWhere("grp", idEquals(grp))
		if err == nil {
			_, err = t.SumField("val", rows)
		}
		scan[i] = float64(time.Since(t0).Nanoseconds()) / float64(w.rows)
		if err != nil {
			return err
		}
		t0 = time.Now()
		if rows, err = t.ScanWhere("id", idEquals(uint64(i%w.rows))); err == nil {
			_, err = t.Project(rows, []string{"val"})
		}
		point[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		if err != nil {
			return err
		}
	}
	scratch, err := cl.Shard(0).CreateTable("scratch", t.Schema(), reps)
	if err != nil {
		return err
	}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		_, err := scratch.Append(uint64(i), uint64(i%groups), uint64(i))
		app[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		if err != nil {
			return err
		}
	}
	m["engine.scan_ns_per_row"] = median(scan)
	m["engine.point_us"] = median(point)
	m["engine.append_us"] = median(app)
	return nil
}

// durableRungs prices the commit (the sql rung again, on a cluster with a
// WAL and fsync=always) and a follower's apply rate over the records that
// rung wrote.
func (w *serving) durableRungs(tr *tracer, list []stmt, res *result, volatileNs []int64) error {
	dir, err := os.MkdirTemp(outDir(), "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	always := *w
	always.fsync = durable.SyncAlways
	cl, store, err := always.openCluster(1, dir)
	if err != nil {
		return err
	}
	defer store.Close()
	plans := sql.NewPlanCache(0)
	ns := tr.rung("sql_durable", "server", list, res, func(s *stmt) bool {
		return s.want.matches(reply(sql.ExecShardedCached(cl, plans, s.sql)), false)
	})
	res.metrics["durable.commit_us"] = selfUs(ns, volatileNs)

	primary := server.NewCluster(cl, server.Options{Durable: store})
	defer primary.Abort()
	haddr, err := primary.ListenHTTP("127.0.0.1:0")
	if err != nil {
		return err
	}
	rcl, err := shard.Open(engine.DualAddress, 1, 0)
	if err != nil {
		return err
	}
	replica := server.NewCluster(rcl, server.Options{ReadOnly: true})
	defer replica.Abort()
	fol := cluster.NewFollower(replica, cluster.FollowerOptions{PrimaryHTTP: haddr.String(), Interval: time.Millisecond})
	start := time.Now()
	fol.Start()
	defer fol.Stop()
	for {
		if _, _, caught := fol.Status(); caught {
			break
		}
		if time.Since(start) > 30*time.Second {
			return fmt.Errorf("follower did not catch up in 30s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	end := time.Now()
	tr.span("cluster.follower_catchup", "", 0, start, end)
	recs := store.CounterSnapshot()[durable.CtrWalAppends]
	res.metrics["cluster.follower_apply_recs_per_s"] = float64(recs) / end.Sub(start).Seconds()
	res.attempted++
	if fmt.Sprint(replica.Checksums().Shards) != fmt.Sprint(primary.Checksums().Shards) {
		res.failed++
		fmt.Println("# durable_write: follower state differs from the primary's after catch-up")
	}
	return nil
}

// simRung replays each captured access trace the way the server's timing
// path does — two fresh simulators, the dual replay and the row-only one —
// to price sim.New and the replays separately.
func simRung(tr *tracer, captured [][]trace.Stream, m map[string]float64) error {
	var (
		newNs, replayNs []int64
		before, after   runtime.MemStats
	)
	runtime.ReadMemStats(&before)
	for i, streams := range captured {
		t0 := time.Now()
		dual, err := sim.New(config.RCNVM())
		if err != nil {
			return err
		}
		row, err := sim.New(config.RCNVM())
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := dual.Run(streams); err != nil {
			return err
		}
		if _, err := row.Run([]trace.Stream{engine.RowOnlyStream(streams[0])}); err != nil {
			return err
		}
		t2 := time.Now()
		tr.span("sim.new", "server", i, t0, t1)
		tr.span("sim.replay", "server", i, t1, t2)
		newNs = append(newNs, t1.Sub(t0).Nanoseconds()/2)
		replayNs = append(replayNs, t2.Sub(t1).Nanoseconds())
	}
	runtime.ReadMemStats(&after)
	m["sim.new_ms"] = medianNs(newNs) / 1e6
	m["sim.replay_ms"] = medianNs(replayNs) / 1e6
	m["sim.alloc_mb_per_stmt"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / float64(len(captured))
	return nil
}
