package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"rcnvm/internal/durable"
	"rcnvm/internal/engine"
	"rcnvm/internal/server"
	"rcnvm/internal/shard"
	"rcnvm/internal/sql"
)

// sessions is the closed-loop client count of every serving workload: each
// session sends its next statement only after the previous reply arrived.
// The sandbox has two cores, so two sessions keep both busy without
// queueing in the server's pool.
const sessions = 2

// Seeded table contents, the basis of the closed-form oracle:
// row id holds grp = id mod groups and val = valPerID*id.
const (
	groups   = 8
	valPerID = 3
)

// serving is one of the four workloads that drive the SQL service.
type serving struct {
	name  string
	table string // the table point and scan statements address
	rows  int    // its size; a multiple of groups*sessions
	block int    // statements per session per timed block (fixed work)
	// durable serves from a WAL flushed by policy fsync and adds the
	// append-only journal table; timed sets timing:true on every statement.
	durable, timed bool
	fsync          durable.SyncPolicy
	// next generates the session's n-th statement.
	next func(g *session, n int) stmt
}

var servingWorkloads = []*serving{
	// 64 rows: the engine does almost nothing, so wire + admission + plan
	// cache + lock round are the statement.
	{name: "oltp_point", table: "t", rows: 64, block: 10000, next: func(g *session, n int) stmt {
		if n%4 == 3 {
			return g.update("t")
		}
		return g.point("t")
	}},
	// 16384 rows, read-only: column scans are the statement.
	{name: "olap_scan", table: "t", rows: 16384, block: 40, next: func(g *session, n int) stmt {
		switch n % 3 {
		case 0:
			return g.sumCount("t")
		case 1:
			return g.avgAbove("t")
		}
		return g.groupBy("t")
	}},
	// Inserts go to a table no statement scans, so the cost of a statement
	// does not grow with how long the benchmark has run. The WAL is flushed
	// every 5 ms in the background, not before every acknowledgement: with
	// fsync=always a statement is one fsync of the shared disk, whose latency
	// swings by half within a minute, and ten runs of one commit then spread
	// up to 33% — nothing a change to the code could be told apart from. The
	// traced run measures the fsync=always loop and reports it per layer.
	{name: "durable_write", table: "acct", rows: 64, block: 4000, durable: true, fsync: durable.SyncInterval, next: func(g *session, n int) stmt {
		switch n % 4 {
		case 0:
			return g.insertJournal()
		case 3:
			return g.point("acct")
		}
		return g.update("acct")
	}},
	{name: "timed_query", table: "t", rows: 4096, block: 16, timed: true, next: func(g *session, n int) stmt {
		if n%2 == 0 {
			return g.point("t")
		}
		return g.sumCount("t")
	}},
}

// stmt is one generated statement with the answer the oracle expects and
// the same work expressed as direct engine.Table calls (the bottom rung of
// the traced run).
type stmt struct {
	sql  string
	want answer
	eng  func(db *engine.DB) error
}

// answer is what a correct reply looks like. rows == nil means a mutation
// that must report affected rows.
type answer struct {
	affected int
	rows     [][]uint64
	avg      float64 // AVG statements: Floats[0]
	scan     bool    // aggregates over a column: row-only replay cannot beat dual
}

// matches reports whether r is the expected, error-free reply. Timed
// replies must additionally carry a plausible attribution.
func (a *answer) matches(r *server.Response, timed bool) bool {
	if r == nil || r.Error != nil {
		return false
	}
	if a.rows == nil {
		return r.Affected == a.affected
	}
	if len(r.Rows) != len(a.rows) {
		return false
	}
	for i := range a.rows {
		if !slices.Equal(r.Rows[i], a.rows[i]) {
			return false
		}
	}
	if a.avg != 0 && (len(r.Floats) == 0 || math.Abs(r.Floats[0]-a.avg) > 1e-9*a.avg) {
		return false
	}
	if timed {
		t := r.Timing
		if t == nil || t.MemOps <= 0 || t.DualPs <= 0 || (a.scan && t.RowPs < t.DualPs) {
			return false
		}
	}
	return true
}

// session generates one client's statements. It owns a disjoint id range,
// so its shadow map predicts every point read exactly whatever the other
// session does.
type session struct {
	rng    *rand.Rand
	rows   int
	own    []uint64          // ids this session reads and updates
	shadow map[uint64]uint64 // id -> val, for own ids
	n      int               // statements generated so far
	writes int               // mutations among them: one WAL record each
	// journal rows this session inserted, and the sum of their vals
	journalID, journalRows, journalSum uint64
}

func newSession(w *serving, seed int64, c int) *session {
	g := &session{
		rng:       rand.New(rand.NewSource(seed)),
		rows:      w.rows,
		shadow:    make(map[uint64]uint64),
		journalID: uint64(c) << 32,
	}
	per := w.rows / sessions
	for id := uint64(c * per); id < uint64((c+1)*per); id++ {
		g.own = append(g.own, id)
		g.shadow[id] = valPerID * id
	}
	return g
}

// block generates the session's next n statements.
func (g *session) block(w *serving, n int) []stmt {
	out := make([]stmt, n)
	for i := range out {
		out[i] = w.next(g, g.n)
		g.n++
	}
	return out
}

func (g *session) ownID() uint64 { return g.own[g.rng.Intn(len(g.own))] }

func idEquals(id uint64) func([]uint64) bool {
	return func(v []uint64) bool { return v[0] == id }
}

// withTable adapts a table-level closure to the engine rung's signature.
func withTable(table string, f func(t *engine.Table) error) func(*engine.DB) error {
	return func(db *engine.DB) error {
		t, ok := db.Table(table)
		if !ok {
			return fmt.Errorf("engine rung: no table %q", table)
		}
		return f(t)
	}
}

func (g *session) point(table string) stmt {
	id := g.ownID()
	return stmt{
		sql:  fmt.Sprintf("SELECT val FROM %s WHERE id = %d", table, id),
		want: answer{rows: [][]uint64{{g.shadow[id]}}},
		eng: withTable(table, func(t *engine.Table) error {
			rows, err := t.ScanWhere("id", idEquals(id))
			if err != nil {
				return err
			}
			_, err = t.Project(rows, []string{"val"})
			return err
		}),
	}
}

func (g *session) update(table string) stmt {
	id, val := g.ownID(), uint64(g.rng.Intn(1<<20))
	g.shadow[id] = val
	g.writes++
	return stmt{
		sql:  fmt.Sprintf("UPDATE %s SET val = %d WHERE id = %d", table, val, id),
		want: answer{affected: 1},
		eng: withTable(table, func(t *engine.Table) error {
			rows, err := t.ScanWhere("id", idEquals(id))
			if err != nil {
				return err
			}
			return t.Update(rows, "val", val)
		}),
	}
}

func (g *session) insertJournal() stmt {
	id, val := g.journalID, uint64(g.rng.Intn(1000)+1)
	g.journalID++
	g.writes++
	g.journalRows++
	g.journalSum += val
	return stmt{
		sql:  fmt.Sprintf("INSERT INTO journal VALUES (%d, %d, %d)", id, id%groups, val),
		want: answer{affected: 1},
		eng: withTable("journal", func(t *engine.Table) error {
			_, err := t.Append(id, id%groups, val)
			return err
		}),
	}
}

// groupSum is SUM(val) over the seeded rows of one group: ids grp,
// grp+groups, ... below rows.
func groupSum(rows int, grp uint64) (sum, count uint64) {
	count = uint64(rows / groups)
	return valPerID * (count*grp + groups*count*(count-1)/2), count
}

func (g *session) sumCount(table string) stmt {
	grp := uint64(g.rng.Intn(groups))
	sum, count := groupSum(g.rows, grp)
	return stmt{
		sql:  fmt.Sprintf("SELECT SUM(val), COUNT(*) FROM %s WHERE grp = %d", table, grp),
		want: answer{rows: [][]uint64{{sum, count}}, scan: true},
		eng: withTable(table, func(t *engine.Table) error {
			rows, err := t.ScanWhere("grp", idEquals(grp))
			if err != nil {
				return err
			}
			_, err = t.SumField("val", rows)
			return err
		}),
	}
}

func (g *session) avgAbove(table string) stmt {
	// ids k+1 .. rows-1 qualify; k stays below rows-1 so at least one does.
	k := uint64(g.rng.Intn(g.rows - 1))
	n := uint64(g.rows-1) - k
	sum := valPerID * (k + uint64(g.rows)) * n / 2
	avg := float64(sum) / float64(n)
	limit := valPerID * k
	return stmt{
		sql:  fmt.Sprintf("SELECT AVG(val) FROM %s WHERE val > %d", table, limit),
		want: answer{rows: [][]uint64{{uint64(avg)}}, avg: avg, scan: true},
		eng: withTable(table, func(t *engine.Table) error {
			rows, err := t.ScanWhere("val", func(v []uint64) bool { return v[0] > limit })
			if err != nil {
				return err
			}
			_, err = t.AvgField("val", rows)
			return err
		}),
	}
}

func (g *session) groupBy(table string) stmt {
	want := make([][]uint64, groups)
	for grp := range want {
		sum, _ := groupSum(g.rows, uint64(grp))
		want[grp] = []uint64{uint64(grp), sum}
	}
	return stmt{
		sql:  fmt.Sprintf("SELECT grp, SUM(val) FROM %s GROUP BY grp", table),
		want: answer{rows: want, scan: true},
		eng: withTable(table, func(t *engine.Table) error {
			_, err := t.GroupSum("grp", "val", t.LiveRows())
			return err
		}),
	}
}

// openCluster builds a fresh cluster holding the workload's seeded table
// (and the empty journal for durable workloads). dir != "" attaches a WAL
// before any table exists, so the load is logged too.
func (w *serving) openCluster(shards int, dir string) (*shard.Cluster, *durable.Store, error) {
	cl, err := shard.Open(engine.DualAddress, shards, 0)
	if err != nil {
		return nil, nil, err
	}
	var store *durable.Store
	if dir != "" {
		if store, err = durable.Open(dir, engine.DualAddress, shards, durable.Options{Fsync: w.fsync}); err != nil {
			return nil, nil, err
		}
		if _, err := store.Recover(cl); err != nil {
			store.Close()
			return nil, nil, err
		}
	}
	if err := w.load(cl); err != nil {
		if store != nil {
			store.Close()
		}
		return nil, nil, err
	}
	return cl, store, nil
}

func (w *serving) load(cl *shard.Cluster) error {
	ddl := []string{fmt.Sprintf("CREATE TABLE %s (id, grp, val) CAPACITY %d", w.table, w.rows)}
	if w.durable {
		ddl = append(ddl, "CREATE TABLE journal (id, grp, val) CAPACITY 1048576")
	}
	for _, q := range ddl {
		if _, err := sql.ExecSharded(cl, q); err != nil {
			return err
		}
	}
	const chunk = 256 // rows per INSERT statement
	var b strings.Builder
	for id := 0; id < w.rows; id++ {
		if id%chunk == 0 {
			fmt.Fprintf(&b, "INSERT INTO %s VALUES ", w.table)
		} else {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, %d)", id, id%groups, valPerID*id)
		if id%chunk == chunk-1 || id == w.rows-1 {
			if _, err := sql.ExecSharded(cl, b.String()); err != nil {
				return err
			}
			b.Reset()
		}
	}
	return nil
}

// env is one served instance with its client sessions connected.
type env struct {
	cl    *shard.Cluster
	store *durable.Store
	dir   string
	srv   *server.Server
	addr  string
	conns []*server.Client
	// loaded is the WAL's counters once the tables were loaded.
	loaded map[string]int64
}

// setUp does everything a deployment does before the first statement:
// open the cluster (and WAL), load the table, listen, connect the sessions.
func (w *serving) setUp() (*env, error) {
	e := &env{}
	if w.durable {
		dir, err := os.MkdirTemp(outDir(), "wal-")
		if err != nil {
			return nil, err
		}
		e.dir = dir
	}
	var err error
	if e.cl, e.store, err = w.openCluster(1, e.dir); err != nil {
		e.tearDown()
		return nil, err
	}
	if e.store != nil {
		e.loaded = e.store.CounterSnapshot()
	}
	e.srv = server.NewCluster(e.cl, server.Options{Durable: e.store})
	a, err := e.srv.ListenTCP("127.0.0.1:0")
	if err != nil {
		e.tearDown()
		return nil, err
	}
	e.addr = a.String()
	for c := 0; c < sessions; c++ {
		conn, err := server.Dial(e.addr)
		if err != nil {
			e.tearDown()
			return nil, err
		}
		e.conns = append(e.conns, conn)
	}
	return e, nil
}

// tearDown stops everything setUp started and removes the WAL directory.
// It kills instead of draining: a drain would checkpoint, and nothing here
// is read again.
func (e *env) tearDown() {
	for _, c := range e.conns {
		c.Close()
	}
	if e.srv != nil {
		e.srv.Abort()
	}
	if e.store != nil {
		e.store.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// loopStats accumulates what the closed loop measured over its blocks.
type loopStats struct {
	setups            []float64 // set-up time of each instance, seconds
	rates             []float64 // correct statements per second of each block
	p50s              []float64 // median client-observed latency of each block, us
	samples           []int64   // client-observed latency of every request, ns
	attempted, failed int
	wall              time.Duration // timed wall over all blocks
	mallocs, allocB   uint64        // heap objects and bytes allocated during timed blocks
	gcPauseNs         uint64
	// server, plan-cache and WAL counters, summed over the instances
	counters map[string]int64
	// durable instances: recovery and checkpoint after the kill
	recoverMs, recoverRate, checkpointMs []float64
}

// loop runs the closed loop until at least seconds of timed wall have
// accumulated (always one block). Every block of fixed work runs on a
// freshly set-up instance with fresh sessions: on this host an instance's
// memory placement alone makes it up to 1.5x faster or slower for its
// whole life, so only figures taken over many instances repeat from run to
// run. Statements are generated before the block, outside the timing.
// With a tracer, each request records one span.
func (w *serving) loop(seeds *rand.Rand, seconds float64, tr *tracer, ls *loopStats) error {
	if ls.counters == nil {
		ls.counters = map[string]int64{}
	}
	start := ls.wall
	for (ls.wall-start).Seconds() < seconds || ls.wall == start {
		t0 := time.Now()
		e, err := w.setUp()
		if err != nil {
			return err
		}
		ls.setups = append(ls.setups, time.Since(t0).Seconds())
		gens := make([]*session, sessions)
		for c := range gens {
			gens[c] = newSession(w, seeds.Int63(), c)
		}
		w.timeBlock(e, gens, tr, ls)
		e.addCounters(ls.counters)
		if w.durable {
			err = w.crashAndRecover(e, gens, ls)
		}
		e.tearDown()
		if err != nil {
			return err
		}
	}
	return nil
}

// timeBlock times one block: each session sends its statements one after the
// other, waiting for every reply.
func (w *serving) timeBlock(e *env, gens []*session, tr *tracer, ls *loopStats) {
	lists := make([][]stmt, sessions)
	lat := make([][]int64, sessions)
	bad := make([]int, sessions)
	for c := range lists {
		lists[c] = gens[c].block(w, w.block)
		lat[c] = make([]int64, 0, w.block)
	}
	base := ls.attempted
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < sessions; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range lists[c] {
				s := &lists[c][i]
				start := time.Now()
				resp, _ := e.conns[c].Do(server.Request{Query: s.sql, Timing: w.timed})
				end := time.Now()
				lat[c] = append(lat[c], end.Sub(start).Nanoseconds())
				tr.span("client.request", "", base+c*w.block+i, start, end)
				if !s.want.matches(resp, w.timed) {
					bad[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	var block []int64
	failed := 0
	for c := range lat {
		block = append(block, lat[c]...)
		failed += bad[c]
	}
	n := sessions * w.block
	ls.samples = append(ls.samples, block...)
	ls.attempted += n
	ls.failed += failed
	ls.wall += wall
	ls.rates = append(ls.rates, float64(n-failed)/wall.Seconds())
	ls.p50s = append(ls.p50s, medianNs(block)/1e3)
	ls.mallocs += after.Mallocs - before.Mallocs
	ls.allocB += after.TotalAlloc - before.TotalAlloc
	ls.gcPauseNs += after.PauseTotalNs - before.PauseTotalNs
}

// addCounters adds the instance's server, plan-cache and WAL counters.
func (e *env) addCounters(sum map[string]int64) {
	for name, v := range e.srv.Stats().Counters {
		sum[name] += v
	}
	// The server merges the store's counters into its own; loading the
	// tables is set-up, not the workload.
	for name, v := range e.loaded {
		sum[name] -= v
	}
}

// run measures one serving workload. It returns the metrics of the
// requested mode and the attempted and failed operation counts.
func (w *serving) run(o options) (result, error) {
	if o.quick {
		q := *w
		q.block = max(w.block/20, 4)
		w = &q
	}
	fmt.Printf("# %s: closed loop, %d sessions over loopback TCP, client and server share this process; blocks of %d statements per session, each on a fresh instance\n",
		w.name, sessions, w.block)
	if w.durable {
		fmt.Printf("# %s: WAL fsync=%s; every instance is killed in-process (the OS cache survives) and recovered; fsync latency is this sandbox's disk\n", w.name, w.fsync)
	}
	res := result{metrics: map[string]float64{}}
	seeds := rand.New(rand.NewSource(o.seed))
	var ls loopStats
	if !o.trace {
		if err := w.loop(seeds, o.seconds, nil, &ls); err != nil {
			return result{}, err
		}
		fmt.Printf("# %s: statements per second of each block: %.0f\n", w.name, ls.rates)
		fmt.Printf("# %s: median latency of each block, us: %.1f\n", w.name, ls.p50s)
		res.metrics["setup_s"] = median(ls.setups)
		res.metrics["stmts_per_s"] = quantile(ls.rates, rateQuantile)
		res.metrics["p50_us"] = quantile(ls.p50s, latencyQuantile)
		res.attempted, res.failed = ls.attempted, ls.failed
		return res, nil
	}

	// The traced run splits its time: untraced loop, traced loop, rungs.
	if err := w.loop(seeds, o.seconds/4, nil, &ls); err != nil {
		return result{}, err
	}
	tr := newTracer()
	var traced loopStats
	if err := w.loop(seeds, o.seconds/4, tr, &traced); err != nil {
		return result{}, err
	}
	untraced := quantile(ls.rates, rateQuantile)
	res.metrics["trace_overhead_pct"] = 100 * (untraced - quantile(traced.rates, rateQuantile)) / untraced
	res.attempted, res.failed = ls.attempted+traced.attempted, ls.failed+traced.failed
	w.loopLayerMetrics(&ls, res.metrics)
	if w.durable {
		// The same closed loop with every acknowledgement behind an fsync:
		// what the issue wanted end to end and this host's disk cannot hold
		// steady, so it is reported per layer.
		always := *w
		always.fsync, always.block = durable.SyncAlways, w.block/5
		var sync loopStats
		if err := always.loop(seeds, o.seconds/4, nil, &sync); err != nil {
			return result{}, err
		}
		res.attempted, res.failed = res.attempted+sync.attempted, res.failed+sync.failed
		always.syncLayerMetrics(&sync, res.metrics)
	}
	if err := w.rungs(o, tr, &res); err != nil {
		return result{}, err
	}
	if err := tr.write(w.name); err != nil {
		return result{}, err
	}
	res.metrics["host.rss_peak_mb"] = rssPeakMB()
	return res, nil
}

// loopLayerMetrics reports what the closed loop itself shows of single
// layers: the client's tail, the server's admission counters, the plan
// cache, the WAL's group commit and recovery, and the process's
// allocation rate.
func (w *serving) loopLayerMetrics(ls *loopStats, m map[string]float64) {
	pct, p := tail(ls.samples)
	fmt.Printf("# %s: client.p99_us is percentile %.2f of %d samples\n", w.name, pct, len(ls.samples))
	m["client.p99_us"] = float64(p) / 1e3
	m["client.samples"] = float64(len(ls.samples))
	ctr := ls.counters
	m["server.rejected"] = float64(ctr[server.Rejected])
	m["server.queries"] = float64(ctr[server.Queries])
	if lookups := ctr[server.PlanCacheHits] + ctr[server.PlanCacheMisses]; lookups > 0 {
		m["sql.plancache_hit_ratio"] = float64(ctr[server.PlanCacheHits]) / float64(lookups)
	}
	if w.durable {
		appends := float64(ctr[durable.CtrWalAppends])
		m["durable.wal_appends"] = appends
		m["durable.wal_bytes_per_mutation"] = float64(ctr[durable.CtrWalBytes]) / appends
		m["durable.recover_ms"] = median(ls.recoverMs)
		m["durable.recover_recs_per_s"] = median(ls.recoverRate)
		m["durable.checkpoint_ms"] = median(ls.checkpointMs)
	}
	n := float64(ls.attempted)
	m["host.allocs_per_stmt"] = float64(ls.mallocs) / n
	m["host.alloc_kb_per_stmt"] = float64(ls.allocB) / 1024 / n
	m["host.gc_pause_ms"] = float64(ls.gcPauseNs) / 1e6
}

// syncLayerMetrics reports the fsync=always loop: its rate and latency by
// the end-to-end metrics' definitions, and how many appends share an fsync.
func (w *serving) syncLayerMetrics(ls *loopStats, m map[string]float64) {
	m["durable.sync_stmts_per_s"] = quantile(ls.rates, rateQuantile)
	m["durable.sync_p50_us"] = quantile(ls.p50s, latencyQuantile)
	m["durable.fsyncs_per_append"] = float64(ls.counters[durable.CtrWalFsyncs]) / float64(ls.counters[durable.CtrWalAppends])
}

// crashAndRecover is the durability oracle, applied to every durable
// instance: the WAL must hold exactly one record per acknowledged
// mutation; then the server is killed without a drain, a fresh cluster
// recovers from the same directory, and every acknowledged write must be
// readable — the journal's COUNT and SUM and the accounts' SUM equal the
// sessions' shadows. The kill is in-process, so the operating system's
// cache survives it and the check cannot tell a flushed record from a
// written one.
func (w *serving) crashAndRecover(e *env, gens []*session, ls *loopStats) error {
	var writes int
	var rows, jsum, asum uint64
	for _, g := range gens {
		writes += g.writes
		rows += g.journalRows
		jsum += g.journalSum
		for _, v := range g.shadow { // every acct id is in exactly one shadow
			asum += v
		}
	}
	ls.attempted++
	if logged := e.store.CounterSnapshot()[durable.CtrWalAppends] - e.loaded[durable.CtrWalAppends]; logged != int64(writes) {
		ls.failed++
		fmt.Printf("# %s: %d mutations acknowledged, %d WAL records appended\n", w.name, writes, logged)
	}

	for _, c := range e.conns {
		c.Close()
	}
	e.srv.Abort()
	if err := e.store.Close(); err != nil {
		return err
	}
	cl, err := shard.Open(engine.DualAddress, 1, 0)
	if err != nil {
		return err
	}
	store, err := durable.Open(e.dir, engine.DualAddress, 1, durable.Options{Fsync: w.fsync})
	if err != nil {
		return err
	}
	defer store.Close()
	rs, err := store.Recover(cl)
	if err != nil {
		return err
	}
	checks := []stmt{
		{sql: "SELECT COUNT(*), SUM(val) FROM journal", want: answer{rows: [][]uint64{{rows, jsum}}}},
		{sql: "SELECT SUM(val) FROM acct", want: answer{rows: [][]uint64{{asum}}}},
	}
	for i := range checks {
		ls.attempted++
		if !checks[i].want.matches(reply(sql.ExecSharded(cl, checks[i].sql)), false) {
			ls.failed++
			fmt.Printf("# %s: after recovery %q answers wrong\n", w.name, checks[i].sql)
		}
	}
	ls.recoverMs = append(ls.recoverMs, float64(rs.Elapsed.Nanoseconds())/1e6)
	ls.recoverRate = append(ls.recoverRate, float64(rs.Records)/rs.Elapsed.Seconds())
	t0 := time.Now()
	if err := store.Checkpoint(); err != nil {
		return err
	}
	ls.checkpointMs = append(ls.checkpointMs, float64(time.Since(t0).Nanoseconds())/1e6)
	return nil
}
