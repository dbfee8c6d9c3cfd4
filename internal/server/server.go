package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rcnvm/internal/config"
	"rcnvm/internal/durable"
	"rcnvm/internal/fault"
	"rcnvm/internal/obs"
	"rcnvm/internal/shard"
	"rcnvm/internal/sim"
	"rcnvm/internal/sql"
)

// MaxBatchStatements caps one batch request. A batch holds every shard's
// statement lock for its whole run, so an unbounded batch would starve
// concurrent sessions; past the cap the request is rejected bad_request
// and the client should split it.
const MaxBatchStatements = 1024

// Options configures a Server. The zero value is usable: GOMAXPROCS
// workers with a 4x queue.
type Options struct {
	// Workers is the number of run slots: statements executing at once
	// (default runtime.GOMAXPROCS(0)).
	Workers int
	// Queue is how many admitted statements may wait for a run slot
	// (default 4*Workers); past Workers+Queue, requests get CodeOverloaded.
	Queue int
	// QueryTimeout caps every statement's execution time (0 = no limit).
	// A request's TimeoutMs can only tighten it. Past the deadline the
	// client gets CodeTimeout while the statement runs to completion on
	// its own goroutine (the engine cannot abandon a scan mid-flight) —
	// the shutdown drain still covers it.
	QueryTimeout time.Duration
	// TraceEvery server-side samples every Nth statement for span tracing
	// in addition to explicit Trace requests (0 = explicit requests only).
	// Sampled traces go to TraceSink; only explicit requests get the trace
	// back on their response.
	TraceEvery int
	// TraceSink, when non-nil, receives every recorded trace as NDJSON
	// Chrome trace events, one event per line. Writes are serialized.
	TraceSink io.Writer
	// Logger, when non-nil, receives structured server logs (one line per
	// session close with duration, statement and error counts).
	Logger *slog.Logger
	// Durable, when non-nil, is the durability subsystem already recovered
	// onto the served cluster. The server merges its counters into
	// /metrics, serves POST /checkpoint, checkpoints once after a
	// successful shutdown drain so a clean restart replays no WAL, and
	// serves the /wal/* log-shipping endpoints replicas stream from. Nil
	// (the default) serves fully volatile, exactly as before.
	Durable *durable.Store
	// ReadOnly marks a read replica: mutating statements (and batches
	// containing one) are rejected with CodeReadOnly instead of executing.
	// The replica's state advances only through shipped WAL records, never
	// through client writes, so it cannot diverge from the primary.
	ReadOnly bool
}

// Server serves SQL over a shard.Cluster — one engine.DB per shard, each
// with its own simulated memory channel. A 1-shard cluster behaves exactly
// like the unsharded server.
type Server struct {
	// cluster is swappable at runtime: a replica re-syncing after an epoch
	// rotation builds a fresh cluster from the primary's checkpoint and
	// swaps it in (SwapCluster) while the server is not-ready. Straggling
	// statements finish against the cluster they loaded; new ones see the
	// replacement.
	cluster  atomic.Pointer[shard.Cluster]
	met      *Metrics
	opts     Options
	admitted atomic.Int64  // admitted, unfinished statements: Workers+Queue at most
	running  chan struct{} // one token per executing statement: the run slots
	// notReady holds the reason the server is not ready to serve queries
	// (nil = ready). /readyz mirrors it and doHeld rejects with the
	// retryable CodeUnavailable while set, so routers and clients never see
	// partial state during WAL recovery, replica catch-up, or drain.
	notReady atomic.Pointer[string]
	// plans caches parsed statement templates by shape.
	plans *sql.PlanCache

	// front is the wire front end (listeners, sessions, POST /query,
	// teardown); the server is its responder, through doHeld.
	front *FrontEnd

	inflight sync.WaitGroup // admitted, not-yet-answered queries
	answered func()         // inflight.Done bound once: an admitted request's release

	// tels holds one per-bank telemetry per shard, added to by every
	// timed statement's RC-NVM replay on that shard; /metrics renders
	// each and their sum.
	tels []*obs.Telemetry
	// replays owns the simulated systems timed statements replay on, built
	// by the first ones (never at start-up: most servers time nothing).
	replays  *sim.Replayer
	traceSeq atomic.Uint64 // statements considered for TraceEvery sampling
	traceMu  sync.Mutex    // serializes TraceSink writes

	// repl holds the replication-lag provider a Follower registers on a
	// read replica (nil elsewhere); /metrics consults it.
	repl atomic.Pointer[func() ReplicationStatus]
}

// NewCluster creates a server over a shard cluster: statements route and
// fan out through the scatter-gather executor, and timing replays carry
// per-shard attribution.
func NewCluster(c *shard.Cluster, opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Queue <= 0 {
		opts.Queue = 4 * opts.Workers
	}
	banks := config.RCNVM().Device.Geom.TotalBanks()
	s := &Server{
		met:     NewMetrics(),
		running: make(chan struct{}, opts.Workers),
		opts:    opts,
		tels:    make([]*obs.Telemetry, c.N()),
		replays: sim.NewReplayer(opts.Workers),
		plans:   sql.NewPlanCache(0),
	}
	for i := range s.tels {
		s.tels[i] = obs.NewTelemetry(banks)
	}
	s.answered = s.inflight.Done
	s.cluster.Store(c)
	// Every session is answered by the server itself, so there is nothing
	// per-session to open or close.
	respond := Responder(s.doHeld)
	s.front = &FrontEnd{
		Open: func() (Responder, func()) { return respond, nil },
		Routes: map[string]http.HandlerFunc{
			"/metrics":        s.handleMetrics,
			"/checkpoint":     s.handleCheckpoint,
			"/checksum":       s.whenReady(s.handleChecksum),
			"/wal/state":      s.walRoute(s.handleWALState),
			"/wal/read":       s.walRoute(s.handleWALRead),
			"/wal/checkpoint": s.walRoute(s.handleWALCheckpoint),
			"/wal/registry":   s.walRoute(s.handleWALRegistry),
			"/readyz":         s.whenReady(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok\n") }),
		},
		Count:  s.met.Counters.Add,
		Logger: opts.Logger,
	}
	return s
}

// Telemetry returns the per-bank telemetry of timed queries' RC-NVM
// replays summed over shards, as of the call.
func (s *Server) Telemetry() *obs.Telemetry { return obs.Sum(s.tels) }

// Metrics exposes the server's counters and latency histogram.
func (s *Server) Metrics() *Metrics { return s.met }

// ListenTCP starts the newline-delimited-JSON front end on addr
// (e.g. "127.0.0.1:0") and returns the bound address.
func (s *Server) ListenTCP(addr string) (net.Addr, error) { return s.front.ListenTCP(addr) }

// ListenHTTP starts the HTTP front end on addr and returns the bound
// address. Routes: POST /query (Request JSON in, Response JSON out),
// GET /metrics (Prometheus text format), GET /healthz, GET /readyz,
// POST /checkpoint, GET /checksum and the /wal/* log-shipping endpoints.
func (s *Server) ListenHTTP(addr string) (net.Addr, error) { return s.front.ListenHTTP(addr) }

// handleCheckpoint serves POST /checkpoint: snapshot every shard and
// truncate the WAL. Quiesces the cluster for the duration (statements
// queue behind the shard locks). 404 on a volatile server.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.opts.Durable == nil {
		http.Error(w, "server is volatile (no -data-dir)", http.StatusNotFound)
		return
	}
	if err := s.opts.Durable.Checkpoint(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.front.writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"epoch":  s.opts.Durable.Epoch(),
	})
}

// Stats returns the merged counters /metrics renders and the admission
// occupancy, as of the call. The latency distribution is Metrics().Latency.
func (s *Server) Stats() StatsSnapshot {
	return StatsSnapshot{Counters: s.counters(), Pool: s.pool()}
}

// counters is the one merged counter view behind Stats and /metrics: the
// server's own store, every Family series, with the values other packages
// keep read through — fault.* when injection is on, wal.* on a durable
// server, plancache.* and the replay builds.
func (s *Server) counters() map[string]int64 {
	counters := s.met.Counters.Snapshot()
	if c, ok := s.faultCounts(); ok {
		counters[FaultTransientBits] = c.TransientBits
		counters[FaultStuckBits] = c.StuckBits
		counters[FaultCorrected] = c.Corrected
		counters[FaultUncorrectable] = c.Uncorrectable
		counters[FaultMiscorrected] = c.Miscorrected
		counters[FaultWrites] = c.Writes
	}
	if s.opts.Durable != nil {
		maps.Copy(counters, s.opts.Durable.CounterSnapshot())
	}
	h, m, e := s.plans.Counters()
	counters[PlanCacheHits] = h
	counters[PlanCacheMisses] = m
	counters[PlanCacheEvictions] = e
	counters[ReplaySimsBuilt] = s.replays.Built()
	return counters
}

// faultCounts sums the fault injectors' accounting across every shard;
// ok is false when no shard has fault injection enabled.
func (s *Server) faultCounts() (sum fault.Counts, ok bool) {
	c := s.Cluster()
	for i := 0; i < c.N(); i++ {
		inj := c.Shard(i).Faults()
		if inj == nil {
			continue
		}
		ok = true
		c := inj.Counts()
		sum.TransientBits += c.TransientBits
		sum.StuckBits += c.StuckBits
		sum.Corrected += c.Corrected
		sum.Uncorrectable += c.Uncorrectable
		sum.Miscorrected += c.Miscorrected
		sum.Writes += c.Writes
	}
	return sum, ok
}

// Do admits one request and answers it; with no deadline the statement
// runs on the caller's goroutine. It is the transport-independent core:
// both front ends and in-process callers (benchmarks) go through it.
func (s *Server) Do(req *Request) *Response {
	resp, release := s.doHeld(req)
	if release != nil {
		release()
	}
	return resp
}

// doHeld is Do, except that for admitted requests the in-flight count
// stays held until the caller invokes release — the TCP session uses this
// to extend the shutdown drain across response delivery. release is nil
// when the request was rejected without admission.
func (s *Server) doHeld(req *Request) (resp *Response, release func()) {
	if msg := validateRequest(req); msg != "" {
		s.met.Counters.Inc(BadRequests)
		return errResponse(req.ID, CodeBadRequest, msg), nil
	}
	// Count the request as in-flight while holding the front end's lock so
	// Shutdown either sees it (and drains it) or has already flipped
	// shutting (and we reject).
	s.front.mu.Lock()
	if s.front.shutting {
		s.front.mu.Unlock()
		s.met.Counters.Inc(RejectedDrain)
		return errResponse(req.ID, CodeShutdown, ErrShuttingDown.Error()), nil
	}
	// Not-ready rejection also happens before admission: a recovering or
	// catching-up node would serve stale or partial data. Checked after
	// shutting so a draining server keeps its give-up code — not_ready is
	// retryable (the node becomes ready; a router picks another one),
	// shutting_down is not.
	if reason := s.notReady.Load(); reason != nil {
		s.front.mu.Unlock()
		s.met.Counters.Inc(RejectedNotReady)
		return errResponse(req.ID, CodeUnavailable, "not ready: "+*reason), nil
	}
	s.inflight.Add(1)
	s.front.mu.Unlock()

	if s.admitted.Add(1) > int64(s.opts.Workers+s.opts.Queue) {
		s.admitted.Add(-1)
		s.inflight.Done()
		s.met.Counters.Inc(Rejected)
		return errResponse(req.ID, CodeOverloaded, ErrOverloaded.Error()), nil
	}

	timeout := s.opts.QueryTimeout
	if req.TimeoutMs > 0 {
		if t := time.Duration(req.TimeoutMs) * time.Millisecond; timeout == 0 || t < timeout {
			timeout = t
		}
	}
	if timeout <= 0 {
		return s.run(req), s.answered
	}

	// With a deadline the statement runs on its own goroutine, so that
	// this one can answer at the deadline while the engine finishes.
	// Exactly one side wins abandoned's CompareAndSwap and owns the
	// response: the statement delivers to done, or the waiter answers
	// timeout and the statement releases the in-flight count when done.
	done := make(chan *Response, 1)
	var abandoned atomic.Bool
	go func() {
		resp := s.run(req)
		if abandoned.CompareAndSwap(false, true) {
			done <- resp
			return
		}
		s.inflight.Done() // timed-out request: the drain waited for us
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case resp := <-done:
		return resp, s.answered
	case <-timer.C:
		if abandoned.CompareAndSwap(false, true) {
			s.met.Counters.Inc(Timeouts)
			return errResponse(req.ID, CodeTimeout,
				fmt.Sprintf("query exceeded %v deadline", timeout)), nil
		}
		return <-done, s.answered // the statement won the race at the deadline
	}
}

// run executes one admitted request once a run slot is free — the wait
// for one is the queue — and gives back both its run and its admission
// slot before returning, so delivering the response holds neither.
func (s *Server) run(req *Request) *Response {
	s.running <- struct{}{}
	resp := s.execute(req)
	<-s.running
	s.admitted.Add(-1)
	return resp
}

// pool reports admission occupancy for Stats and /metrics. Depth, the
// admitted statements waiting for a run slot, reads two counts one after
// the other, so it is clamped at 0.
func (s *Server) pool() PoolStatus {
	depth := max(0, int(s.admitted.Load())-len(s.running))
	return PoolStatus{Workers: s.opts.Workers, Depth: depth, Capacity: s.opts.Queue}
}

// validateRequest returns the bad_request message for a malformed request,
// or "" when the request is admissible. A batch takes one admission slot,
// one run slot and one in-flight count, like a single statement.
func validateRequest(req *Request) string {
	if len(req.Batch) > 0 {
		switch {
		case req.Query != "":
			return "query and batch are mutually exclusive"
		case req.Timing || req.Trace:
			return "batch requests do not support timing or trace"
		case len(req.Batch) > MaxBatchStatements:
			return fmt.Sprintf("batch of %d statements exceeds the %d-statement cap",
				len(req.Batch), MaxBatchStatements)
		}
		return ""
	}
	if req.Query == "" {
		return "empty query"
	}
	return ""
}

// execute runs one admitted statement holding a run slot. A panic
// anywhere in parse/execute/replay is recovered into a typed
// internal_error — one poisoned statement must not take down its session,
// leak its slots, or take down the server.
func (s *Server) execute(req *Request) (resp *Response) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			s.met.Counters.Inc(Panics)
			s.met.observe(time.Since(start), 0, true)
			resp = errResponse(req.ID, CodeInternal, fmt.Sprintf("internal error: %v", r))
		}
	}()
	if len(req.Batch) > 0 {
		return s.executeBatch(req, start)
	}
	if s.replicaRejects(req.Query) {
		s.met.observe(time.Since(start), 0, true)
		return errResponse(req.ID, CodeReadOnly,
			"read replica: mutations must go to the primary")
	}
	// rec stays nil unless this statement is traced (explicitly or by
	// TraceEvery sampling): the untraced path records nothing.
	var rec *obs.Recorder
	if s.shouldTrace(req) {
		rec = obs.NewRecorder()
		s.met.Counters.Inc(TracedQueries)
	}
	// Spans carry the router-assigned distributed trace id when one was
	// propagated, else the client's request id.
	tid := int64(req.ID)
	if req.TraceID != 0 {
		tid = req.TraceID
	}
	if req.Timing {
		s.met.Counters.Inc(TimedQueries)
	}
	res, streams, err := sql.Execute(s.Cluster(), req.Query,
		sql.ExecOptions{Plans: s.plans, Rec: rec, TID: tid, Trace: req.Timing})
	if err != nil {
		return s.execError(req.ID, start, err)
	}
	resp = resultResponse(req.ID, res)
	if req.Timing {
		// Replay outside any lock: the replay only reads the recorded
		// streams, never the databases.
		if resp.Timing, err = s.replays.Time(streams, s.tels, rec, tid); err != nil {
			return s.execError(req.ID, start, fmt.Errorf("server: %w", err))
		}
	}
	if rec != nil {
		s.emitTrace(req, resp, rec)
	}
	s.met.observe(time.Since(start), len(resp.Rows), false)
	return resp
}

// executeBatch runs one admitted batch holding a run slot: one call into the
// batched executor (one shard-lock round, grouped fan-outs, one
// group-commit wait), then one Response slot per statement. Per-statement
// failures fill their slot's Error; the top-level response never fails
// except on panic. start is the admission timestamp from execute, so the
// latency histogram sees the whole batch as one sample.
func (s *Server) executeBatch(req *Request, start time.Time) *Response {
	if s.replicaRejects(req.Batch...) {
		s.met.observeBatch(time.Since(start), len(req.Batch), len(req.Batch), 0)
		return errResponse(req.ID, CodeReadOnly,
			"read replica: batch contains a mutation; send it to the primary")
	}
	results, errs := sql.ExecBatchSharded(s.Cluster(), s.plans, req.Batch)
	out := make([]*Response, len(results))
	rows, failed := 0, 0
	for i := range results {
		if errs[i] != nil {
			failed++
			out[i] = &Response{Error: s.wireError(errs[i])}
			continue
		}
		out[i] = resultResponse(0, results[i])
		rows += len(results[i].Rows)
	}
	s.met.observeBatch(time.Since(start), len(req.Batch), failed, rows)
	return &Response{ID: req.ID, Results: out}
}

// replicaRejects reports whether this is a read replica and one of srcs
// is a well-formed mutation, which gets the typed CodeReadOnly rejection.
// Unparseable statements fall through to the executor for the ordinary
// sql_error.
func (s *Server) replicaRejects(srcs ...string) bool {
	if !s.opts.ReadOnly {
		return false
	}
	for _, src := range srcs {
		if st, err := sql.Parse(src); err == nil && !sql.ReadOnly(st) {
			return true
		}
	}
	return false
}

// resultResponse is the one sql.Result -> wire Response conversion (batch
// slots carry no id of their own).
func resultResponse(id uint64, res *sql.Result) *Response {
	return &Response{
		ID:       id,
		Columns:  res.Columns,
		Rows:     res.Rows,
		Floats:   res.Floats,
		Affected: res.Affected,
		Message:  res.Message,
	}
}

// shouldTrace decides whether one statement records spans: explicitly via
// the request's Trace flag, or server-side every TraceEvery-th statement.
func (s *Server) shouldTrace(req *Request) bool {
	if req.Trace {
		return true
	}
	if n := s.opts.TraceEvery; n > 0 {
		return s.traceSeq.Add(1)%uint64(n) == 0
	}
	return false
}

// emitTrace delivers a recorded trace: onto the response as a Chrome
// trace-event document when the client asked, and to the server's NDJSON
// sink when one is configured. The spans past the recorder's limit are
// counted in server.trace_spans_dropped.
func (s *Server) emitTrace(req *Request, resp *Response, rec *obs.Recorder) {
	s.met.Counters.Add(TraceSpansDropped, rec.Dropped())
	spans := rec.Spans()
	if len(spans) == 0 {
		return
	}
	if req.Trace {
		if raw, err := obs.ChromeTraceJSON(obs.Events(spans)); err == nil {
			resp.TraceEvents = raw
		}
	}
	if s.opts.TraceSink != nil {
		s.traceMu.Lock()
		obs.WriteNDJSON(s.opts.TraceSink, spans)
		s.traceMu.Unlock()
	}
}

// execError maps a statement failure to its wire code: uncorrectable
// memory errors (from the engine's checked reads or a timing replay over
// faulty memory) become the typed memory_error, everything else sql_error.
func (s *Server) execError(id uint64, start time.Time, err error) *Response {
	s.met.observe(time.Since(start), 0, true)
	return &Response{ID: id, Error: s.wireError(err)}
}

// wireError classifies one statement failure (uncorrectable memory error
// vs. SQL error) and bumps the corresponding counter.
func (s *Server) wireError(err error) *WireError {
	var ue *fault.UncorrectableError
	if errors.As(err, &ue) {
		s.met.Counters.Inc(MemoryErrors)
		return &WireError{Code: CodeMemory, Message: err.Error()}
	}
	return &WireError{Code: CodeSQL, Message: err.Error()}
}

// Shutdown drains the server: admission stops immediately (new requests
// get CodeShutdown), every in-flight query runs to completion and its
// response is delivered, then listeners and connections close. It returns
// ctx.Err() if the context expires before the drain finishes.
func (s *Server) Shutdown(ctx context.Context) error {
	s.SetNotReady("draining") // /readyz flips 503 for the whole drain
	var err error
	s.front.Close(ctx, true, func() { err = s.drain(ctx) })
	return err
}

// drain waits for the in-flight queries (or gives up at ctx's deadline).
func (s *Server) drain(ctx context.Context) error {
	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		// Checkpoint after a clean drain (no statements can be running):
		// the next boot loads the snapshot and replays an empty WAL. A
		// timed-out drain skips this — in-flight statements still hold
		// shard locks, and the WAL already covers everything acknowledged.
		if s.opts.Durable != nil {
			if cerr := s.opts.Durable.Checkpoint(); cerr != nil && s.opts.Logger != nil {
				s.opts.Logger.Warn("shutdown checkpoint failed", "error", cerr)
			}
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
