package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"rcnvm/internal/obs"
	"rcnvm/internal/server"
	"rcnvm/internal/sql"
	"rcnvm/internal/stats"
)

// Family declares the router's route.* series (the counters of its /stats
// payload); the router's counter store is built over it, so each exists,
// at 0, from the first /stats and /metrics and dashboards never see a
// series appear mid-run.
var Family stats.Family

var (
	RouteReads         = Family.Counter("route.reads")          // read-only requests forwarded
	RouteWrites        = Family.Counter("route.writes")         // write-bearing requests forwarded to the primary
	RouteReadFailovers = Family.Counter("route.read_failovers") // reads resent to another backend after a failure
	RouteEjections     = Family.Counter("route.ejections")      // replicas ejected from rotation
	RouteReadmissions  = Family.Counter("route.readmissions")   // replicas re-admitted after recovery
	RoutePrimaryDown   = Family.Counter("route.primary_down")   // writes failed fast: primary unreachable
	RouteUnknownState  = Family.Counter("route.unknown_state")  // writes failed mid-exchange: state unknown
	RouteBadRequests   = Family.Counter("route.bad_requests")   // undecodable protocol messages
)

// RouterOptions configures a routing front end.
type RouterOptions struct {
	// Primary is the write target (and the read fallback of last resort).
	Primary Backend
	// Replicas are the read targets, load-balanced round-robin while
	// healthy.
	Replicas []Backend
	// CheckInterval is the /readyz probe period (default 50ms).
	CheckInterval time.Duration
	// ProbeTimeout bounds one health probe (default 250ms).
	ProbeTimeout time.Duration
	// ReadmitBackoff is how long an ejected replica stays out of rotation
	// before re-admission probes resume (default 250ms).
	ReadmitBackoff time.Duration
	// DialTimeout bounds backend session dials (default 500ms), so a dead
	// primary fails writes fast instead of hanging on connect.
	DialTimeout time.Duration
	// Logger, when non-nil, receives health transitions, forward failures
	// and the front end's session lines (closed, panicked, response
	// undeliverable).
	Logger *slog.Logger
}

// scrapeTimeout bounds the whole federated scrape behind /cluster/metrics
// and /cluster/stats. A backend that cannot answer within it is reported
// down (cluster_node_up 0), never waited on.
const scrapeTimeout = 2 * time.Second

func (o RouterOptions) withDefaults() RouterOptions {
	if o.CheckInterval <= 0 {
		o.CheckInterval = 50 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 250 * time.Millisecond
	}
	if o.ReadmitBackoff <= 0 {
		o.ReadmitBackoff = 250 * time.Millisecond
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 500 * time.Millisecond
	}
	return o
}

// Router is the replicated cluster's front door: it serves through the
// same server.FrontEnd as a single server (NDJSON TCP and HTTP /query),
// classifies every request read-only vs write-bearing, and forwards
// accordingly. Clients (including RetryClient) need no changes — failure
// codes coming back are the same typed, retryable-flagged wire errors a
// single server produces.
type Router struct {
	opts     RouterOptions
	primary  *node
	replicas []*node
	rr       atomic.Uint64 // round-robin cursor over replicas
	check    *checker
	met      *stats.Counters // over Family
	// traceSeq assigns cluster-unique trace ids to traced requests that
	// arrive without one.
	traceSeq atomic.Int64
	// scrape is the HTTP client of the federated /cluster/metrics and
	// /cluster/stats scrapes.
	scrape *http.Client

	// front is the wire front end; each of its sessions is answered by a
	// session.forward.
	front *server.FrontEnd
}

// NewRouter creates a router. Replicas start healthy and eject on their
// first failed probes, so a cold start with slow replicas degrades to
// primary reads instead of erroring.
func NewRouter(opts RouterOptions) *Router {
	opts = opts.withDefaults()
	r := &Router{
		opts:    opts,
		primary: &node{be: opts.Primary, name: "primary", lat: stats.NewHistogram()},
		met:     stats.NewCounters(&Family),
		scrape:  &http.Client{Timeout: scrapeTimeout},
	}
	// The router is ready as soon as it serves: with every backend down it
	// still answers every request with a typed retryable error, which is
	// exactly the contract /readyz vouches for.
	ready := func(w http.ResponseWriter, req *http.Request) { fmt.Fprintln(w, "ok") }
	r.front = &server.FrontEnd{
		Open: func() (server.Responder, func()) {
			ss := r.newSession()
			// Nothing to hold across delivery: the router has no drain.
			respond := func(req *server.Request) (*server.Response, func()) { return ss.forward(req), nil }
			return respond, ss.close
		},
		Routes: map[string]http.HandlerFunc{
			"/stats":           r.handleStats,
			"/metrics":         r.handleMetrics,
			"/cluster/metrics": r.handleClusterMetrics,
			"/cluster/stats":   r.handleClusterStats,
			"/readyz":          ready,
		},
		// Of the protocol events the router publishes the bad requests;
		// the rest reach the operator through Logger.
		Count: func(name string, delta int64) {
			if name == server.BadRequests {
				r.met.Add(RouteBadRequests, delta)
			}
		},
		Logger: opts.Logger,
	}
	r.primary.healthy.Store(true)
	for i, be := range opts.Replicas {
		n := &node{be: be, name: fmt.Sprintf("replica-%d", i), lat: stats.NewHistogram()}
		n.healthy.Store(true)
		r.replicas = append(r.replicas, n)
	}
	r.check = newChecker(r.replicas, opts.CheckInterval, opts.ProbeTimeout,
		opts.ReadmitBackoff, r.onHealthChange)
	r.check.start()
	return r
}

func (r *Router) onHealthChange(n *node, healthy bool) {
	if healthy {
		r.met.Inc(RouteReadmissions)
	} else {
		r.met.Inc(RouteEjections)
		n.ejections.Add(1)
	}
	if r.opts.Logger != nil {
		r.opts.Logger.Info("replica health changed", "backend", n.be.String(), "healthy", healthy)
	}
}

// Healthy reports how many replicas are currently in rotation (tests and
// the smoke script poll it via /stats).
func (r *Router) Healthy() int {
	n := 0
	for _, rep := range r.replicas {
		if rep.healthy.Load() {
			n++
		}
	}
	return n
}

// session is one router-side client session: its own set of backend
// sessions, so per-session response ordering holds end to end and one
// client's broken backend conn never poisons another's. A TCP client
// keeps one for the connection's life; each HTTP request gets a throwaway
// one, because a pooled backend conn shared across concurrent handlers
// would interleave frames.
type session struct {
	r     *Router
	conns map[string]*server.Client // by backend TCP address
}

func (r *Router) newSession() *session {
	return &session{r: r, conns: make(map[string]*server.Client)}
}

func (ss *session) close() {
	for _, c := range ss.conns {
		c.Close()
	}
}

// conn returns the session's connection to one backend, dialing with the
// router's timeout on first use (the dial becomes a trace span when the
// request is traced).
func (ss *session) conn(n *node, ft *fwdTrace) (*server.Client, error) {
	if c, ok := ss.conns[n.be.TCP]; ok {
		return c, nil
	}
	start := time.Now()
	c, err := server.DialTimeout(n.be.TCP, ss.r.opts.DialTimeout)
	ft.spanNode("dial", n.name, start)
	if err != nil {
		return nil, err
	}
	ss.conns[n.be.TCP] = c
	return c, nil
}

// drop discards the session's connection to a backend after a failure.
func (ss *session) drop(n *node) {
	if c, ok := ss.conns[n.be.TCP]; ok {
		c.Close()
		delete(ss.conns, n.be.TCP)
	}
}

// readOnlyRequest classifies one request: true when every statement it
// carries is read-only (safe to serve from a replica and to resend after
// a mid-exchange failure). Unparseable statements classify as writes and
// go to the primary — it is the one node whose answer is authoritative.
func readOnlyRequest(req *server.Request) bool {
	if len(req.Batch) > 0 {
		for _, src := range req.Batch {
			if !sql.ReadOnlySrc(src) {
				return false
			}
		}
		return true
	}
	return sql.ReadOnlySrc(req.Query)
}

// forward routes one request and always returns a response carrying the
// client's original request ID (backend sessions number their requests
// independently, so the forwarded response's ID must be rewritten back).
func (ss *session) forward(req *server.Request) *server.Response {
	origID := req.ID
	ft := ss.beginTrace(req)
	start := time.Now()
	var resp *server.Response
	if readOnlyRequest(req) {
		ss.r.met.Inc(RouteReads)
		resp = ss.forwardRead(req, ft)
	} else {
		ss.r.met.Inc(RouteWrites)
		resp = ss.forwardWrite(req, ft)
	}
	ft.span("route", start)
	ft.stitch(resp)
	resp.ID = origID
	return resp
}

// forwardRead serves a read-only request: round-robin over healthy
// replicas, failing over to each remaining healthy replica once and
// finally to the primary. A backend that fails mid-read is ejected
// immediately — the request already proved it dead — and the read is
// resent elsewhere, invisibly to the client. Only when every backend
// (primary included) fails does the client see an error, and it is
// retryable.
func (ss *session) forwardRead(req *server.Request, ft *fwdTrace) *server.Response {
	tried := 0
	var lastErr error
	if n := len(ss.r.replicas); n > 0 {
		// Reduce the uint64 cursor BEFORE converting: int(Add(1)) goes
		// negative once the counter passes 1<<63, and a negative % n would
		// index out of bounds.
		start := int(ss.r.rr.Add(1) % uint64(n))
		for i := 0; i < n; i++ {
			rep := ss.r.replicas[(start+i)%n]
			if !rep.healthy.Load() {
				continue
			}
			if tried > 0 {
				ss.r.met.Inc(RouteReadFailovers)
				ft.spanNode("failover", rep.name, time.Now())
			}
			tried++
			resp, err, fatal := ss.tryBackend(rep, req, ft)
			if !fatal {
				return resp
			}
			lastErr = err
		}
	}
	// Last resort: the primary serves reads too (a 0-replica "cluster" is
	// just a proxied single node).
	if tried > 0 {
		ss.r.met.Inc(RouteReadFailovers)
		ft.spanNode("failover", ss.r.primary.name, time.Now())
	}
	resp, err, fatal := ss.tryBackend(ss.r.primary, req, ft)
	if !fatal {
		return resp
	}
	if lastErr == nil {
		lastErr = err
	}
	return &server.Response{Error: &server.WireError{
		Code:      server.CodeUnavailable,
		Message:   fmt.Sprintf("no backend could serve the read: %v", lastErr),
		Retryable: true,
	}}
}

// tryBackend forwards req to one backend. fatal=true means this backend
// cannot serve it (dial failed, session broke, or the node answered
// not-ready/draining) and the caller should fail over; fatal=false means
// the response — success or a semantic error like sql_error — is the
// request's real outcome and must go back to the client.
func (ss *session) tryBackend(n *node, req *server.Request, ft *fwdTrace) (resp *server.Response, err error, fatal bool) {
	c, err := ss.conn(n, ft)
	if err != nil {
		ss.fail(n, err)
		return nil, err, true
	}
	start := time.Now()
	resp, err = c.Do(*req)
	n.lat.Observe(time.Since(start).Nanoseconds())
	ft.spanNode("backend_wait", n.name, start)
	if err == nil {
		ft.served(n.name)
		return resp, nil, false
	}
	if c.Broken() {
		ss.drop(n)
		ss.fail(n, err)
		return nil, err, true
	}
	// Intact session, wire-level error. not_ready and shutting_down mean
	// THIS node cannot serve anyone right now — fail over. Everything
	// else (sql_error, memory_error, overloaded, timeout) is the
	// statement's own outcome on a serving node: report it.
	if resp != nil && resp.Error != nil {
		switch resp.Error.Code {
		case server.CodeUnavailable, server.CodeShutdown:
			ss.fail(n, err)
			return nil, err, true
		}
	}
	ft.served(n.name)
	return resp, err, false
}

// fail records one forward failure against a backend: replicas eject
// immediately, the primary has no rotation to leave (writes fail typed
// instead).
func (ss *session) fail(n *node, err error) {
	n.noteFailure(err.Error())
	if n != ss.r.primary {
		wasHealthy := n.healthy.Load()
		n.markDown()
		if wasHealthy && !n.healthy.Load() {
			ss.r.onHealthChange(n, false)
		}
	}
	if ss.r.opts.Logger != nil {
		ss.r.opts.Logger.Warn("backend failed", "backend", n.be.String(), "error", err)
	}
}

// forwardWrite serves a write-bearing request on the primary, with
// typed, honest failure semantics: a dial failure means the write never
// ran anywhere (primary_unavailable, retryable), a session that broke
// mid-exchange means it may have (unknown_state, not retryable). There
// is no silent retry of writes — exactly-once is the client's contract
// to manage, and lying about it would corrupt downstream state.
func (ss *session) forwardWrite(req *server.Request, ft *fwdTrace) *server.Response {
	c, err := ss.conn(ss.r.primary, ft)
	if err != nil {
		ss.r.met.Inc(RoutePrimaryDown)
		ss.r.primary.noteFailure(err.Error())
		if ss.r.opts.Logger != nil {
			ss.r.opts.Logger.Warn("primary unreachable", "error", err)
		}
		return &server.Response{Error: &server.WireError{
			Code:      server.CodePrimaryDown,
			Message:   fmt.Sprintf("primary %s unreachable, write not executed: %v", ss.r.primary.be.TCP, err),
			Retryable: true,
		}}
	}
	start := time.Now()
	resp, err := c.Do(*req)
	ft.spanNode("backend_wait", ss.r.primary.name, start)
	if err != nil && c.Broken() {
		ss.drop(ss.r.primary)
		ss.r.met.Inc(RouteUnknownState)
		ss.r.primary.noteFailure(err.Error())
		return &server.Response{Error: &server.WireError{
			Code:    server.CodeUnknownState,
			Message: fmt.Sprintf("session to primary broke mid-write; execution state unknown: %v", err),
		}}
	}
	// Wire errors on an intact session (sql_error, not_ready while the
	// primary recovers, overloaded...) pass through untouched.
	ft.served(ss.r.primary.name)
	return resp
}

// ListenTCP starts the router's NDJSON front end.
func (r *Router) ListenTCP(addr string) (net.Addr, error) { return r.front.ListenTCP(addr) }

// ListenHTTP starts the router's HTTP front end: POST /query (forwarded
// like the TCP protocol), GET /stats (router counters + per-replica
// health), GET /metrics, GET /cluster/metrics and /cluster/stats (the
// federated views), GET /healthz, GET /readyz.
func (r *Router) ListenHTTP(addr string) (net.Addr, error) { return r.front.ListenHTTP(addr) }

// RouterStats is the router's GET /stats payload.
type RouterStats struct {
	Counters map[string]int64 `json:"counters"`
	Replicas []ReplicaHealth  `json:"replicas"`
}

// ReplicaHealth is one replica's rotation state plus the health checker's
// probe observability: the last probe's round-trip time, why the node
// last failed (persists across re-admission as evidence), and how often
// it has been ejected.
type ReplicaHealth struct {
	Backend     string  `json:"backend"`
	Node        string  `json:"node"`
	Healthy     bool    `json:"healthy"`
	ProbeRTTMs  float64 `json:"probe_rtt_ms"`
	LastFailure string  `json:"last_failure,omitempty"`
	Ejections   int64   `json:"ejections"`
}

// Stats snapshots the router counters and per-replica health.
func (r *Router) Stats() RouterStats {
	st := RouterStats{Counters: r.met.Snapshot()}
	for _, n := range r.replicas {
		st.Replicas = append(st.Replicas, ReplicaHealth{
			Backend:     n.be.String(),
			Node:        n.name,
			Healthy:     n.healthy.Load(),
			ProbeRTTMs:  float64(n.rttNanos.Load()) / 1e6,
			LastFailure: n.failureReason(),
			Ejections:   n.ejections.Load(),
		})
	}
	return st
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	r.front.WriteJSON(w, http.StatusOK, r.Stats())
}

// handleMetrics renders the router's own GET /metrics: every route.*
// counter (0 until it fires, like the backends' expositions), the replica
// rotation gauges, and one read-latency histogram family labeled by
// backend node.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	p := obs.NewWriter(w)
	p.Counters("rcnvm", r.Stats().Counters, &Family)
	p.Gauge("rcnvm_route_replicas", float64(len(r.replicas)))
	p.Gauge("rcnvm_route_replicas_healthy", float64(r.Healthy()))
	items := make([]obs.LabeledHistogram, 0, 1+len(r.replicas))
	for _, n := range r.allNodes() {
		items = append(items, obs.LabeledHistogram{Label: n.name, H: n.lat})
	}
	p.Histograms("rcnvm_route_backend_read_latency_seconds", "backend", items, 1e-9)
}

// allNodes returns every backend node, primary first — the canonical node
// order of federated expositions and /cluster/stats.
func (r *Router) allNodes() []*node {
	out := make([]*node, 0, 1+len(r.replicas))
	out = append(out, r.primary)
	out = append(out, r.replicas...)
	return out
}

// Shutdown stops the router: listeners close, the health checker exits,
// open client sessions (and their backend sessions) drop.
func (r *Router) Shutdown(ctx context.Context) error {
	if !r.front.Close(ctx, true, r.check.close) {
		return nil
	}
	return ctx.Err()
}
