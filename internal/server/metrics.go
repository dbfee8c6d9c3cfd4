package server

import (
	"time"

	"rcnvm/internal/stats"
)

// Family declares every series the server publishes itself: server.*,
// plancache.* and fault.*, in the same dotted namespace style as the
// simulator counters so one snapshot renders uniformly. The declaration is
// the list — the server's counter store is built over it, so each series
// exists from the first /metrics scrape (fault injection off and
// counters that have not fired yet read 0), and the documentation lint
// walks it.
var Family stats.Family

// Server counters.
var (
	Queries           = Family.Counter("server.queries")             // statements executed (ok or sql error)
	QueryErrors       = Family.Counter("server.query_errors")        // statements that failed (parse/exec)
	TimedQueries      = Family.Counter("server.timed_queries")       // statements with timing attribution
	Rejected          = Family.Counter("server.rejected")            // admissions refused: workers+queue statements in flight
	RejectedDrain     = Family.Counter("server.rejected_drain")      // admissions refused: shutting down
	RejectedNotReady  = Family.Counter("server.rejected_not_ready")  // admissions refused: recovery/catch-up/drain readiness gate
	RowsReturned      = Family.Counter("server.rows_returned")       // result rows sent to clients
	SessionsOpened    = Family.Counter("server.sessions_opened")     // TCP connections accepted
	SessionsActive    = Family.Gauge("server.sessions_active")       // TCP connections currently open
	BadRequests       = Family.Counter("server.bad_requests")        // undecodable protocol messages
	MemoryErrors      = Family.Counter("server.memory_errors")       // statements failed by uncorrectable memory errors
	Panics            = Family.Counter("server.panics")              // executor panics recovered into internal_error
	Timeouts          = Family.Counter("server.timeouts")            // statements past their deadline
	TracedQueries     = Family.Counter("server.traced_queries")      // statements sampled for span tracing
	TraceSpansDropped = Family.Counter("server.trace_spans_dropped") // spans a traced statement recorded past its recorder's limit
	EncodeErrors      = Family.Counter("server.encode_errors")       // responses computed but undeliverable (encode failed)
	Batches           = Family.Counter("server.batches")             // batch requests executed
	BatchStatements   = Family.Counter("server.batch_statements")    // statements carried inside batch requests
	ReplaySimsBuilt   = Family.Counter("server.replay_sims_built")   // simulated systems constructed for timing replays (reuse keeps it at most 1 per worker)
)

// Plan-cache counters, sourced from sql.PlanCache.Counters and merged
// into /metrics alongside the server counters.
var (
	PlanCacheHits      = Family.Counter("plancache.hits")
	PlanCacheMisses    = Family.Counter("plancache.misses")
	PlanCacheEvictions = Family.Counter("plancache.evictions")
)

// Fault-layer counters, merged into /metrics from the injectors when
// injection is enabled and 0 otherwise.
var (
	FaultTransientBits = Family.Counter("fault.transient_bits")
	FaultStuckBits     = Family.Counter("fault.stuck_bits")
	FaultCorrected     = Family.Counter("fault.ecc_corrected")
	FaultUncorrectable = Family.Counter("fault.ecc_uncorrectable")
	FaultMiscorrected  = Family.Counter("fault.ecc_miscorrected")
	FaultWrites        = Family.Counter("fault.writes")
)

// Metrics aggregates the service-level counters and the query-latency
// distribution. Built on stats.Counters and stats.Histogram, both safe for
// concurrent use, so every session and worker records into one instance.
type Metrics struct {
	Counters *stats.Counters // over Family
	// Latency holds wall-clock statement latencies in nanoseconds
	// (admission to response-ready, excluding network time).
	Latency *stats.Histogram
}

// NewMetrics returns an empty metrics instance.
func NewMetrics() *Metrics {
	return &Metrics{Counters: stats.NewCounters(&Family), Latency: stats.NewHistogram()}
}

// observe records one executed statement.
func (m *Metrics) observe(d time.Duration, rows int, failed bool) {
	m.Counters.Inc(Queries)
	if failed {
		m.Counters.Inc(QueryErrors)
	}
	m.Counters.Add(RowsReturned, int64(rows))
	m.Latency.Observe(d.Nanoseconds())
}

// observeBatch records one executed batch: each statement counts toward
// the per-statement counters exactly as if it had arrived alone, and the
// latency histogram gets ONE sample covering the whole batch (per-statement
// latency inside a batch is not individually measurable — they share one
// lock round and one fsync wait).
func (m *Metrics) observeBatch(d time.Duration, stmts, failed, rows int) {
	m.Counters.Inc(Batches)
	m.Counters.Add(BatchStatements, int64(stmts))
	m.Counters.Add(Queries, int64(stmts))
	m.Counters.Add(QueryErrors, int64(failed))
	m.Counters.Add(RowsReturned, int64(rows))
	m.Latency.Observe(d.Nanoseconds())
}

// PoolStatus reports admission occupancy: Workers run slots, and Depth
// of the Capacity (Options.Queue) waiting slots taken.
type PoolStatus struct {
	Workers  int
	Depth    int
	Capacity int
}

// StatsSnapshot is the in-process view of the server's accounting: the
// merged counters /metrics renders and the admission occupancy.
type StatsSnapshot struct {
	Counters map[string]int64
	Pool     PoolStatus
}
