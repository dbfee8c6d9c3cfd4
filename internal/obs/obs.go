// Package obs is the observability layer of the RC-NVM stack: typed spans
// for tracing a query through the server, the SQL layer and the timing
// simulator; per-bank telemetry sampled into a ring-buffer time series;
// and the Prometheus text format, which no other package spells — Writer
// renders every /metrics and /cluster/metrics byte, and Parse and Merge
// read node expositions back into families for federation.
//
// The contract that keeps it out of the hot path: everything is disabled
// by default, and disabled means *nil* — a nil *Recorder ignores spans, a
// nil *Telemetry is never consulted (call sites guard with one pointer
// comparison). The event engine and the default benchmark output are
// byte-for-byte unaffected; only a sampled query or an explicitly enabled
// telemetry run pays for allocation and locking.
package obs

import (
	"sync"
	"time"
)

// Clock semantics of a span: spans either measure wall-clock time (the
// server-side view: parse, lock wait, execute, replay) or simulated
// picoseconds (the memory-system view: queue, activate, burst).
//
// Wall spans carry Start/Dur in nanoseconds since the recorder's epoch;
// sim spans carry picoseconds since the start of their simulation run.

// Standard process (timeline) names. Chrome trace viewers group events by
// process, so the wall-clock query timeline and each simulated replay get
// their own lane.
const (
	ProcQuery   = "query"    // wall-clock spans of one statement
	ProcSimDual = "sim:dual" // RC-NVM timing replay (column accesses as issued)
	ProcSimRow  = "sim:row"  // row-only downgraded replay
	ProcRouter  = "router"   // cluster-router spans of one forwarded request
)

// Span categories.
const (
	CatSQL    = "sql"    // parse / lock_wait / exec
	CatServer = "server" // whole-statement and replay wrappers
	CatMem    = "mem"    // per-memory-request phases inside the simulator
	CatRoute  = "route"  // router-side routing / dial / backend-wait / failover
)

// Span is one completed, named interval on a timeline.
type Span struct {
	// Proc names the timeline (ProcQuery, ProcSimDual, ...). Exporters map
	// each distinct Proc to one trace "process".
	Proc string
	// Name is the phase ("parse", "exec", "queue", "activate", "burst").
	Name string
	// Cat is the span category (CatSQL, CatServer, CatMem).
	Cat string
	// TID is the logical lane within the timeline: 0 for the query thread,
	// the bank id for memory-request phases.
	TID int64
	// Start and Dur are nanoseconds since the recorder epoch for wall
	// spans, picoseconds since run start for sim spans.
	Start int64
	Dur   int64
	// Sim marks a simulated-time span (picoseconds).
	Sim bool
	// Args carries optional typed annotations (orientation, retry count).
	Args map[string]int64
}

// DefaultSpanLimit bounds one recorder: a pathological traced query (a
// full-table scan is ~10^5 memory requests) must not take the server down
// by recording millions of spans. Past the limit spans are counted as
// dropped, not stored.
const DefaultSpanLimit = 16384

// Recorder accumulates the spans of one traced unit of work (one sampled
// query). It is safe for concurrent use; a nil *Recorder discards
// everything, which is the disabled path threaded through the stack.
type Recorder struct {
	mu      sync.Mutex
	epoch   time.Time
	limit   int
	spans   []Span
	dropped int64
}

// NewRecorder returns a recorder with the wall-clock epoch set to now and
// the default span limit.
func NewRecorder() *Recorder { return NewRecorderLimit(DefaultSpanLimit) }

// NewRecorderLimit returns a recorder holding at most limit spans
// (limit <= 0 means DefaultSpanLimit).
func NewRecorderLimit(limit int) *Recorder {
	if limit <= 0 {
		limit = DefaultSpanLimit
	}
	return &Recorder{epoch: time.Now(), limit: limit}
}

// Epoch returns the wall-clock zero point of the recorder's wall spans.
func (r *Recorder) Epoch() time.Time { return r.epoch }

// Add records one span. Safe on a nil receiver (no-op).
func (r *Recorder) Add(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.spans) >= r.limit {
		r.dropped++
	} else {
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

// WallSince records a wall-clock span on proc that started at start and
// ends now. Safe on a nil receiver.
func (r *Recorder) WallSince(proc, name, cat string, tid int64, start time.Time) {
	if r == nil {
		return
	}
	r.Add(Span{
		Proc:  proc,
		Name:  name,
		Cat:   cat,
		TID:   tid,
		Start: start.Sub(r.epoch).Nanoseconds(),
		Dur:   time.Since(start).Nanoseconds(),
	})
}

// Sim records a simulated-time span. Safe on a nil receiver.
func (r *Recorder) Sim(proc, name, cat string, tid, startPs, durPs int64) {
	if r == nil {
		return
	}
	r.Add(Span{Proc: proc, Name: name, Cat: cat, TID: tid, Start: startPs, Dur: durPs, Sim: true})
}

// Spans returns a copy of the recorded spans in recording order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}

// Len returns the number of stored spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Dropped returns how many spans were discarded past the limit.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}
