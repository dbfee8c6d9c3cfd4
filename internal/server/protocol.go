// Package server is the concurrent query service over the functional
// RC-NVM database: a TCP front end speaking newline-delimited JSON and an
// HTTP front end (POST /query, GET /metrics), both executing SQL against one
// shared engine.DB under admission control.
//
// Concurrency model, in one paragraph: every statement is classified by
// sql.ReadOnly and runs under the engine's RWMutex at statement
// granularity — SELECTs, traced or not, share the read lock and proceed in
// parallel, mutations take the write lock. A statement runs on the
// goroutine that decoded it (its session's) once it holds one of Workers
// run slots; at most Queue more wait for one, and past that the server
// rejects immediately with a typed "overloaded" error, so latency stays
// bounded under overload. Shutdown stops admission first, then drains
// every in-flight query before closing connections.
//
// A request may set "timing": true to have its memory-access trace
// replayed on the RC-NVM timing simulator, both as issued (column
// accesses) and downgraded to row-only accesses — the per-query
// dual-vs-row attribution of the paper's evaluation, served online.
package server

import (
	"encoding/json"
	"errors"
	"net/http"

	"rcnvm/internal/sim"
)

// Wire error codes carried in Response.Error.Code.
const (
	// CodeOverloaded: every admission slot was taken (Workers running,
	// Queue waiting for a run slot); retry later.
	CodeOverloaded = "overloaded"
	// CodeShutdown: the server is draining and admits no new queries.
	CodeShutdown = "shutting_down"
	// CodeBadRequest: the request was not a valid protocol message.
	CodeBadRequest = "bad_request"
	// CodeSQL: the statement failed to parse or execute.
	CodeSQL = "sql_error"
	// CodeMemory: the statement hit an uncorrectable memory error (ECC
	// detected more errors than it can correct). Not retryable — stuck-at
	// errors persist, so a retry would re-read the same dead cells.
	CodeMemory = "memory_error"
	// CodeInternal: the statement crashed the executor; the panic was
	// recovered and the server kept serving.
	CodeInternal = "internal_error"
	// CodeTimeout: the statement exceeded its deadline. The statement
	// keeps running to completion on a goroutine of its own (the engine
	// cannot abandon a scan mid-flight), but the response slot is released.
	CodeTimeout = "deadline_exceeded"
	// CodeUnavailable: the node is alive but not ready to serve queries
	// (WAL recovery, replica catch-up, drain). Retryable — the same
	// request succeeds once the node is ready or a router picks another.
	CodeUnavailable = "not_ready"
	// CodeReadOnly: the statement mutates but this node is a read replica;
	// send it to the primary. Not retryable against the same node.
	CodeReadOnly = "read_only_replica"
	// CodeUnknownState: a write-bearing request failed mid-exchange and
	// its execution state is unknown — some prefix may have committed.
	// Not retryable: blindly resending could double-apply mutations; the
	// caller must reconcile (re-read) before deciding.
	CodeUnknownState = "unknown_state"
	// CodePrimaryDown: the router could not reach the primary, and the
	// write was never admitted anywhere. Retryable — nothing executed, so
	// a resend after the primary recovers is safe.
	CodePrimaryDown = "primary_unavailable"
)

// httpStatus is the one wire-code → HTTP-status mapping of POST /query, for
// every owner of a FrontEnd: try-again-later conditions are 503, a missed
// deadline 504, failures that are the service's own (or of unknown
// outcome) 500, a write sent to a replica 403, and everything else —
// bad_request, sql_error, any code not listed — is the request's fault.
func httpStatus(code string) int {
	switch code {
	case CodeOverloaded, CodeShutdown, CodeUnavailable, CodePrimaryDown:
		return http.StatusServiceUnavailable
	case CodeTimeout:
		return http.StatusGatewayTimeout
	case CodeMemory, CodeInternal, CodeUnknownState:
		return http.StatusInternalServerError
	case CodeReadOnly:
		return http.StatusForbidden
	default:
		return http.StatusBadRequest
	}
}

// Typed sentinel errors for admission-control outcomes; both the server and
// the client surface these so callers can errors.Is on them.
var (
	ErrOverloaded   = errors.New("server: overloaded, query rejected")
	ErrShuttingDown = errors.New("server: shutting down")
)

// Request is one statement submitted by a client. On the TCP transport it
// is one JSON object per line; over HTTP it is the POST /query body.
type Request struct {
	// ID is echoed back on the response; clients use it to match
	// responses to requests.
	ID uint64 `json:"id,omitempty"`
	// Query is the SQL statement text. Mutually exclusive with Batch.
	Query string `json:"query"`
	// Batch is an ordered list of statements executed as one unit: one
	// admission, one shard-lock round, one group-commit fsync wait.
	// The response carries one result slot per statement in Results; a
	// failed statement fills its slot's Error and the batch continues,
	// exactly as a session issuing the statements one at a time would.
	// Batch requests do not support Timing or Trace.
	Batch []string `json:"batch,omitempty"`
	// Timing asks for simulated memory-timing attribution: the response
	// carries sim.Timing, the statement's captured streams replayed by
	// sim.Replayer.Time after its locks are released. A timed statement
	// captures into streams of its own under the locks it takes untimed;
	// what it costs beyond that is the replay, which holds no lock.
	Timing bool `json:"timing,omitempty"`
	// TimeoutMs caps this statement's execution in milliseconds; past the
	// deadline the client receives CodeTimeout. 0 means the server default
	// (Options.QueryTimeout). The effective deadline is the smaller of the
	// two.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Trace asks for a span trace of this statement: the response carries
	// a Chrome trace-event JSON document (Perfetto-loadable) covering the
	// parse/lock/exec phases and, with Timing, the per-memory-request
	// phases of the replay.
	Trace bool `json:"trace,omitempty"`
	// TraceID, when non-zero, replaces the request ID as the thread id on
	// recorded spans — a router stitching one distributed trace across
	// nodes sets it so router and backend spans share a thread lane. Old
	// servers ignore the field (unknown JSON fields are dropped on
	// decode), which degrades to per-node thread ids, never an error.
	TraceID int64 `json:"trace_id,omitempty"`
}

// WireError is the serialized form of a failed request. It implements
// error so client code can return it directly.
type WireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Retryable hints that the same request may succeed if resent after a
	// backoff (transient congestion or a deadline, not a semantic error).
	Retryable bool `json:"retryable,omitempty"`
}

func (e *WireError) Error() string { return e.Code + ": " + e.Message }

// Response is the outcome of one request. Exactly one of Error or the
// result fields is meaningful.
type Response struct {
	ID       uint64      `json:"id,omitempty"`
	Columns  []string    `json:"columns,omitempty"`
	Rows     [][]uint64  `json:"rows,omitempty"`
	Floats   []float64   `json:"floats,omitempty"`
	Affected int         `json:"affected,omitempty"`
	Message  string      `json:"message,omitempty"`
	Timing   *sim.Timing `json:"timing,omitempty"`
	// TraceEvents is the Chrome trace-event JSON document for requests
	// that set Trace (save it to a file and open in Perfetto).
	TraceEvents json.RawMessage `json:"trace_events,omitempty"`
	// Results carries the per-statement outcomes of a Batch request, in
	// statement order (len == len(Request.Batch)). The top-level Error is
	// set only for whole-batch failures (bad request, overload, shutdown,
	// deadline); per-statement failures land in their slot's Error.
	Results []*Response `json:"results,omitempty"`
	Error   *WireError  `json:"error,omitempty"`
}

// Err returns the response's error (nil on success), mapping the
// admission-control codes back to their sentinel errors.
func (r *Response) Err() error {
	if r.Error == nil {
		return nil
	}
	switch r.Error.Code {
	case CodeOverloaded:
		return ErrOverloaded
	case CodeShutdown:
		return ErrShuttingDown
	}
	return r.Error
}

func errResponse(id uint64, code, msg string) *Response {
	return &Response{ID: id, Error: &WireError{
		Code:    code,
		Message: msg,
		Retryable: code == CodeOverloaded || code == CodeTimeout ||
			code == CodeUnavailable || code == CodePrimaryDown,
	}}
}
