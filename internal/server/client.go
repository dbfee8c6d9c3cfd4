package server

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rcnvm/internal/sql"
	"rcnvm/internal/stats"
)

// ErrSessionBroken marks a session whose request/response framing can no
// longer be trusted — a deadline fired mid-exchange or the transport
// failed, so a late response could be matched to the wrong request. The
// session must be closed and redialed (RetryClient does this
// automatically).
var ErrSessionBroken = errors.New("server: session broken, redial required")

// Client speaks the TCP line protocol: one JSON request per line, one
// JSON response per line, in order. A Client is one server session; it is
// safe for concurrent use, but requests serialize on the session (open
// several Clients for parallelism — that is what the throughput
// benchmarks do).
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	sc      *bufio.Scanner
	buf     []byte // the request being sent
	id      uint64
	timeout time.Duration
	broken  bool
}

// Dial opens a session to a server's TCP front end.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 0)
}

// DialTimeout is Dial with a bound on connection establishment — routers
// use it so a dead backend fails a request in bounded time instead of
// hanging on the kernel's connect timeout. 0 means no bound.
func DialTimeout(addr string, d time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(nil, maxLineBytes)
	return &Client{conn: conn, sc: sc}, nil
}

// SetTimeout sets a per-request wall-clock deadline, enforced with
// net.Conn deadlines on both the send and the response read. When it
// fires, the call fails with a net timeout error and the session is
// marked broken (the response may still arrive and would desynchronize
// the framing). 0 disables the deadline.
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

// Broken reports whether the session must be redialed.
func (c *Client) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken
}

// Query executes one statement. The returned error covers transport and
// protocol failures as well as the response's own error (so callers may
// errors.Is(err, ErrOverloaded)); the response is returned alongside
// whenever one was received.
func (c *Client) Query(q string) (*Response, error) {
	return c.do(Request{Query: q})
}

// QueryTimed executes one statement with RC-NVM timing attribution.
func (c *Client) QueryTimed(q string) (*Response, error) {
	return c.do(Request{Query: q, Timing: true})
}

// Batch executes stmts in order as one batch request: one admission, one
// shard-lock round and one group-commit wait server-side. The returned
// slice holds one response per statement; a statement's failure fills its
// slot's Error and the batch continues, so callers must check each slot.
// The returned error covers whole-batch failures only (transport,
// overload, shutdown, deadline).
func (c *Client) Batch(stmts []string) ([]*Response, error) {
	resp, err := c.do(Request{Batch: stmts})
	if err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// QueryTraced executes one statement with span tracing: the response
// carries a Chrome trace-event JSON document (Perfetto-loadable). With
// timing the trace also covers the replay's per-memory-request phases.
func (c *Client) QueryTraced(q string, timing bool) (*Response, error) {
	return c.do(Request{Query: q, Timing: timing, Trace: true})
}

// Do sends one raw request on the session and returns its response. The
// session assigns the wire ID itself (the response-matching invariant
// must hold per session); callers forwarding on behalf of another
// protocol party — the cluster router — must rewrite the returned
// response's ID back to their caller's before relaying it.
func (c *Client) Do(req Request) (*Response, error) {
	return c.do(req)
}

func (c *Client) do(req Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken {
		return nil, ErrSessionBroken
	}
	c.id++
	req.ID = c.id
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
		defer c.conn.SetDeadline(time.Time{})
	}
	c.buf = appendRequest(c.buf[:0], &req)
	if _, err := c.conn.Write(c.buf); err != nil {
		c.broken = true
		return nil, fmt.Errorf("server: send: %w", err)
	}
	if !c.sc.Scan() {
		c.broken = true
		if err := c.sc.Err(); err != nil {
			return nil, fmt.Errorf("server: receive: %w", err)
		}
		return nil, fmt.Errorf("server: connection closed: %w", ErrSessionBroken)
	}
	resp := new(Response)
	if err := decodeResponse(c.sc.Bytes(), resp); err != nil {
		c.broken = true
		return nil, fmt.Errorf("server: bad response: %w", err)
	}
	if resp.ID != req.ID {
		c.broken = true
		return resp, fmt.Errorf("server: response id %d for request %d: %w",
			resp.ID, req.ID, ErrSessionBroken)
	}
	return resp, resp.Err()
}

// Close ends the session.
func (c *Client) Close() error { return c.conn.Close() }

// IsRetryable classifies an error from Client.Query (or RetryClient):
// true means the same request may succeed if resent after a backoff —
// congestion, deadlines and transport failures; false means a semantic
// error (bad SQL, uncorrectable memory) a retry cannot fix.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrSessionBroken) {
		return true
	}
	var we *WireError
	if errors.As(err, &we) {
		return we.Retryable
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true // timeouts and transport failures: redial and retry
	}
	return false
}

// ErrGaveUp marks a request whose retry budget ran out — every attempt
// failed retryably and the client stopped trying (MaxAttempts exhausted
// or MaxElapsed exceeded). The last underlying failure is wrapped
// alongside it, so errors.Is works on both.
var ErrGaveUp = errors.New("server: retry budget exhausted")

// ErrUnknownState marks a write-bearing request that failed mid-exchange:
// the session broke after the request may have reached the server, so
// some or all of its mutations may have committed. The client refuses to
// resend (a blind retry could double-apply); the caller must reconcile by
// re-reading before deciding.
var ErrUnknownState = errors.New("server: execution state unknown, not resent")

// RetryPolicy shapes RetryClient's backoff. The zero value means 4
// attempts starting at 10ms, doubling to a 1s cap, with full jitter and
// no elapsed-time bound.
type RetryPolicy struct {
	MaxAttempts int
	BaseDelay   time.Duration
	MaxDelay    time.Duration
	// Timeout is the per-request deadline applied to every attempt
	// (Client.SetTimeout); 0 disables it.
	Timeout time.Duration
	// MaxElapsed is the total retry budget across all attempts and
	// redials: once a request has been failing for this long, the next
	// backoff is skipped and the client gives up with ErrGaveUp. It bounds
	// how long a dead cluster can hold a caller — MaxAttempts bounds the
	// count, MaxElapsed the wall clock, and whichever trips first wins.
	// 0 disables the elapsed bound.
	MaxElapsed time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	return p
}

// RetryClient wraps the line protocol with availability-minded retries:
// retryable failures (overload, deadlines, broken sessions) are resent
// after exponential backoff with jitter, redialing the session whenever
// it broke. Semantic errors return immediately.
type RetryClient struct {
	addr string
	pol  RetryPolicy

	// ctr counts ClientRetries and ClientGaveUp: the client-side
	// availability signal the chaos harness asserts on.
	ctr *stats.Counters

	mu  sync.Mutex
	c   *Client
	rng *rand.Rand
}

// retrySeq distinguishes RetryClients created within one clock tick:
// seeding jitter from the wall clock alone gives every client dialed in
// the same instant (a fleet restarting after a failover) an identical
// backoff sequence, so their retries land in lockstep and re-overload
// the backend together.
var retrySeq atomic.Uint64

// DialRetry creates a retrying client. The initial dial is lazy, so the
// server may come up after the client.
func DialRetry(addr string, pol RetryPolicy) *RetryClient {
	seed := time.Now().UnixNano() + int64(retrySeq.Add(1)<<32)
	return &RetryClient{
		addr: addr,
		pol:  pol.withDefaults(),
		rng:  rand.New(rand.NewSource(seed)),
		ctr:  stats.NewCounters(&clientFamily),
	}
}

// Query executes one statement with retries.
func (r *RetryClient) Query(q string) (*Response, error) {
	return r.do(Request{Query: q}, IsRetryable)
}

// Batch executes stmts as one batch request with retries. Retrying a
// batch is subtler than retrying a statement: an overload rejection
// happens before execution and is always safe to resend, but a deadline
// or broken session leaves the batch's execution state unknown — some
// prefix may have committed — so those are resent only when EVERY
// statement is read-only (a re-read cannot double-apply anything).
// Mutating batches with unknown state fail fast instead.
func (r *RetryClient) Batch(stmts []string) ([]*Response, error) {
	readOnly := allReadOnly(stmts)
	resp, err := r.do(Request{Batch: stmts}, func(err error) bool { return batchRetryable(err, readOnly) })
	switch {
	case err == nil:
		return resp.Results, nil
	case !errors.Is(err, ErrGaveUp) && !readOnly && !errors.Is(err, ErrShuttingDown) && IsRetryable(err):
		// The batch carries mutations and the exchange broke after the
		// send: its state is unknown. Typed so callers can distinguish
		// "reconcile before retrying" from a plain error.
		return nil, fmt.Errorf("%w: %w", ErrUnknownState, err)
	}
	return nil, err
}

// batchRetryable decides whether a failed batch may be resent. Overload is
// a pre-execution rejection (the server never admitted the batch), so it is
// always safe. Shutdown is also pre-execution but the server is draining —
// retrying matches the single-statement client's behavior of giving up.
// Every other retryable class (deadline, broken session, transport) left
// the batch's execution state unknown: safe only for all-read-only batches.
func batchRetryable(err error, readOnly bool) bool {
	if errors.Is(err, ErrOverloaded) {
		return true
	}
	if errors.Is(err, ErrShuttingDown) {
		return false
	}
	return readOnly && IsRetryable(err)
}

// allReadOnly reports whether every statement parses and is read-only —
// the condition under which a batch with unknown execution state can be
// resent without double-applying mutations. Unparseable statements count
// as mutations (the server's parser may be newer than ours).
func allReadOnly(stmts []string) bool {
	for _, src := range stmts {
		if !sql.ReadOnlySrc(src) {
			return false
		}
	}
	return true
}

// clientFamily declares a RetryClient's series, in the same namespace
// style as the server's. No endpoint publishes them, so the metrics lint
// does not walk it.
var clientFamily stats.Family

var (
	ClientRetries = clientFamily.Counter("client.retries") // resends beyond each request's first attempt
	ClientGaveUp  = clientFamily.Counter("client.gaveup")  // requests abandoned with ErrGaveUp
)

// Counters snapshots the client's retry accounting. A replica failure
// fully masked by failover shows retries > 0 with gaveup still 0.
func (r *RetryClient) Counters() map[string]int64 { return r.ctr.Snapshot() }

// budgetLeft reports whether one more attempt fits the retry budget: the
// attempt count under MaxAttempts and, when MaxElapsed is set, the
// elapsed wall clock under it. The first attempt is always in budget.
func (r *RetryClient) budgetLeft(attempt int, start time.Time) bool {
	if attempt >= r.pol.MaxAttempts {
		return false
	}
	if attempt == 0 || r.pol.MaxElapsed == 0 {
		return true
	}
	return time.Since(start) < r.pol.MaxElapsed
}

// do is the one retry loop: req is resent, after a backoff and on a
// redialed session if the old one broke, for as long as the budget lasts
// and retryable says its last failure may be.
func (r *RetryClient) do(req Request, retryable func(error) bool) (*Response, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := time.Now()
	var lastErr error
	attempt := 0
	for ; r.budgetLeft(attempt, start); attempt++ {
		if attempt > 0 {
			time.Sleep(r.backoff(attempt))
			r.ctr.Inc(ClientRetries)
		}
		c, err := r.sessionLocked()
		if err != nil {
			lastErr = err
			continue
		}
		resp, err := c.do(req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if c.Broken() {
			c.Close()
			r.c = nil
		}
		if !retryable(err) {
			return resp, err
		}
	}
	r.ctr.Inc(ClientGaveUp)
	return nil, fmt.Errorf("%w: giving up after %d attempts in %v: %w",
		ErrGaveUp, attempt, time.Since(start).Round(time.Millisecond), lastErr)
}

// sessionLocked returns the live session, dialing one if needed.
func (r *RetryClient) sessionLocked() (*Client, error) {
	if r.c != nil {
		return r.c, nil
	}
	c, err := Dial(r.addr)
	if err != nil {
		return nil, err
	}
	if r.pol.Timeout > 0 {
		c.SetTimeout(r.pol.Timeout)
	}
	r.c = c
	return c, nil
}

// backoff is exponential with full jitter: uniform over (0, base<<attempt]
// capped at MaxDelay, so synchronized clients spread out after an
// overload spike instead of stampeding in lockstep.
func (r *RetryClient) backoff(attempt int) time.Duration {
	d := r.pol.BaseDelay << (attempt - 1)
	if d > r.pol.MaxDelay || d <= 0 {
		d = r.pol.MaxDelay
	}
	return time.Duration(1 + r.rng.Int63n(int64(d)))
}

// Close drops the current session.
func (r *RetryClient) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.c == nil {
		return nil
	}
	err := r.c.Close()
	r.c = nil
	return err
}
