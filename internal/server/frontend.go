package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// maxLineBytes bounds one TCP protocol line and one POST /query body
	// (and so one statement), on every front end.
	maxLineBytes = 1 << 20
	// readHeaderTimeout bounds how long an HTTP connection may take to
	// send a request's headers, so a client that never finishes them
	// cannot hold a connection open for good.
	readHeaderTimeout = 2 * time.Second
)

// A Responder answers one decoded request of one session. A non-nil
// release is called once the response has been written to the client —
// the server uses it to hold a statement in-flight across delivery, so the
// shutdown drain covers the response and not just the execution.
type Responder func(req *Request) (resp *Response, release func())

// FrontEnd is the wire front end: everything that is protocol and nothing
// that is execution — listener, session and http.Server registration, the
// accept loop, the NDJSON session loop, POST /query, JSON response
// writing, the teardown. A Server answers its sessions by executing, a
// cluster Router by forwarding; both serve through this one shell, so a
// protocol fix or a robustness guarantee lands on both. The exported
// fields are what differs between the owners; set them before listening.
type FrontEnd struct {
	// Open starts one client session: it returns the session's Responder
	// and its close hook (nil for none). A TCP connection is one session
	// for its whole life; every POST /query is a throwaway session, because
	// HTTP has no session affinity to preserve.
	Open func() (respond Responder, close func())
	// Routes are the owner's HTTP routes, served next to the shell's own
	// POST /query and GET /healthz.
	Routes map[string]http.HandlerFunc
	// Count receives the protocol-level events, under the server's series
	// names: SessionsOpened, SessionsActive (±1), BadRequests, Panics,
	// EncodeErrors. A Server counts them as they are (its store's Add);
	// another owner maps the ones it publishes into its own family.
	Count func(name string, delta int64)
	// Logger, when non-nil, receives one line per closed session, per
	// recovered panic and per undeliverable response.
	Logger *slog.Logger

	// mu guards the registrations and shutting. The server also takes it
	// to admit a statement (doHeld), so Close either sees the statement
	// in-flight or the statement sees shutting.
	mu        sync.Mutex
	listeners []net.Listener
	https     []*http.Server
	conns     map[net.Conn]struct{}
	shutting  bool

	accepting sync.WaitGroup // accept loops
	sessionID atomic.Uint64
}

// ListenTCP starts the newline-delimited-JSON front end on addr
// (e.g. "127.0.0.1:0") and returns the bound address.
func (f *FrontEnd) ListenTCP(addr string) (net.Addr, error) {
	return f.listen(addr, nil, f.acceptLoop)
}

// listen binds addr, registers the listener — or, for HTTP, the server
// that owns it, which Close drains rather than cuts — unless the front
// end is already closing, and runs serve as one of the accept loops.
func (f *FrontEnd) listen(addr string, hs *http.Server, serve func(net.Listener)) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	if f.shutting {
		f.mu.Unlock()
		ln.Close()
		return nil, ErrShuttingDown
	}
	if hs != nil {
		f.https = append(f.https, hs)
	} else {
		f.listeners = append(f.listeners, ln)
	}
	f.mu.Unlock()
	f.accepting.Add(1)
	go func() {
		defer f.accepting.Done()
		serve(ln)
	}()
	return ln.Addr(), nil
}

func (f *FrontEnd) acceptLoop(ln net.Listener) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		f.mu.Lock()
		if f.shutting {
			f.mu.Unlock()
			c.Close()
			return
		}
		if f.conns == nil {
			f.conns = make(map[net.Conn]struct{})
		}
		f.conns[c] = struct{}{}
		f.mu.Unlock()
		go f.serveConn(c)
	}
}

// serveConn is one session: requests on a connection are answered
// sequentially and responses come back in order; concurrency comes from
// concurrent sessions.
func (f *FrontEnd) serveConn(c net.Conn) {
	id := f.sessionID.Add(1)
	opened := time.Now()
	var statements, errCount int64
	var closeSession func()
	f.Count(SessionsOpened, 1)
	f.Count(SessionsActive, 1)
	defer func() {
		// A panic anywhere in the session loop kills only this session,
		// never the process or the sessions next to it.
		if r := recover(); r != nil {
			f.lost(Panics, "session panicked", id, r)
		}
		f.Count(SessionsActive, -1)
		if closeSession != nil {
			closeSession()
		}
		c.Close()
		f.mu.Lock()
		delete(f.conns, c)
		f.mu.Unlock()
		if f.Logger != nil {
			f.Logger.Info("session closed",
				"session", id,
				"remote", c.RemoteAddr().String(),
				"duration", time.Since(opened),
				"statements", statements,
				"errors", errCount)
		}
	}()

	var respond Responder
	respond, closeSession = f.Open()
	sc := bufio.NewScanner(c)
	sc.Buffer(nil, maxLineBytes) // grown on demand: the cap up front zeroed 1 MB per session
	// buf holds one encoded reply, written with one Write; a reply much
	// larger than usual is not kept for the rest of the session.
	var buf []byte
	send := func(resp *Response) error {
		var err error
		if buf, err = appendResponse(buf[:0], resp); err != nil {
			return err
		}
		_, err = c.Write(buf)
		if cap(buf) > 64<<10 {
			buf = nil
		}
		return err
	}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		req := new(Request)
		if err := decodeRequest(line, req); err != nil {
			f.Count(BadRequests, 1)
			errCount++
			if err := send(errResponse(0, CodeBadRequest, err.Error())); err != nil {
				f.lost(EncodeErrors, "response encode failed", id, err)
				return
			}
			continue
		}
		resp, release := respond(req)
		statements++
		if resp.Error != nil {
			errCount++
		}
		err := send(resp)
		if release != nil {
			release()
		}
		if err != nil {
			// The response was computed but never delivered (client hung
			// up, or the connection broke mid-write): account for it — a
			// silent drop here is indistinguishable from a slow query to
			// the operator.
			f.lost(EncodeErrors, "response encode failed", id, err)
			return
		}
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		// The scanner cannot find the next request inside an over-long
		// line: refuse it, typed as POST /query refuses an over-cap body,
		// and end the session.
		f.Count(BadRequests, 1)
		errCount++
		msg := fmt.Sprintf("request line exceeds %d bytes", maxLineBytes)
		if err := send(errResponse(0, CodeBadRequest, msg)); err != nil {
			f.lost(EncodeErrors, "response encode failed", id, err)
		}
	}
}

// ListenHTTP starts the HTTP front end on addr and returns the bound
// address: POST /query (Request JSON in, Response JSON out), GET /healthz
// and the owner's routes.
func (f *FrontEnd) ListenHTTP(addr string) (net.Addr, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", f.handleQuery)
	// /healthz is liveness only: the process is up and can answer HTTP.
	// Readiness (safe to route queries here) is the owner's /readyz — a
	// recovering or draining node is alive but not ready.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	for pattern, h := range f.Routes {
		mux.HandleFunc(pattern, h)
	}
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
	return f.listen(addr, hs, func(ln net.Listener) { hs.Serve(ln) })
}

func (f *FrontEnd) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req Request
	defer func() {
		// net/http would recover a handler panic itself, but by aborting
		// the response; recover here instead so the client still gets a
		// typed internal_error payload and the metric fires.
		if rec := recover(); rec != nil {
			f.lost(Panics, "session panicked", 0, rec)
			f.writeResponse(w, http.StatusInternalServerError,
				errResponse(req.ID, CodeInternal, fmt.Sprintf("internal error: %v", rec)))
		}
	}()
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if err := readRequest(w, r, &req); err != nil {
		f.Count(BadRequests, 1)
		f.writeResponse(w, http.StatusBadRequest, errResponse(0, CodeBadRequest, err.Error()))
		return
	}
	respond, closeSession := f.Open()
	if closeSession != nil {
		defer closeSession()
	}
	resp, release := respond(&req)
	status := http.StatusOK
	if resp.Error != nil {
		status = httpStatus(resp.Error.Code)
	}
	f.writeResponse(w, status, resp)
	if release != nil {
		release()
	}
}

// readRequest decodes a POST /query body as json.Decoder decodes its first
// value from a body capped at maxLineBytes: whatever follows that value is
// never read. A body read whole under the cap takes the codec's fast path;
// any other goes to json.Decoder over the same bytes, with the rest of the
// body after them.
func readRequest(w http.ResponseWriter, r *http.Request, req *Request) error {
	lr := &io.LimitedReader{R: r.Body, N: maxLineBytes}
	body, err := io.ReadAll(lr)
	if err == nil && lr.N > 0 {
		if _, ok := scanRequest(body, req); ok {
			return nil
		}
	}
	*req = Request{}
	rest := io.NopCloser(io.MultiReader(bytes.NewReader(body), r.Body))
	return json.NewDecoder(http.MaxBytesReader(w, rest, maxLineBytes)).Decode(req)
}

// writeResponse writes one POST /query reply with one Write, counting and
// logging a reply that could not be encoded or delivered as writeJSON does.
func (f *FrontEnd) writeResponse(w http.ResponseWriter, status int, resp *Response) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, err := appendResponse(nil, resp)
	if err == nil {
		_, err = w.Write(b)
	}
	if err != nil {
		f.lost(EncodeErrors, "response encode failed", 0, err)
	}
}

// writeJSON writes one JSON response body. Encode failures (the client
// closed the connection mid-response, typically) are counted and logged —
// nothing more can be sent to the peer at that point, but the drop must
// not be silent.
func (f *FrontEnd) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		f.lost(EncodeErrors, "response encode failed", 0, err)
	}
}

// lost records one session-level failure — a recovered responder panic or
// a response that could not be delivered (session 0 = HTTP).
func (f *FrontEnd) lost(counter, msg string, session uint64, cause any) {
	f.Count(counter, 1)
	if f.Logger != nil {
		f.Logger.Warn(msg, "session", session, "error", cause)
	}
}

// Close is the one teardown, and it runs once: it reports false, having
// done nothing, when the front end was already closed. Admission stops
// first (shutting turns true and the listeners close), then drain — the
// owner's wait for what is still in flight, nil for none — runs, then the
// HTTP servers and the open sessions go. graceful lets the HTTP servers
// deliver their last responses within ctx (a drain); otherwise they are
// cut mid-response like everything else (an abort, kill -9 in-process).
func (f *FrontEnd) Close(ctx context.Context, graceful bool, drain func()) bool {
	f.mu.Lock()
	if f.shutting {
		f.mu.Unlock()
		return false
	}
	f.shutting = true
	listeners := f.listeners
	https := f.https
	f.mu.Unlock()

	for _, ln := range listeners {
		ln.Close()
	}
	if drain != nil {
		drain()
	}
	for _, hs := range https {
		if graceful {
			hs.Shutdown(ctx)
		} else {
			hs.Close()
		}
	}
	// No session registers once shutting is set, so these are the last.
	f.mu.Lock()
	for c := range f.conns {
		c.Close()
	}
	f.mu.Unlock()
	f.accepting.Wait()
	return true
}
