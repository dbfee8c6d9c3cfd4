package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rcnvm/internal/server"
)

// What the router gains by serving through server.FrontEnd instead of a
// hand copy of it. (The panic guarantee is tested once for both owners,
// against the shell itself: server.TestFrontEndPanickingResponder.)

// syncBuffer is a log sink safe to read while the router writes to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRouterLogsUndeliverableResponse: a client that hangs up before the
// router's response is written must leave a line in RouterOptions.Logger,
// not vanish silently.
func TestRouterLogsUndeliverableResponse(t *testing.T) {
	p := startPrimary(t, t.TempDir(), 1)
	release := holdShards(t, p.srv, false)
	var logs syncBuffer
	rt := NewRouter(RouterOptions{
		Primary: Backend{TCP: p.tcp, HTTP: p.http},
		Logger:  slog.New(slog.NewTextHandler(&logs, nil)),
	})
	addr, err := rt.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background())

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte(`{"query":"CREATE TABLE gone (a) CAPACITY 64"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	// RST the connection while the primary is still executing, so the
	// router's response encode hits a dead socket.
	waitUntil(t, 5*time.Second, "the CREATE waiting at the primary", func() bool { return writeWaiting(p.srv) })
	conn.(*net.TCPConn).SetLinger(0)
	conn.Close()
	release()

	waitUntil(t, 5*time.Second, "the undeliverable response to be logged", func() bool {
		return strings.Contains(logs.String(), "response encode failed")
	})
}

// TestRouterOverCapHTTPBody: the router's POST /query refuses a body past
// the protocol's one size cap exactly like a server does — bad_request
// from the MaxBytesReader, counted in route.bad_requests.
func TestRouterOverCapHTTPBody(t *testing.T) {
	rt := NewRouter(RouterOptions{Primary: Backend{TCP: "127.0.0.1:1", HTTP: "127.0.0.1:1"}})
	addr, err := rt.ListenHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background())

	body := `{"query":"` + strings.Repeat("a", 1<<20) + `"}`
	resp, err := http.Post("http://"+addr.String()+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out server.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || out.Error == nil || out.Error.Code != server.CodeBadRequest ||
		!strings.Contains(out.Error.Message, "request body too large") {
		t.Fatalf("over-cap body: status %d, response %+v; want 400 bad_request \"request body too large\"",
			resp.StatusCode, out)
	}
	if got := rt.met.Snapshot()[RouteBadRequests]; got != 1 {
		t.Errorf("%s = %d, want 1", RouteBadRequests, got)
	}
}

// TestRouterLogsEjectionReason: a failure reason is a log field, not a
// series. A replica whose /readyz answers 503 is ejected by the probes,
// and the "replica health changed" line names the status and the body
// the replica sent.
func TestRouterLogsEjectionReason(t *testing.T) {
	notReady := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "replica catch-up", http.StatusServiceUnavailable)
	}))
	defer notReady.Close()
	var logs syncBuffer
	rt := NewRouter(RouterOptions{
		Primary:  Backend{TCP: "127.0.0.1:1", HTTP: "127.0.0.1:1"},
		Replicas: []Backend{{TCP: "127.0.0.1:1", HTTP: strings.TrimPrefix(notReady.URL, "http://")}},
		Logger:   slog.New(slog.NewTextHandler(&logs, nil)),
	})
	defer rt.Shutdown(context.Background())
	want := `msg="replica health changed" backend=` + rt.replicas[0].be.String() + ` healthy=false reason="status 503: replica catch-up"`
	waitUntil(t, 5*time.Second, "the probe-driven ejection to be logged", func() bool {
		return strings.Contains(logs.String(), want)
	})
}
