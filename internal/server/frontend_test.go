package server

import (
	"bufio"
	"context"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"rcnvm/internal/stats"
)

// TestFrontEndPanickingResponder drives the shared shell with a responder
// that panics on one statement, so one test covers every owner (Server and
// cluster.Router): over TCP the panic costs exactly that session, over
// HTTP it comes back as a typed internal_error, and in both cases the
// process and the sessions next to it live on.
func TestFrontEndPanickingResponder(t *testing.T) {
	set := stats.NewCounters(&Family)
	closed := make(chan struct{}, 8)
	f := &FrontEnd{
		Open: func() (Responder, func()) {
			respond := func(req *Request) (*Response, func()) {
				if req.Query == "boom" {
					panic("responder blew up")
				}
				return &Response{ID: req.ID, Message: "ok"}, nil
			}
			return respond, func() { closed <- struct{}{} }
		},
		Count: set.Add,
	}
	tcp, err := f.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpAddr, err := f.ListenHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(context.Background(), false, nil)

	bystander, err := Dial(tcp.String())
	if err != nil {
		t.Fatal(err)
	}
	defer bystander.Close()
	if _, err := bystander.Query("fine"); err != nil {
		t.Fatalf("bystander before the panic: %v", err)
	}

	victim, err := net.Dial("tcp", tcp.String())
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	if _, err := victim.Write([]byte(`{"id":1,"query":"boom"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	victim.SetReadDeadline(time.Now().Add(5 * time.Second))
	if line, err := bufio.NewReader(victim).ReadString('\n'); err == nil {
		t.Fatalf("panicked session answered %q, want the connection dropped", line)
	}
	select {
	case <-closed: // the panicked session still ran its close hook
	case <-time.After(5 * time.Second):
		t.Fatal("panicked session never closed")
	}

	resp, err := http.Post("http://"+httpAddr.String()+"/query", "application/json",
		strings.NewReader(`{"id":7,"query":"boom"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("HTTP panic response is not a wire response: %v", err)
	}
	if resp.StatusCode != http.StatusInternalServerError || out.Error == nil ||
		out.Error.Code != CodeInternal || out.ID != 7 {
		t.Fatalf("HTTP panic: status %d, response %+v; want 500 internal_error id 7", resp.StatusCode, out)
	}

	if _, err := bystander.Query("still fine"); err != nil {
		t.Fatalf("bystander after the panics: %v", err)
	}
	if got := set.Snapshot()[Panics]; got != 2 {
		t.Errorf("panics counted = %d, want 2 (one TCP, one HTTP)", got)
	}
}

// TestOverCapHTTPBody: a POST /query body past maxLineBytes is refused as
// bad_request by the MaxBytesReader, not truncated and mis-parsed.
func TestOverCapHTTPBody(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	addr, err := s.ListenHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	body := `{"query":"` + strings.Repeat("a", maxLineBytes) + `"}`
	resp, err := http.Post("http://"+addr.String()+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || out.Error == nil || out.Error.Code != CodeBadRequest ||
		!strings.Contains(out.Error.Message, "request body too large") {
		t.Fatalf("over-cap body: status %d, response %+v; want 400 bad_request \"request body too large\"",
			resp.StatusCode, out)
	}
	if got := s.Metrics().Counters.Snapshot()[BadRequests]; got != 1 {
		t.Errorf("%s = %d, want 1", BadRequests, got)
	}
}

// TestHTTPHeaderTimeout: a connection that starts a request and never
// finishes its headers is closed once readHeaderTimeout passes, instead
// of being held open for good.
func TestHTTPHeaderTimeout(t *testing.T) {
	t.Parallel()
	s, _ := newTestServer(t, Options{})
	addr, err := s.ListenHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := io.WriteString(c, "POST /query HTTP/1.1\r\nHost: localhost\r\n"); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(start.Add(readHeaderTimeout + 2*time.Second))
	if _, err := io.ReadAll(c); err != nil {
		t.Fatalf("connection with unfinished headers still open after %v: %v", time.Since(start), err)
	}
	if d := time.Since(start); d > readHeaderTimeout+time.Second {
		t.Errorf("connection with unfinished headers closed after %v, want about %v", d, readHeaderTimeout)
	}
}

// TestOverCapTCPLine: the longest line the TCP front end can take is
// answered; one byte more is refused the way POST /query refuses an
// over-cap body — one typed bad_request naming the limit, counted — and
// costs that session only.
func TestOverCapTCPLine(t *testing.T) {
	s, addr := newTestServer(t, Options{})
	bystander, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bystander.Close()
	mustQuery(t, bystander, "CREATE TABLE t (a) CAPACITY 8")

	// request is a valid request line of exactly n bytes before its newline.
	request := func(n int) []byte {
		const head, tail = `{"id":3,"query":"SELECT COUNT(*) FROM t"`, "}\n"
		return []byte(head + strings.Repeat(" ", n-len(head)-1) + tail)
	}
	exchange := func(line []byte) (*bufio.Reader, Response) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Write(line); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(conn)
		var out Response
		reply, err := r.ReadBytes('\n')
		if err != nil {
			t.Fatalf("%d-byte line: session ended with no reply: %v", len(line)-1, err)
		}
		if err := json.Unmarshal(reply, &out); err != nil {
			t.Fatal(err)
		}
		return r, out
	}

	if _, out := exchange(request(maxLineBytes - 1)); out.Error != nil || out.ID != 3 || len(out.Rows) != 1 {
		t.Fatalf("line of maxLineBytes-1: %+v, want the COUNT answered", out)
	}
	if got := s.Metrics().Counters.Snapshot()[BadRequests]; got != 0 {
		t.Fatalf("%s = %d after an in-cap line", BadRequests, got)
	}

	r, out := exchange(request(maxLineBytes))
	if out.Error == nil || out.Error.Code != CodeBadRequest || !strings.Contains(out.Error.Message, "1048576") {
		t.Fatalf("line of maxLineBytes: %+v, want bad_request naming the 1048576-byte limit", out)
	}
	if extra, err := r.ReadBytes('\n'); err == nil {
		t.Fatalf("session stayed open after the refusal and sent %q", extra)
	}
	if got := s.Metrics().Counters.Snapshot()[BadRequests]; got != 1 {
		t.Errorf("%s = %d, want 1", BadRequests, got)
	}
	mustQuery(t, bystander, "SELECT COUNT(*) FROM t")
}

// TestHTTPStatusTable pins the one wire-code → HTTP-status mapping. Every
// Code* constant protocol.go declares must have a row here, so a new code
// forces a decision about its status.
func TestHTTPStatusTable(t *testing.T) {
	want := map[string]int{
		CodeOverloaded:   http.StatusServiceUnavailable,
		CodeShutdown:     http.StatusServiceUnavailable,
		CodeUnavailable:  http.StatusServiceUnavailable,
		CodePrimaryDown:  http.StatusServiceUnavailable,
		CodeTimeout:      http.StatusGatewayTimeout,
		CodeMemory:       http.StatusInternalServerError,
		CodeInternal:     http.StatusInternalServerError,
		CodeUnknownState: http.StatusInternalServerError,
		CodeReadOnly:     http.StatusForbidden,
		CodeBadRequest:   http.StatusBadRequest,
		CodeSQL:          http.StatusBadRequest,
	}
	for code, status := range want {
		if got := httpStatus(code); got != status {
			t.Errorf("httpStatus(%q) = %d, want %d", code, got, status)
		}
	}
	if got := httpStatus("a_code_nobody_declared"); got != http.StatusBadRequest {
		t.Errorf("unlisted code maps to %d, want 400", got)
	}

	file, err := parser.ParseFile(token.NewFileSet(), "protocol.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for i, name := range spec.Names {
			if !strings.HasPrefix(name.Name, "Code") || i >= len(spec.Values) {
				continue
			}
			lit, ok := spec.Values[i].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				continue
			}
			declared++
			if _, ok := want[strings.Trim(lit.Value, `"`)]; !ok {
				t.Errorf("%s = %s has no row in the status table test", name.Name, lit.Value)
			}
		}
		return true
	})
	if declared != len(want) {
		t.Errorf("protocol.go declares %d Code* constants, the table has %d rows", declared, len(want))
	}
}

// TestFrontEndClosesOnce: the teardown all three callers share
// (Server.Shutdown, Server.Abort, Router.Shutdown) runs exactly once, and
// a closed front end refuses new listeners.
func TestFrontEndClosesOnce(t *testing.T) {
	f := &FrontEnd{
		Open: func() (Responder, func()) {
			return func(req *Request) (*Response, func()) { return &Response{ID: req.ID}, nil }, nil
		},
		Count: func(string, int64) {},
	}
	if _, err := f.ListenTCP("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	drains := 0
	for i := 0; i < 2; i++ {
		if did := f.Close(context.Background(), i == 0, func() { drains++ }); did != (i == 0) {
			t.Fatalf("Close #%d reported %v", i+1, did)
		}
	}
	if drains != 1 {
		t.Fatalf("drain ran %d times, want 1", drains)
	}
	if _, err := f.ListenTCP("127.0.0.1:0"); err != ErrShuttingDown {
		t.Fatalf("ListenTCP after Close: %v, want ErrShuttingDown", err)
	}
	if _, err := f.ListenHTTP("127.0.0.1:0"); err != ErrShuttingDown {
		t.Fatalf("ListenHTTP after Close: %v, want ErrShuttingDown", err)
	}
}
