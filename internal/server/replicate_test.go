package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"rcnvm/internal/engine"
	"rcnvm/internal/shard"
	"rcnvm/internal/sql"
)

// newHTTPTestServer starts a server with an HTTP front end.
func newHTTPTestServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	db, err := engine.Open()
	if err != nil {
		t.Fatal(err)
	}
	s := NewCluster(shard.Wrap(db), opts)
	addr, err := s.ListenHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Abort() })
	return s, "http://" + addr.String()
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestReadyzVersusHealthz(t *testing.T) {
	s, base := newHTTPTestServer(t, Options{})

	if code, _ := httpGet(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", code)
	}
	if code, _ := httpGet(t, base+"/readyz"); code != http.StatusOK {
		t.Fatalf("ready readyz = %d, want 200", code)
	}

	s.SetNotReady("replica catch-up")
	code, body := httpGet(t, base+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "replica catch-up") {
		t.Fatalf("not-ready readyz = %d %q, want 503 with reason", code, body)
	}
	// Liveness is unaffected: the process is up, just not routable.
	if code, _ := httpGet(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("not-ready healthz = %d, want 200", code)
	}

	s.SetReady()
	if code, _ := httpGet(t, base+"/readyz"); code != http.StatusOK {
		t.Fatalf("re-ready readyz = %d, want 200", code)
	}
}

func TestNotReadyRejectsQueriesRetryably(t *testing.T) {
	s, addr := newTestServer(t, Options{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustQuery(t, c, "CREATE TABLE t (a, b) CAPACITY 64")

	s.SetNotReady("wal recovery")
	_, err = c.Query("SELECT * FROM t")
	var we *WireError
	if !errors.As(err, &we) || we.Code != CodeUnavailable {
		t.Fatalf("not-ready query error = %v, want code %q", err, CodeUnavailable)
	}
	if !we.Retryable || !IsRetryable(err) {
		t.Fatal("not_ready must be retryable — the node becomes ready again")
	}
	if s.Metrics().Counters.Snapshot()[RejectedNotReady] == 0 {
		t.Fatal("rejected_not_ready counter did not fire")
	}

	// The same session works again once ready: the rejection is clean.
	s.SetReady()
	mustQuery(t, c, "SELECT * FROM t")
}

func TestReadOnlyReplicaRejectsMutations(t *testing.T) {
	s, addr := newTestServer(t, Options{ReadOnly: true})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Seed state the way a replica gets it: directly on the cluster, not
	// through the client.
	seed := []string{
		"CREATE TABLE t (a, b) CAPACITY 64",
		"INSERT INTO t VALUES (1, 2)",
	}
	for _, src := range seed {
		if _, err := execOnCluster(s, src); err != nil {
			t.Fatal(err)
		}
	}

	r := mustQuery(t, c, "SELECT * FROM t")
	if len(r.Rows) != 1 {
		t.Fatalf("replica read returned %d rows, want 1", len(r.Rows))
	}

	_, err = c.Query("INSERT INTO t VALUES (3, 4)")
	var we *WireError
	if !errors.As(err, &we) || we.Code != CodeReadOnly {
		t.Fatalf("replica write error = %v, want code %q", err, CodeReadOnly)
	}
	if we.Retryable {
		t.Fatal("read_only_replica must not be retryable against the same node")
	}

	// A batch with one mutation anywhere is rejected whole — a partial
	// batch on a replica would fork its state from the primary's.
	if _, err := c.Batch([]string{"SELECT * FROM t", "DELETE FROM t WHERE a = 1"}); err == nil {
		t.Fatal("mixed batch on replica: want read_only_replica, got success")
	} else if !errors.As(err, &we) || we.Code != CodeReadOnly {
		t.Fatalf("mixed batch error = %v, want code %q", err, CodeReadOnly)
	}
	// All-read-only batches serve normally.
	if _, err := c.Batch([]string{"SELECT * FROM t", "SELECT COUNT(a) FROM t"}); err != nil {
		t.Fatalf("read-only batch on replica: %v", err)
	}

	// Unparseable statements still produce plain sql_error (the replica
	// cannot know they are mutations; the executor rejects them first).
	if _, err := c.Query("FROBNICATE t"); err == nil {
		t.Fatal("want sql error")
	} else if !errors.As(err, &we) || we.Code != CodeSQL {
		t.Fatalf("unparseable on replica = %v, want %q", err, CodeSQL)
	}
}

// TestReadOnlyReplicaServesExplainAnalyzeSelect: an EXPLAIN ANALYZE is the
// statement it executes, so a replica answers one of a SELECT, capture and
// timing included, and still rejects one of an UPDATE as a mutation.
func TestReadOnlyReplicaServesExplainAnalyzeSelect(t *testing.T) {
	s, addr := newTestServer(t, Options{ReadOnly: true})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, src := range []string{"CREATE TABLE t (a, b) CAPACITY 64", "INSERT INTO t VALUES (1, 2), (3, 4)"} {
		if _, err := execOnCluster(s, src); err != nil {
			t.Fatal(err)
		}
	}

	r := mustQuery(t, c, "EXPLAIN ANALYZE SELECT SUM(b) FROM t")
	if !strings.Contains(r.Message, "actual: 2 memory ops") {
		t.Fatalf("replica EXPLAIN ANALYZE SELECT answered %q, want its 2 captured memory ops", r.Message)
	}

	_, err = c.Query("EXPLAIN ANALYZE UPDATE t SET b = 5")
	var we *WireError
	if !errors.As(err, &we) || we.Code != CodeReadOnly {
		t.Fatalf("replica EXPLAIN ANALYZE UPDATE error = %v, want code %q", err, CodeReadOnly)
	}
}

// execOnCluster runs one statement directly on a server's cluster, the
// way the follower's apply path does (bypassing the ReadOnly gate).
func execOnCluster(s *Server, src string) (*sql.Result, error) {
	res, _, err := sql.Execute(s.Cluster(), src, sql.ExecOptions{})
	return res, err
}

func TestChecksumsMatchForIdenticalState(t *testing.T) {
	a, baseA := newHTTPTestServer(t, Options{})
	b, _ := newHTTPTestServer(t, Options{})

	stmts := []string{
		"CREATE TABLE t (a, b, c) CAPACITY 256",
		"INSERT INTO t VALUES (1, 2, 3), (4, 5, 6)",
		"UPDATE t SET c = 9 WHERE a = 1",
	}
	for _, src := range stmts {
		if _, err := execOnCluster(a, src); err != nil {
			t.Fatal(err)
		}
		if _, err := execOnCluster(b, src); err != nil {
			t.Fatal(err)
		}
	}
	ca, cb := a.Checksums(), b.Checksums()
	if len(ca.Shards) != 1 || ca.Shards[0] == "" || strings.HasPrefix(ca.Shards[0], "error") {
		t.Fatalf("checksum payload %+v", ca)
	}
	if ca.Shards[0] != cb.Shards[0] {
		t.Fatalf("identical state hashed differently: %s vs %s", ca.Shards[0], cb.Shards[0])
	}

	// Diverge one side: the hashes must split.
	if _, err := execOnCluster(b, "DELETE FROM t WHERE a = 4"); err != nil {
		t.Fatal(err)
	}
	if a.Checksums().Shards[0] == b.Checksums().Shards[0] {
		t.Fatal("diverged state hashed identically")
	}

	// And the HTTP endpoint serves the same value.
	code, body := httpGet(t, baseA+"/checksum")
	if code != http.StatusOK || !strings.Contains(body, ca.Shards[0]) {
		t.Fatalf("/checksum = %d %q, want 200 containing %s", code, body, ca.Shards[0])
	}
}

func TestRetryBudgetBoundsDeadClusterTime(t *testing.T) {
	// Nothing listens here: every attempt fails at dial. MaxAttempts is
	// generous; MaxElapsed must trip first and bound the wall clock.
	rc := DialRetry("127.0.0.1:1", RetryPolicy{
		MaxAttempts: 1000,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		MaxElapsed:  100 * time.Millisecond,
	})
	defer rc.Close()
	start := time.Now()
	_, err := rc.Query("SELECT 1 FROM t")
	elapsed := time.Since(start)
	if !errors.Is(err, ErrGaveUp) {
		t.Fatalf("dead cluster error = %v, want ErrGaveUp", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("gave up after %v, budget was 100ms", elapsed)
	}
	c := rc.Counters()
	if c[ClientGaveUp] != 1 {
		t.Fatalf("gaveup counter = %d, want 1", c[ClientGaveUp])
	}
	if c[ClientRetries] == 0 {
		t.Fatal("retries counter did not move")
	}

	// Batch obeys the same budget.
	if _, err := rc.Batch([]string{"SELECT 1 FROM t"}); !errors.Is(err, ErrGaveUp) {
		t.Fatalf("dead cluster batch error = %v, want ErrGaveUp", err)
	}
	if got := rc.Counters()[ClientGaveUp]; got != 2 {
		t.Fatalf("gaveup counter = %d, want 2", got)
	}
}

func TestRetryAttemptsBudgetStillBounds(t *testing.T) {
	rc := DialRetry("127.0.0.1:1", RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		MaxDelay:    2 * time.Millisecond,
	})
	defer rc.Close()
	if _, err := rc.Query("SELECT 1 FROM t"); !errors.Is(err, ErrGaveUp) {
		t.Fatalf("error = %v, want ErrGaveUp", err)
	}
	if got := rc.Counters()[ClientRetries]; got != 2 {
		t.Fatalf("retries = %d, want 2 (3 attempts, 2 resends)", got)
	}
}

func TestWALEndpointsVolatile404(t *testing.T) {
	_, base := newHTTPTestServer(t, Options{})
	for _, path := range []string{
		"/wal/state",
		"/wal/read?shard=0&epoch=1&seg=1&off=0",
		"/wal/checkpoint?shard=0",
		"/wal/registry",
	} {
		if code, _ := httpGet(t, base+path); code != http.StatusNotFound {
			t.Errorf("volatile %s = %d, want 404", path, code)
		}
	}
}

func TestAbortDropsSessionsWithoutDrain(t *testing.T) {
	s, addr := newTestServer(t, Options{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustQuery(t, c, "CREATE TABLE t (a) CAPACITY 8")

	s.Abort()
	if _, err := c.Query("SELECT * FROM t"); err == nil {
		t.Fatal("session survived Abort")
	}
	if ok, reason := s.Ready(); ok || reason != "aborted" {
		t.Fatalf("post-abort readiness = %v %q", ok, reason)
	}
	// Redial fails: the listener is gone, like a killed process.
	if _, err := Dial(addr); err == nil {
		t.Fatal("listener survived Abort")
	}
	// A second Abort and a late Shutdown are both no-ops, not panics.
	s.Abort()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown after abort: %v", err)
	}
}
