package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"rcnvm/internal/ecc"
	"rcnvm/internal/engine"
	"rcnvm/internal/fault"
	"rcnvm/internal/shard"
)

// newFaultyServer starts a TCP server whose engine carries a hard
// double-bit error on the salary word of person row 1.
func newFaultyServer(t *testing.T) (*Server, string) {
	t.Helper()
	db, err := engine.Open()
	if err != nil {
		t.Fatal(err)
	}
	s := NewCluster(shard.Wrap(db), Options{})
	addr, err := s.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(testCtx(t)) })

	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustQuery(t, c, "CREATE TABLE person (id, age, salary) CAPACITY 1024")
	mustQuery(t, c, "INSERT INTO person VALUES (1,30,1000),(2,55,2500),(3,41,1800)")

	// Wire the faults after loading so the dataset itself is clean, then
	// pin a hard uncorrectable error on row 1's salary word (word 2).
	db.EnableFaults(fault.Config{Enabled: true, Seed: 42})
	tbl, ok := db.Table("person")
	if !ok {
		t.Fatal("person table missing")
	}
	db.Faults().AddStuck(tbl.CellCoord(1, 2), 2)
	return s, addr.String()
}

// TestUncorrectableErrorEndToEnd is the acceptance-criteria scenario: a
// fixed-seed hard fault propagates engine -> sql -> server -> TCP client
// as a typed, structured error; the server keeps serving; its counters report
// the fault accounting.
func TestUncorrectableErrorEndToEnd(t *testing.T) {
	s, addr := newFaultyServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Queries avoiding the dead word keep working…
	r := mustQuery(t, c, "SELECT SUM(age) FROM person")
	if r.Rows[0][0] != 126 {
		t.Fatalf("sum(age) = %v, want 126", r.Rows[0][0])
	}
	// …while any statement reading it gets the typed memory error.
	_, err = c.Query("SELECT SUM(salary) FROM person")
	var we *WireError
	if !errors.As(err, &we) || we.Code != CodeMemory {
		t.Fatalf("got %v, want WireError code %q", err, CodeMemory)
	}
	if we.Retryable {
		t.Fatal("a stuck-at memory error must not be marked retryable")
	}
	if IsRetryable(we) {
		t.Fatal("IsRetryable must agree with the wire hint")
	}

	// The session and the server survive the memory error.
	r = mustQuery(t, c, "SELECT COUNT(*) FROM person")
	if r.Rows[0][0] != 3 {
		t.Fatalf("count = %v, want 3", r.Rows[0][0])
	}

	snap := s.Stats()
	if snap.Counters[MemoryErrors] != 1 {
		t.Fatalf("memory_errors = %d, want 1", snap.Counters[MemoryErrors])
	}
	if snap.Counters[FaultUncorrectable] == 0 || snap.Counters[FaultStuckBits] == 0 {
		t.Fatalf("fault counters must be merged into the server counters: %v", snap.Counters)
	}
}

// TestMemoryErrorIsTypedThroughResponseErr checks the in-process path
// (Do) carries the same typed code and the sentinel survives errors.Is
// at the sql layer.
func TestMemoryErrorIsTypedThroughResponseErr(t *testing.T) {
	db, err := engine.Open()
	if err != nil {
		t.Fatal(err)
	}
	s := NewCluster(shard.Wrap(db), Options{})
	t.Cleanup(func() { s.Shutdown(testCtx(t)) })
	if r := s.Do(&Request{Query: "CREATE TABLE kv (k, v) CAPACITY 64"}); r.Error != nil {
		t.Fatal(r.Error)
	}
	if r := s.Do(&Request{Query: "INSERT INTO kv VALUES (1,2)"}); r.Error != nil {
		t.Fatal(r.Error)
	}
	db.EnableFaults(fault.Config{Enabled: true, Seed: 3})
	tbl, _ := db.Table("kv")
	db.Faults().AddStuck(tbl.CellCoord(0, 0), 2)

	r := s.Do(&Request{Query: "SELECT SUM(k) FROM kv"})
	if r.Error == nil || r.Error.Code != CodeMemory {
		t.Fatalf("got %+v, want code %q", r.Error, CodeMemory)
	}
	// The Go error chain below the wire still unwraps to the ecc sentinel.
	if _, err := db.Faults().CheckWord(tbl.CellCoord(0, 0), 0, 0); !errors.Is(err, ecc.ErrUncorrectable) {
		t.Fatalf("engine-level error must unwrap to ecc.ErrUncorrectable, got %v", err)
	}
}

// testCtx is a bounded context for shutdown drains in cleanups.
func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// panicLog is a commit log that panics on every append, under the
// statement lock with the mutation already applied.
type panicLog struct{}

func (panicLog) LogStatement(string, bool, bool) (func() error, error) {
	panic("injected LogStatement panic")
}

func (panicLog) LogInsert(string, [][]uint64, []int) (func() error, error) {
	panic("injected LogInsert panic")
}

// setCommitLog installs l on shard 0 of s's cluster under its statement
// lock, so the statements that follow see it.
func setCommitLog(s *Server, l engine.CommitLog) {
	db := s.Cluster().Shard(0)
	db.Lock()
	db.SetCommitLog(l)
	db.Unlock()
}

// TestPanicRecoveredAsInternalError checks a crashing statement comes
// back as a typed internal_error, fires the panics metric, and leaves
// the worker pool and the session intact.
func TestPanicRecoveredAsInternalError(t *testing.T) {
	s, addr := newTestServer(t, Options{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustQuery(t, c, "CREATE TABLE boom (a) CAPACITY 16")

	setCommitLog(s, panicLog{})
	_, err = c.Query("INSERT INTO boom VALUES (1)")
	setCommitLog(s, nil)
	var we *WireError
	if !errors.As(err, &we) || we.Code != CodeInternal {
		t.Fatalf("got %v, want WireError code %q", err, CodeInternal)
	}
	if s.Stats().Counters[Panics] != 1 {
		t.Fatalf("panics = %d, want 1", s.Stats().Counters[Panics])
	}
	// Same session, same worker pool: still serving.
	mustQuery(t, c, "CREATE TABLE t (a) CAPACITY 16")
	mustQuery(t, c, "INSERT INTO t VALUES (5)")
	if r := mustQuery(t, c, "SELECT SUM(a) FROM t"); r.Rows[0][0] != 5 {
		t.Fatalf("sum = %v, want 5", r.Rows[0][0])
	}
}

// TestQueryDeadline checks the per-request timeout: the client gets the
// typed retryable deadline error promptly while the statement finishes
// in the background, and the server (including shutdown drain) stays
// correct.
func TestQueryDeadline(t *testing.T) {
	s, addr := newTestServer(t, Options{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	release := holdShards(s)
	defer release()

	start := time.Now()
	_, err = c.do(Request{Query: "SELECT COUNT(*) FROM missing", TimeoutMs: 40})
	var we *WireError
	if !errors.As(err, &we) || we.Code != CodeTimeout {
		t.Fatalf("got %v, want WireError code %q", err, CodeTimeout)
	}
	if !we.Retryable || !IsRetryable(we) {
		t.Fatal("deadline errors must be retryable")
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("timeout response took %v, want ~40ms", d)
	}
	if s.Stats().Counters[Timeouts] != 1 {
		t.Fatalf("timeouts = %d, want 1", s.Stats().Counters[Timeouts])
	}
	release()
	// The session keeps working after a timeout (responses stay in order
	// because the abandoned statement's response is discarded server-side).
	if _, err := c.Query("CREATE TABLE t (a) CAPACITY 16"); err != nil {
		t.Fatalf("post-timeout query: %v", err)
	}
}

// TestServerDefaultTimeout checks Options.QueryTimeout applies without a
// per-request override.
func TestServerDefaultTimeout(t *testing.T) {
	s, _ := newTestServer(t, Options{QueryTimeout: 40 * time.Millisecond})
	defer holdShards(s)()
	r := s.Do(&Request{Query: "SELECT COUNT(*) FROM missing"})
	if r.Error == nil || r.Error.Code != CodeTimeout {
		t.Fatalf("got %+v, want code %q", r.Error, CodeTimeout)
	}
}

// TestClientDeadlineBreaksSession checks the client-side net.Conn
// deadline: when it fires the session is unusable by construction, and
// the client says so.
func TestClientDeadlineBreaksSession(t *testing.T) {
	s, addr := newTestServer(t, Options{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer holdShards(s)()
	c.SetTimeout(40 * time.Millisecond)

	_, err = c.Query("SELECT COUNT(*) FROM missing")
	var ne interface{ Timeout() bool }
	if err == nil || !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("got %v, want a net timeout error", err)
	}
	if !IsRetryable(err) {
		t.Fatal("client-side timeouts must classify as retryable")
	}
	if !c.Broken() {
		t.Fatal("a mid-exchange deadline must break the session")
	}
	if _, err := c.Query("SELECT 1"); !errors.Is(err, ErrSessionBroken) {
		t.Fatalf("broken session must refuse further use, got %v", err)
	}
}

// TestRetryClientRedialsBrokenSession breaks the transport underneath a
// RetryClient and checks the next query transparently redials.
func TestRetryClientRedialsBrokenSession(t *testing.T) {
	_, addr := newTestServer(t, Options{})
	rc := DialRetry(addr, RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond})
	defer rc.Close()

	if _, err := rc.Query("CREATE TABLE t (a) CAPACITY 16"); err != nil {
		t.Fatal(err)
	}
	// Sever the session out from under the client.
	rc.mu.Lock()
	rc.c.Close()
	rc.mu.Unlock()
	r, err := rc.Query("INSERT INTO t VALUES (9)")
	if err != nil {
		t.Fatalf("retry over a broken session: %v", err)
	}
	if r.Affected != 1 {
		t.Fatalf("affected = %d, want 1", r.Affected)
	}
}

// TestRetryClientStopsOnSemanticError checks non-retryable failures pass
// through on the first attempt.
func TestRetryClientStopsOnSemanticError(t *testing.T) {
	_, addr := newTestServer(t, Options{})
	rc := DialRetry(addr, RetryPolicy{BaseDelay: time.Millisecond})
	defer rc.Close()
	start := time.Now()
	_, err := rc.Query("SELECT nope FROM missing")
	var we *WireError
	if !errors.As(err, &we) || we.Code != CodeSQL {
		t.Fatalf("got %v, want sql_error", err)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("semantic errors must not back off and retry")
	}
}

// TestIsRetryableClassification pins the code table.
func TestIsRetryableClassification(t *testing.T) {
	cases := []struct {
		code string
		want bool
	}{
		{CodeOverloaded, true},
		{CodeTimeout, true},
		{CodeShutdown, false},
		{CodeSQL, false},
		{CodeMemory, false},
		{CodeInternal, false},
		{CodeBadRequest, false},
	}
	for _, tc := range cases {
		err := errResponse(1, tc.code, "x").Err()
		if got := IsRetryable(err); got != tc.want {
			t.Errorf("IsRetryable(%s) = %v, want %v", tc.code, got, tc.want)
		}
	}
	if IsRetryable(nil) {
		t.Error("nil must not be retryable")
	}
}
