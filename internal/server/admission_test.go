package server

import (
	"sync"
	"testing"
	"time"
)

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// holdShards takes the statement lock of every shard of s's cluster: a
// statement that needs a shard and is sent after it stays in flight,
// holding its admission and run slots, until release. release may be
// called more than once.
func holdShards(s *Server) (release func()) {
	c := s.Cluster()
	for i := 0; i < c.N(); i++ {
		c.Shard(i).Lock()
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			for i := c.N() - 1; i >= 0; i-- {
				c.Shard(i).Unlock()
			}
		})
	}
}

// shutdownReleasing shuts s down while its shards are held: it calls
// release once the drain has begun, checks the drain has not finished
// before that, and returns Shutdown's error.
func shutdownReleasing(t *testing.T, s *Server, release func()) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(testCtx(t)) }()
	waitFor(t, "the drain to begin", func() bool {
		s.front.mu.Lock()
		defer s.front.mu.Unlock()
		return s.front.shutting
	})
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned (%v) with statements held in flight", err)
	default:
	}
	release()
	return <-done
}

// mustDo runs one statement through Server.Do and fails on a wire error.
func mustDo(t testing.TB, s *Server, q string) *Response {
	t.Helper()
	resp := s.Do(&Request{Query: q})
	if resp.Error != nil {
		t.Fatalf("%s: %+v", q, resp.Error)
	}
	return resp
}

// TestAdmissionSlots fills a Workers=2/Queue=3 server with statements
// held at their shard lock: exactly Workers+Queue are admitted, Workers
// running and Queue waiting for a run slot, which Stats shows as the
// pool depth; the next request is rejected overloaded without waiting;
// and every admitted statement is answered.
func TestAdmissionSlots(t *testing.T) {
	const workers, queue = 2, 3
	s, _ := newTestServer(t, Options{Workers: workers, Queue: queue})
	mustDo(t, s, "CREATE TABLE a (x)")
	release := holdShards(s)
	defer release()

	answers := make(chan *Response, workers+queue)
	for i := 0; i < workers+queue; i++ {
		go func() { answers <- s.Do(&Request{Query: "SELECT COUNT(*) FROM a"}) }()
	}
	waitFor(t, "every slot taken", func() bool {
		return s.admitted.Load() == workers+queue && len(s.running) == workers
	})
	if p := s.Stats().Pool; p.Depth != queue || p.Workers != workers || p.Capacity != queue {
		t.Fatalf("pool = %+v, want depth %d of capacity %d, %d workers", p, queue, queue, workers)
	}

	start := time.Now()
	resp := s.Do(&Request{Query: "SELECT COUNT(*) FROM a"})
	if resp.Error == nil || resp.Error.Code != CodeOverloaded {
		t.Fatalf("request past Workers+Queue: %+v, want %s", resp.Error, CodeOverloaded)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("overloaded reply took %v: admission must not wait", d)
	}
	if got := s.Metrics().Counters.Snapshot()[Rejected]; got != 1 {
		t.Fatalf("%s = %d, want 1", Rejected, got)
	}

	release()
	for i := 0; i < workers+queue; i++ {
		if r := <-answers; r.Error != nil || len(r.Rows) != 1 {
			t.Fatalf("admitted statement %d: %+v", i, r)
		}
	}
	if p := s.Stats().Pool; p.Depth != 0 {
		t.Fatalf("pool depth = %d after every statement answered, want 0", p.Depth)
	}
}

// TestShutdownDrainsAdmitted checks that Shutdown returns only after every
// admitted statement, running or still waiting for a run slot, has run,
// and that later requests get the shutdown code.
func TestShutdownDrainsAdmitted(t *testing.T) {
	const n = 10
	s, _ := newTestServer(t, Options{Workers: 2, Queue: 16})
	mustDo(t, s, "CREATE TABLE d (x)")
	release := holdShards(s)
	defer release()

	answers := make(chan *Response, n)
	for i := 0; i < n; i++ {
		go func() { answers <- s.Do(&Request{Query: "SELECT COUNT(*) FROM d"}) }()
	}
	waitFor(t, "every statement admitted", func() bool { return s.admitted.Load() == n })

	if err := shutdownReleasing(t, s, release); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := s.Stats().Counters[Queries]; got != n+1 {
		t.Fatalf("%s = %d when Shutdown returned, want %d", Queries, got, n+1)
	}
	for i := 0; i < n; i++ {
		if r := <-answers; r.Error != nil {
			t.Fatalf("admitted statement %d: %+v", i, r.Error)
		}
	}
	if r := s.Do(&Request{Query: "SELECT COUNT(*) FROM d"}); r.Error == nil || r.Error.Code != CodeShutdown {
		t.Fatalf("after shutdown: %+v, want %s", r.Error, CodeShutdown)
	}
	if err := s.Shutdown(testCtx(t)); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestDeadlineWhileWaitingForRunSlot: a statement whose deadline passes
// while it waits for the only run slot is answered timeout on time, still
// runs once the slot frees, and the shutdown drain waits for it.
func TestDeadlineWhileWaitingForRunSlot(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1, Queue: 1})
	mustDo(t, s, "CREATE TABLE w (x)")
	release := holdShards(s)
	defer release()

	first := make(chan *Response, 1)
	go func() { first <- s.Do(&Request{Query: "SELECT COUNT(*) FROM w"}) }()
	waitFor(t, "the run slot taken", func() bool { return len(s.running) == 1 })

	start := time.Now()
	resp := s.Do(&Request{Query: "INSERT INTO w VALUES (1)", TimeoutMs: 40})
	if resp.Error == nil || resp.Error.Code != CodeTimeout {
		t.Fatalf("got %+v, want %s", resp.Error, CodeTimeout)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("timeout reply took %v, want ~40ms", d)
	}
	if d := s.Stats().Pool.Depth; d != 1 {
		t.Fatalf("pool depth = %d at the deadline, want 1 (the INSERT still waiting)", d)
	}

	if err := shutdownReleasing(t, s, release); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if r := <-first; r.Error != nil {
		t.Fatalf("statement holding the run slot: %+v", r.Error)
	}
	res, err := execOnCluster(s, "SELECT COUNT(*) FROM w")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != 1 {
		t.Fatalf("rows after the drain = %d, want 1: the timed-out INSERT must still run", res.Rows[0][0])
	}
	if got := s.Stats().Counters[Timeouts]; got != 1 {
		t.Fatalf("%s = %d, want 1", Timeouts, got)
	}
}
