package server

import (
	"context"
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

// mustDo runs one statement through Server.Do and fails on a wire error.
func mustDo(t testing.TB, s *Server, q string) *Response {
	t.Helper()
	resp := s.Do(&Request{Query: q})
	if resp.Error != nil {
		t.Fatalf("%s: %+v", q, resp.Error)
	}
	return resp
}

// TestAdmissionSlots fills a Workers=2/Queue=3 server with slow
// statements: exactly Workers+Queue are admitted, Workers running and
// Queue waiting for a run slot, which /stats shows as the pool depth; the
// next request is rejected overloaded without waiting; and every admitted
// statement is answered.
func TestAdmissionSlots(t *testing.T) {
	const workers, queue = 2, 3
	s, _ := newTestServer(t, Options{Workers: workers, Queue: queue, ExecDelay: 200 * time.Millisecond})
	mustDo(t, s, "CREATE TABLE a (x)")

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
	s, _ := newTestServer(t, Options{Workers: 2, Queue: 16, ExecDelay: 30 * time.Millisecond})
	mustDo(t, s, "CREATE TABLE d (x)")

	answers := make(chan *Response, n)
	for i := 0; i < n; i++ {
		go func() { answers <- s.Do(&Request{Query: "SELECT COUNT(*) FROM d"}) }()
	}
	waitFor(t, "every statement admitted", func() bool { return s.admitted.Load() == n })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
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
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestDeadlineWhileWaitingForRunSlot: a statement whose deadline passes
// while it waits for the only run slot is answered timeout on time, still
// runs once the slot frees, and the shutdown drain waits for it.
func TestDeadlineWhileWaitingForRunSlot(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1, Queue: 1, ExecDelay: 300 * time.Millisecond})
	mustDo(t, s, "CREATE TABLE w (x)")

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

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
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
