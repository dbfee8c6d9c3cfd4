package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rcnvm/internal/server"
)

func TestParseBackendSpecs(t *testing.T) {
	b, err := ParseBackend("127.0.0.1:7070@127.0.0.1:8080")
	if err != nil {
		t.Fatal(err)
	}
	if b.TCP != "127.0.0.1:7070" || b.HTTP != "127.0.0.1:8080" {
		t.Fatalf("parsed %+v", b)
	}
	if b.String() != "127.0.0.1:7070@127.0.0.1:8080" {
		t.Fatalf("round trip: %s", b.String())
	}
	for _, bad := range []string{"", "no-separator", "@http", "tcp@"} {
		if _, err := ParseBackend(bad); err == nil {
			t.Errorf("ParseBackend(%q) accepted", bad)
		}
	}
	list, err := ParseBackends(" a:1@b:2, c:3@d:4 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].TCP != "a:1" || list[1].HTTP != "d:4" {
		t.Fatalf("parsed list %+v", list)
	}
	if list, err := ParseBackends("  "); err != nil || list != nil {
		t.Fatalf("empty spec: %v %v", list, err)
	}
}

func counterOf(s *server.Server, name string) int64 {
	return s.Stats().Counters[name]
}

// TestReadsLoadBalanceWritesHitPrimary drives the full topology: writes
// through the router land only on the primary (the replicas would refuse
// them), reads spread across both replicas and never touch the primary
// while replicas are healthy.
func TestReadsLoadBalanceWritesHitPrimary(t *testing.T) {
	p := startPrimary(t, t.TempDir(), 2)
	r1 := startReplica(t, p.http, 2)
	r2 := startReplica(t, p.http, 2)
	rt, addr := startRouter(t, p, r1, r2)

	seed(t, addr, 64) // all writes, forwarded to the primary
	waitConverged(t, p, r1)
	waitConverged(t, p, r2)
	waitUntil(t, 10*time.Second, "both replicas in rotation", func() bool { return rt.Healthy() == 2 })

	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	primaryBase := counterOf(p.srv, server.Queries)
	const reads = 10
	for i := 0; i < reads; i++ {
		resp := mustQuery(t, c, "SELECT COUNT(*) FROM kv")
		if len(resp.Rows) != 1 || resp.Rows[0][0] != 64 {
			t.Fatalf("read %d: wrong result %+v", i, resp.Rows)
		}
	}
	if got := counterOf(p.srv, server.Queries); got != primaryBase {
		t.Errorf("primary served %d reads; replicas should have taken all of them", got-primaryBase)
	}
	g1, g2 := counterOf(r1.srv, server.Queries), counterOf(r2.srv, server.Queries)
	if g1+g2 != reads {
		t.Errorf("replicas served %d+%d reads, want %d total", g1, g2, reads)
	}
	if g1 == 0 || g2 == 0 {
		t.Errorf("round robin did not spread: %d vs %d", g1, g2)
	}
	st := rt.met.Snapshot()
	if st[RouteReads] != reads {
		t.Errorf("route.reads = %d, want %d", st[RouteReads], reads)
	}
	if st[RouteWrites] == 0 {
		t.Error("route.writes = 0 after seeding through the router")
	}
}

// TestRouterNeverSelectsNotReadyReplica is the readiness acceptance
// test: a replica that reports not-ready is ejected and receives zero
// requests — not even rejected ones — while reads keep succeeding; when
// it turns ready again it rejoins the rotation.
func TestRouterNeverSelectsNotReadyReplica(t *testing.T) {
	p := startPrimary(t, t.TempDir(), 2)
	r1 := startReplica(t, p.http, 2)
	r2 := startReplica(t, p.http, 2)
	rt, addr := startRouter(t, p, r1, r2)

	seed(t, addr, 16)
	waitConverged(t, p, r1)
	waitConverged(t, p, r2)
	waitUntil(t, 10*time.Second, "both replicas in rotation", func() bool { return rt.Healthy() == 2 })

	// Flip r1 not-ready (what WAL recovery, catch-up, and drain do) and
	// wait for the health checker to eject it.
	r1.srv.SetNotReady("test: simulated catch-up")
	waitUntil(t, 10*time.Second, "not-ready replica ejected", func() bool { return rt.Healthy() == 1 })

	queriesBefore := counterOf(r1.srv, server.Queries)
	rejectedBefore := counterOf(r1.srv, server.RejectedNotReady)

	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 20; i++ {
		mustQuery(t, c, "SELECT COUNT(*) FROM kv")
	}
	if got := counterOf(r1.srv, server.Queries); got != queriesBefore {
		t.Errorf("not-ready replica executed %d statements", got-queriesBefore)
	}
	if got := counterOf(r1.srv, server.RejectedNotReady); got != rejectedBefore {
		t.Errorf("router sent %d requests to an ejected replica", got-rejectedBefore)
	}

	// Recovery: ready again -> re-admitted -> serving reads again.
	r1.srv.SetReady()
	waitUntil(t, 10*time.Second, "replica re-admitted", func() bool { return rt.Healthy() == 2 })
	waitUntil(t, 10*time.Second, "re-admitted replica serving reads", func() bool {
		mustQuery(t, c, "SELECT COUNT(*) FROM kv")
		return counterOf(r1.srv, server.Queries) > queriesBefore
	})
	st := rt.met.Snapshot()
	if st[RouteEjections] == 0 || st[RouteReadmissions] == 0 {
		t.Errorf("ejection/readmission counters not incremented: %+v", st)
	}
}

// TestReadFailsOverWhenReplicaDiesMidQuery kills the only replica while
// it is executing a forwarded read; the router must resend the read to
// the primary and the client must see a normal success.
func TestReadFailsOverWhenReplicaDiesMidQuery(t *testing.T) {
	p := startPrimary(t, t.TempDir(), 2)
	rep := startReplica(t, p.http, 2)
	rt, addr := startRouter(t, p, rep)

	seed(t, addr, 16)
	waitConverged(t, p, rep)
	waitUntil(t, 10*time.Second, "replica in rotation", func() bool { return rt.Healthy() == 1 })

	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The read waits at the replica's held lock; the replica dies once the
	// router's session to it is open.
	holdShards(t, rep.srv, true)
	opened := counterOf(rep.srv, server.SessionsOpened)
	runWhen(func() bool { return counterOf(rep.srv, server.SessionsOpened) > opened }, rep.kill)
	resp := mustQuery(t, c, "SELECT COUNT(*) FROM kv") // lands on the held replica, finishes on the primary
	if len(resp.Rows) != 1 || resp.Rows[0][0] != 16 {
		t.Fatalf("failover read returned %+v", resp.Rows)
	}
	if got := rt.met.Snapshot()[RouteReadFailovers]; got == 0 {
		t.Error("route.read_failovers = 0; the read was not failed over")
	}
}

// TestWriteFailsFastWhenPrimaryUnreachable: with the primary dead, a
// write through the router returns the typed retryable primary_unavailable
// quickly (bounded by the dial timeout, not a hang), while reads keep
// being served by the caught-up replica.
func TestWriteFailsFastWhenPrimaryUnreachable(t *testing.T) {
	p := startPrimary(t, t.TempDir(), 2)
	rep := startReplica(t, p.http, 2)
	rt, addr := startRouter(t, p, rep)

	seed(t, addr, 16)
	waitConverged(t, p, rep)
	waitUntil(t, 10*time.Second, "replica in rotation", func() bool { return rt.Healthy() == 1 })

	p.srv.Abort()

	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	_, qerr := c.Query("INSERT INTO kv VALUES (99, 0, 990)")
	elapsed := time.Since(start)
	var we *server.WireError
	if !errors.As(qerr, &we) || we.Code != server.CodePrimaryDown {
		t.Fatalf("write on dead primary: err %v, want code %s", qerr, server.CodePrimaryDown)
	}
	if !we.Retryable {
		t.Error("primary_unavailable must be retryable: the write never executed")
	}
	if elapsed > 2*time.Second {
		t.Errorf("fail-fast took %v", elapsed)
	}

	// Async replicas outlive their primary: stale-but-consistent reads.
	resp := mustQuery(t, c, "SELECT COUNT(*) FROM kv")
	if len(resp.Rows) != 1 || resp.Rows[0][0] != 16 {
		t.Fatalf("read with dead primary returned %+v", resp.Rows)
	}
	if got := rt.met.Snapshot()[RoutePrimaryDown]; got == 0 {
		t.Error("route.primary_down = 0")
	}
}

// TestWriteBrokenMidExchangeIsUnknownState kills the primary while it is
// executing a forwarded write: the router must NOT resend (the write may
// have committed) and must return the non-retryable unknown_state code.
func TestWriteBrokenMidExchangeIsUnknownState(t *testing.T) {
	p := startPrimary(t, t.TempDir(), 2)
	rt, addr := startRouter(t, p)

	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustQuery(t, c, "CREATE TABLE t (a) CAPACITY 8")

	// The INSERT waits at the primary's held lock until the primary dies.
	holdShards(t, p.srv, false)
	runWhen(func() bool { return writeWaiting(p.srv) }, p.srv.Abort)
	_, qerr := c.Query("INSERT INTO t VALUES (1)")
	var we *server.WireError
	if !errors.As(qerr, &we) || we.Code != server.CodeUnknownState {
		t.Fatalf("write broken mid-exchange: err %v, want code %s", qerr, server.CodeUnknownState)
	}
	if we.Retryable {
		t.Error("unknown_state must not be retryable")
	}
	if got := rt.met.Snapshot()[RouteUnknownState]; got == 0 {
		t.Error("route.unknown_state = 0")
	}
}

// TestRetryClientBatchFailover is the batch-failover satellite: a replica
// dies mid-batch and the read-only batch lands, transparently and
// byte-identically, on the healthy replica; a mixed batch is not resent
// and surfaces the typed unknown-state error instead.
func TestRetryClientBatchFailover(t *testing.T) {
	p := startPrimary(t, t.TempDir(), 2)
	fast := startReplica(t, p.http, 2)
	held := startReplica(t, p.http, 2)
	// Replica order matters: the router's round-robin cursor starts so
	// that the first read goes to replicas[1] — the held one we kill.
	rt, addr := startRouter(t, p, fast, held)

	seed(t, addr, 32)
	waitConverged(t, p, fast)
	waitConverged(t, p, held)
	waitUntil(t, 10*time.Second, "both replicas in rotation", func() bool { return rt.Healthy() == 2 })

	stmts := []string{
		"SELECT COUNT(*) FROM kv",
		"SELECT SUM(val) FROM kv",
		"SELECT * FROM kv WHERE k = 7",
	}

	// Baseline: the same batch executed directly on the healthy replica.
	direct, err := server.Dial(fast.tcp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Batch(stmts)
	direct.Close()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)

	rc := server.DialRetry(addr, server.RetryPolicy{MaxAttempts: 4})
	defer rc.Close()

	holdShards(t, held.srv, true)
	opened := counterOf(held.srv, server.SessionsOpened)
	runWhen(func() bool { return counterOf(held.srv, server.SessionsOpened) > opened }, held.kill)
	got, err := rc.Batch(stmts) // first read request -> held replica -> dies -> failover
	if err != nil {
		t.Fatalf("read-only batch must be masked, got %v", err)
	}
	gotJSON, _ := json.Marshal(got)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("failover batch result diverged:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	if n := rc.Counters()[server.ClientGaveUp]; n != 0 {
		t.Errorf("client.gaveup = %d", n)
	}
	if got := rt.met.Snapshot()[RouteReadFailovers]; got == 0 {
		t.Error("route.read_failovers = 0; batch was not failed over")
	}

	// Mixed batch: kill the primary mid-exchange. Not resent; typed error.
	// A batch is one request, and it waits at the primary's held lock
	// until the primary dies.
	retriesBefore := rc.Counters()[server.ClientRetries]
	holdShards(t, p.srv, false)
	runWhen(func() bool { return writeWaiting(p.srv) }, p.srv.Abort)
	mixed := []string{"SELECT COUNT(*) FROM kv", "INSERT INTO kv VALUES (500, 0, 5000)"}
	waitUntil(t, 10*time.Second, "mixed batch failing with unknown_state or primary_down", func() bool {
		_, berr := rc.Batch(mixed)
		if berr == nil {
			return false // primary still alive: batch executed; try again
		}
		var we *server.WireError
		if errors.As(berr, &we) && we.Code == server.CodeUnknownState {
			return true
		}
		// After the break, subsequent attempts dial-fail: primary_down is
		// the steady state, also acceptable evidence the write was refused.
		return errors.As(berr, &we) && we.Code == server.CodePrimaryDown
	})
	if got := rc.Counters()[server.ClientRetries]; got != retriesBefore {
		t.Errorf("mixed batch was resent %d times; writes must never be", got-retriesBefore)
	}
}

// TestRetryClientBatchDirectUnknownState covers the client-level variant:
// with no router in between, a mixed batch whose session breaks
// mid-exchange must return ErrUnknownState rather than resend.
func TestRetryClientBatchDirectUnknownState(t *testing.T) {
	p := startPrimary(t, t.TempDir(), 1)
	c, err := server.Dial(p.tcp)
	if err != nil {
		t.Fatal(err)
	}
	mustQuery(t, c, "CREATE TABLE t (a) CAPACITY 8")
	c.Close()

	rc := server.DialRetry(p.tcp, server.RetryPolicy{MaxAttempts: 4})
	defer rc.Close()
	holdShards(t, p.srv, false)
	runWhen(func() bool { return writeWaiting(p.srv) }, p.srv.Abort)
	_, berr := rc.Batch([]string{"SELECT * FROM t", "INSERT INTO t VALUES (1)"})
	if !errors.Is(berr, server.ErrUnknownState) {
		t.Fatalf("mixed batch on broken session: %v, want ErrUnknownState", berr)
	}
	if n := rc.Counters()[server.ClientRetries]; n != 0 {
		t.Errorf("client.retries = %d; a write-bearing batch must not be resent", n)
	}
}

// TestFollowerResyncsAcrossCheckpointEpoch: a primary checkpoint rotates
// the WAL epoch and sweeps the old segments; a streaming follower must
// detect it, re-bootstrap from the new checkpoint, and converge again.
func TestFollowerResyncsAcrossCheckpointEpoch(t *testing.T) {
	p := startPrimary(t, t.TempDir(), 2)
	rep := startReplica(t, p.http, 2)

	seed(t, p.tcp, 32)
	waitConverged(t, p, rep)

	if err := p.store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c, err := server.Dial(p.tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustQuery(t, c, "INSERT INTO kv VALUES (200, 1, 2000)")
	mustQuery(t, c, "DELETE FROM kv WHERE k = 3")

	waitConverged(t, p, rep)
	epoch, _, caught := rep.fol.Status()
	if epoch < 2 {
		t.Errorf("follower still on epoch %d after checkpoint", epoch)
	}
	if !caught {
		t.Error("follower not caught up after re-sync")
	}
	resp := mustQuery(t, c, "SELECT COUNT(*) FROM kv")
	want := resp.Rows[0][0]
	rc, err := server.Dial(rep.tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	got := mustQuery(t, rc, "SELECT COUNT(*) FROM kv").Rows[0][0]
	if got != want {
		t.Errorf("replica count %d, primary %d", got, want)
	}
}

// silentBackend listens on TCP, accepts every connection and never
// answers on it: a backend that hangs mid-exchange. Its HTTP side
// answers /readyz 200, so the health checker keeps it in rotation.
func silentBackend(t *testing.T) Backend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	ready := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		ready.Close()
	})
	return Backend{TCP: ln.Addr().String(), HTTP: strings.TrimPrefix(ready.URL, "http://")}
}

// TestSilentBackendTimesOut checks the bound on a backend exchange: a
// write with timeout_ms to a primary that accepts and never answers gets
// unknown_state within about a second, and a read with timeout_ms to such
// a replica fails over to the primary.
func TestSilentBackendTimesOut(t *testing.T) {
	rt := NewRouter(RouterOptions{Primary: silentBackend(t)})
	addr, err := rt.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Shutdown(context.Background()) })
	c, err := server.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, qerr := c.Do(server.Request{Query: "INSERT INTO kv VALUES (1, 0, 10)", TimeoutMs: 100})
	elapsed := time.Since(start)
	var we *server.WireError
	if !errors.As(qerr, &we) || we.Code != server.CodeUnknownState {
		t.Fatalf("write to a silent primary: err %v, want code %s", qerr, server.CodeUnknownState)
	}
	if elapsed > 1500*time.Millisecond {
		t.Errorf("write to a silent primary answered after %v, want about a second at most", elapsed)
	}
	if got := rt.met.Snapshot()[RouteUnknownState]; got != 1 {
		t.Errorf("route.unknown_state = %d, want 1", got)
	}

	p := startPrimary(t, t.TempDir(), 1)
	seed(t, p.tcp, 4)
	rt2 := NewRouter(RouterOptions{Primary: Backend{TCP: p.tcp, HTTP: p.http}, Replicas: []Backend{silentBackend(t)}})
	addr2, err := rt2.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt2.Shutdown(context.Background()) })
	c2, err := server.Dial(addr2.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	resp, err := c2.Do(server.Request{Query: "SELECT COUNT(*) FROM kv", TimeoutMs: 100})
	if err != nil || len(resp.Rows) != 1 || resp.Rows[0][0] != 4 {
		t.Fatalf("read past a silent replica: %+v, %v; want the primary's 4 rows", resp, err)
	}
	if st := rt2.met.Snapshot(); st[RouteReadFailovers] != 1 || st[RouteEjections] != 1 {
		t.Errorf("read past a silent replica: failovers %d, ejections %d; want 1 and 1", st[RouteReadFailovers], st[RouteEjections])
	}
}
