package cluster

import (
	"sync"
	"testing"
	"time"

	"rcnvm/internal/server"
)

// kill is the in-process stand-in for kill -9 on the primary: no drain,
// no checkpoint. With SyncAlways every acknowledged write is already on
// disk, so what a restart recovers is exactly what clients were told
// happened.
func (p *testPrimary) kill() {
	p.srv.Abort()
	p.store.Close()
}

// TestChaosReplicaKillMidLoadIsMasked is the chaos harness acceptance
// test: a read-only workload runs through the router via RetryClient
// while one replica is killed without warning. The client must observe
// ZERO errors. The replica then restarts on the same addresses, catches
// up, re-enters rotation, and converges byte-identically.
func TestChaosReplicaKillMidLoadIsMasked(t *testing.T) {
	p := startPrimary(t, t.TempDir(), 2)
	r1 := startReplica(t, p.http, 2)
	r2 := startReplica(t, p.http, 2)
	rt, addr := startRouter(t, p, r1, r2)

	seed(t, addr, 48)
	waitConverged(t, p, r1)
	waitConverged(t, p, r2)
	waitUntil(t, 10*time.Second, "both replicas in rotation", func() bool { return rt.Healthy() == 2 })

	// Load phase: 4 concurrent read-only clients, one replica killed
	// mid-flight. Every failure a client would see is a test failure.
	const workers = 4
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		total   int
		errs    []error
		stop    = make(chan struct{})
		clients [workers]*server.RetryClient
	)
	for w := 0; w < workers; w++ {
		rc := server.DialRetry(addr, server.RetryPolicy{
			MaxAttempts: 8,
			BaseDelay:   5 * time.Millisecond,
			MaxElapsed:  5 * time.Second,
		})
		clients[w] = rc
		wg.Add(1)
		go func(w int, rc *server.RetryClient) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				if i%5 == 4 {
					_, err = rc.Batch([]string{"SELECT COUNT(*) FROM kv", "SELECT SUM(val) FROM kv"})
				} else {
					var resp *server.Response
					resp, err = rc.Query("SELECT COUNT(*) FROM kv")
					if err == nil && (len(resp.Rows) != 1 || resp.Rows[0][0] != 48) {
						t.Errorf("worker %d: wrong read result %+v", w, resp.Rows)
					}
				}
				mu.Lock()
				total++
				if err != nil {
					errs = append(errs, err)
				}
				mu.Unlock()
			}
		}(w, rc)
	}

	time.Sleep(200 * time.Millisecond)
	r1.kill() // chaos: one replica vanishes mid-load
	time.Sleep(600 * time.Millisecond)
	close(stop)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if total == 0 {
		t.Fatal("load generator issued no queries")
	}
	if len(errs) != 0 {
		t.Fatalf("replica kill leaked %d/%d errors to clients; first: %v", len(errs), total, errs[0])
	}
	for w, rc := range clients {
		if n := rc.Counters()[server.ClientGaveUp]; n != 0 {
			t.Errorf("worker %d: client.gaveup = %d", w, n)
		}
		rc.Close()
	}
	t.Logf("masked kill: %d reads, 0 errors, failovers=%d",
		total, rt.met.Snapshot()[RouteReadFailovers])

	// Recovery phase: restart the replica on its old addresses; it must
	// catch up from the WAL, converge byte-identically, and rejoin.
	r1b := startReplicaAt(t, p.http, 2, r1.tcp, r1.http)
	waitConverged(t, p, r1b)
	waitConverged(t, p, r2)
	waitUntil(t, 10*time.Second, "restarted replica re-admitted", func() bool { return rt.Healthy() == 2 })

	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitUntil(t, 10*time.Second, "restarted replica serving reads", func() bool {
		mustQuery(t, c, "SELECT COUNT(*) FROM kv")
		return counterOf(r1b.srv, server.Queries) > 0
	})
}

// TestChaosPrimaryKillRecoverConverges kills the primary without drain
// or checkpoint, restarts it on the same addresses from its WAL, and
// requires the replica set to converge on the recovered state. While the
// primary is down the already-caught-up replica keeps serving.
func TestChaosPrimaryKillRecoverConverges(t *testing.T) {
	dir := t.TempDir()
	p := startPrimary(t, dir, 2)
	rep := startReplica(t, p.http, 2)

	seed(t, p.tcp, 32)
	waitConverged(t, p, rep)

	// A few more acknowledged writes, then the lights go out.
	c, err := server.Dial(p.tcp)
	if err != nil {
		t.Fatal(err)
	}
	mustQuery(t, c, "INSERT INTO kv VALUES (100, 1, 1000)")
	mustQuery(t, c, "UPDATE kv SET val = 7 WHERE k = 3")
	c.Close()
	p.kill()

	// The replica outlives its primary: stale-but-consistent reads.
	rc, err := server.Dial(rep.tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	mustQuery(t, rc, "SELECT COUNT(*) FROM kv")
	if ready, reason := rep.srv.Ready(); !ready {
		t.Fatalf("replica turned not-ready (%s) when the primary died", reason)
	}

	// Restart the primary from its WAL on the same addresses. The
	// follower, still polling them, resumes the stream by itself.
	p2 := startPrimaryAt(t, dir, 2, p.tcp, p.http)
	c2, err := server.Dial(p2.tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	resp := mustQuery(t, c2, "SELECT COUNT(*) FROM kv")
	if resp.Rows[0][0] != 33 {
		t.Fatalf("recovered primary has %d rows, want 33", resp.Rows[0][0])
	}
	mustQuery(t, c2, "INSERT INTO kv VALUES (101, 1, 1010)")

	waitConverged(t, p2, rep)
	got := mustQuery(t, rc, "SELECT COUNT(*) FROM kv").Rows[0][0]
	if got != 34 {
		t.Fatalf("replica has %d rows after primary recovery, want 34", got)
	}
}
