package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"rcnvm/internal/durable"
	"rcnvm/internal/engine"
	"rcnvm/internal/server"
	"rcnvm/internal/shard"
)

// testPrimary is one in-process primary: a durable store recovered onto a
// cluster, served with the WAL-shipping endpoints up.
type testPrimary struct {
	srv   *server.Server
	store *durable.Store
	dir   string
	tcp   string
	http  string
}

// testReplica is one in-process read replica: a ReadOnly server whose
// state advances only through its follower.
type testReplica struct {
	srv  *server.Server
	fol  *Follower
	tcp  string
	http string
}

func startPrimary(t *testing.T, dir string, shards int) *testPrimary {
	t.Helper()
	return startPrimaryAt(t, dir, shards, "127.0.0.1:0", "127.0.0.1:0")
}

// startPrimaryAt starts (or restarts, after a kill) a primary on fixed
// addresses. "127.0.0.1:0" picks fresh ports.
func startPrimaryAt(t *testing.T, dir string, shards int, tcpAddr, httpAddr string) *testPrimary {
	t.Helper()
	store, err := durable.Open(dir, engine.DualAddress, shards, durable.Options{Fsync: durable.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	c, err := shard.Open(engine.DualAddress, shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Recover(c); err != nil {
		t.Fatal(err)
	}
	srv := server.NewCluster(c, server.Options{Durable: store})
	tcp := listenTCPRetry(t, srv, tcpAddr)
	http := listenHTTPRetry(t, srv, httpAddr)
	p := &testPrimary{srv: srv, store: store, dir: dir, tcp: tcp, http: http}
	t.Cleanup(func() {
		p.srv.Abort()
		p.store.Close()
	})
	return p
}

func startReplica(t *testing.T, primaryHTTP string, shards int) *testReplica {
	t.Helper()
	return startReplicaAt(t, primaryHTTP, shards, "127.0.0.1:0", "127.0.0.1:0")
}

func startReplicaAt(t *testing.T, primaryHTTP string, shards int, tcpAddr, httpAddr string) *testReplica {
	t.Helper()
	c, err := shard.Open(engine.DualAddress, shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewCluster(c, server.Options{ReadOnly: true})
	tcp := listenTCPRetry(t, srv, tcpAddr)
	http := listenHTTPRetry(t, srv, httpAddr)
	fol := NewFollower(srv, FollowerOptions{PrimaryHTTP: primaryHTTP, Interval: 2 * time.Millisecond})
	fol.Start()
	r := &testReplica{srv: srv, fol: fol, tcp: tcp, http: http}
	t.Cleanup(func() { r.kill() })
	return r
}

// kill is the in-process stand-in for kill -9 on a replica: the shipping
// loop stops and the server drops everything without draining. Safe to
// call twice (the restart flow kills, then Cleanup kills again).
func (r *testReplica) kill() {
	r.fol.Stop()
	r.srv.Abort()
}

// holdShards takes the statement lock of every shard of srv's cluster
// until the returned release, which cleanup also runs. Held exclusive,
// every statement that needs a shard stays in flight; held shared, reads
// still run while every mutating statement, and the follower's ApplyWAL,
// stays in flight.
func holdShards(t *testing.T, srv *server.Server, exclusive bool) (release func()) {
	c := srv.Cluster()
	for i := 0; i < c.N(); i++ {
		if exclusive {
			c.Shard(i).Lock()
		} else {
			c.Shard(i).RLock()
		}
	}
	var once sync.Once
	release = func() {
		once.Do(func() {
			for i := c.N() - 1; i >= 0; i-- {
				if exclusive {
					c.Shard(i).Unlock()
				} else {
					c.Shard(i).RUnlock()
				}
			}
		})
	}
	t.Cleanup(release)
	return release
}

// writeWaiting reports whether a mutating statement waits for shard 0 of
// srv's cluster, held shared by holdShards: a waiting writer makes
// TryRLock fail.
func writeWaiting(srv *server.Server) bool {
	db := srv.Cluster().Shard(0)
	if !db.TryRLock() {
		return true
	}
	db.RUnlock()
	return false
}

// runWhen runs do in the background as soon as cond holds, or after 10 s
// without it (the assertions that follow then report what went wrong).
func runWhen(cond func() bool, do func()) {
	go func() {
		for deadline := time.Now().Add(10 * time.Second); !cond() && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		do()
	}()
}

// listenTCPRetry binds a front end, retrying briefly when restarting on a
// just-freed fixed port (the kernel can lag the release a moment).
func listenTCPRetry(t *testing.T, s *server.Server, addr string) string {
	t.Helper()
	var (
		a   net.Addr
		err error
	)
	for i := 0; i < 100; i++ {
		if a, err = s.ListenTCP(addr); err == nil {
			return a.String()
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("listen tcp %s: %v", addr, err)
	return ""
}

func listenHTTPRetry(t *testing.T, s *server.Server, addr string) string {
	t.Helper()
	var (
		a   net.Addr
		err error
	)
	for i := 0; i < 100; i++ {
		if a, err = s.ListenHTTP(addr); err == nil {
			return a.String()
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("listen http %s: %v", addr, err)
	return ""
}

func startRouter(t *testing.T, p *testPrimary, reps ...*testReplica) (*Router, string) {
	t.Helper()
	opts := RouterOptions{Primary: Backend{TCP: p.tcp, HTTP: p.http}}
	for _, r := range reps {
		opts.Replicas = append(opts.Replicas, Backend{TCP: r.tcp, HTTP: r.http})
	}
	rt := NewRouter(opts)
	addr, err := rt.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	return rt, addr.String()
}

func mustQuery(t *testing.T, c *server.Client, q string) *server.Response {
	t.Helper()
	resp, err := c.Query(q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return resp
}

// waitUntil polls cond up to the deadline.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// waitConverged waits until a replica has applied everything the primary
// has acknowledged (poll both position vectors), then asserts the
// per-shard state checksums match byte for byte. Call with writes
// quiesced.
func waitConverged(t *testing.T, p *testPrimary, r *testReplica) {
	t.Helper()
	waitUntil(t, 15*time.Second, "replica catch-up", func() bool {
		epoch, _, pos, _, err := p.store.StreamState()
		if err != nil {
			return false
		}
		repoch, rpos, _ := r.fol.Status()
		if repoch != epoch || len(rpos) != len(pos) {
			return false
		}
		for i := range pos {
			if rpos[i].Seg < pos[i].Seg || (rpos[i].Seg == pos[i].Seg && rpos[i].Off < pos[i].Off) {
				return false
			}
		}
		return true
	})
	pc, rc := p.srv.Checksums(), r.srv.Checksums()
	for i := range pc.Shards {
		if pc.Shards[i] != rc.Shards[i] {
			t.Fatalf("shard %d diverged:\n primary %s\n replica %s", i, pc.Shards[i], rc.Shards[i])
		}
	}
}

// seedStatements loads a small workload through a primary connection.
func seed(t *testing.T, tcp string, rows int) {
	t.Helper()
	c, err := server.Dial(tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustQuery(t, c, "CREATE TABLE kv (k, grp, val) CAPACITY 4096")
	for i := 0; i < rows; i += 8 {
		var vals string
		for j := i; j < i+8 && j < rows; j++ {
			if vals != "" {
				vals += ", "
			}
			vals += fmt.Sprintf("(%d, %d, %d)", j, j%4, j*10)
		}
		mustQuery(t, c, "INSERT INTO kv VALUES "+vals)
	}
}
