package server

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"rcnvm/internal/durable"
	"rcnvm/internal/engine"
	"rcnvm/internal/shard"
)

// newDurableServer opens (or reopens) a data directory, recovers a
// fresh cluster from it, and serves it on a loopback TCP port.
func newDurableServer(t *testing.T, dir string, shards int) (*Server, *durable.Store, string) {
	t.Helper()
	store, err := durable.Open(dir, engine.DualAddress, shards, durable.Options{Fsync: durable.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := shard.Open(engine.DualAddress, shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Recover(cluster); err != nil {
		t.Fatal(err)
	}
	s := NewCluster(cluster, Options{Durable: store})
	addr, err := s.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return s, store, addr.String()
}

// TestServerDurableRestart drives the full serving loop: mutate over
// TCP, shut down cleanly (which checkpoints), reopen the directory, and
// see the data again — then crash without shutdown and recover from the
// WAL alone.
func TestServerDurableRestart(t *testing.T) {
	dir := t.TempDir()

	s, store, addr := newDurableServer(t, dir, 2)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	mustQuery(t, c, "CREATE TABLE acct (id, bal) CAPACITY 1024")
	mustQuery(t, c, "INSERT INTO acct VALUES (1, 100), (2, 250)")
	mustQuery(t, c, "UPDATE acct SET bal = 300 WHERE id = 2")
	c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil { // clean drain: checkpoints
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if got := store.Epoch(); got < 2 {
		t.Fatalf("clean shutdown did not checkpoint (epoch %d)", got)
	}

	// Restart 1: recovered from the shutdown checkpoint.
	s2, store2, addr2 := newDurableServer(t, dir, 2)
	c2, err := Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	if r := mustQuery(t, c2, "SELECT SUM(bal) FROM acct"); r.Rows[0][0] != 400 {
		t.Fatalf("recovered SUM(bal) = %v, want 400", r.Rows[0][0])
	}
	mustQuery(t, c2, "INSERT INTO acct VALUES (3, 50)")
	c2.Close()
	// Crash: no Shutdown, no Close. SyncAlways has every acknowledged
	// statement on disk already.
	_ = s2
	_ = store2

	// Restart 2: checkpoint + WAL tail replay.
	_, store3, addr3 := newDurableServer(t, dir, 2)
	defer store3.Close()
	c3, err := Dial(addr3)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if r := mustQuery(t, c3, "SELECT SUM(bal) FROM acct"); r.Rows[0][0] != 450 {
		t.Fatalf("crash-recovered SUM(bal) = %v, want 450", r.Rows[0][0])
	}
	if r := mustQuery(t, c3, "SELECT COUNT(*) FROM acct"); r.Rows[0][0] != 3 {
		t.Fatalf("crash-recovered COUNT(*) = %v, want 3", r.Rows[0][0])
	}
}

// TestCheckpointEndpoint exercises POST /checkpoint and the wal.*
// series in Stats and on /metrics.
func TestCheckpointEndpoint(t *testing.T) {
	dir := t.TempDir()
	s, store, addr := newDurableServer(t, dir, 1)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		store.Close()
	}()
	haddr, err := s.ListenHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + haddr.String()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustQuery(t, c, "CREATE TABLE kv (k, v) CAPACITY 256")
	mustQuery(t, c, "INSERT INTO kv VALUES (1, 2)")

	resp, err := http.Post(base+"/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /checkpoint: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"epoch"`) {
		t.Fatalf("checkpoint response missing epoch: %s", body)
	}
	if store.Epoch() != 2 {
		t.Fatalf("epoch after POST /checkpoint = %d, want 2", store.Epoch())
	}
	// GET is not allowed.
	if resp, err := http.Get(base + "/checkpoint"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /checkpoint: %d, want 405", resp.StatusCode)
		}
	}

	// The wal.* counters flow into /metrics with real values.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(mbody)
	for _, want := range []string{"rcnvm_wal_appends_total", "rcnvm_wal_fsyncs_total", "rcnvm_wal_checkpoints_total"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}
	if strings.Contains(metrics, "rcnvm_wal_appends_total 0\n") {
		t.Fatal("wal appends still zero after logged mutations")
	}

	st := s.Stats()
	if st.Counters[durable.CtrWalAppends] == 0 || st.Counters[durable.CtrCheckpoints] != 1 {
		t.Fatalf("stats counters: %+v", st.Counters)
	}
}

// TestVolatileServerHasNoCheckpoint: without -data-dir the endpoint
// 404s but the wal.* series still render (all zero) so dashboards can
// be wired up before durability is enabled.
func TestVolatileServerHasNoCheckpoint(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	haddr, err := s.ListenHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + haddr.String()
	resp, err := http.Post(base+"/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /checkpoint on volatile server: %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "rcnvm_wal_appends_total 0") {
		t.Fatal("/metrics missing zero-valued wal series on volatile server")
	}
}
