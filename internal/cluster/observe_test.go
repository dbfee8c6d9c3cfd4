package cluster

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"rcnvm/internal/obs"
	"rcnvm/internal/server"
	"rcnvm/internal/stats"
)

// httpGet fetches one URL body (test helper; fails the test on transport
// errors, returns status + body otherwise).
func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// lagRecords sums RecordsBehind across a status' shards.
func lagRecords(st server.ReplicationStatus) int64 {
	var sum int64
	for _, sh := range st.Shards {
		sum += sh.RecordsBehind
	}
	return sum
}

// TestReplicationLagPausedReplica is the chaos-harness lag assertion: the
// lag gauges rise while the primary takes writes against a replica whose
// apply loop is wedged (its shards held, ApplyWAL waits for the write
// lock), the replica's own /metrics exposes them, and everything returns
// to zero (and byte-identical state) once the locks are released.
func TestReplicationLagPausedReplica(t *testing.T) {
	p := startPrimary(t, t.TempDir(), 2)
	seed(t, p.tcp, 64)
	r := startReplica(t, p.http, 2)
	waitConverged(t, p, r)

	waitUntil(t, 5*time.Second, "lag to settle at zero", func() bool {
		st := r.fol.Lag()
		return st.CaughtUp && lagRecords(st) == 0
	})

	// Wedge the apply loop and write through the primary: the replica
	// falls behind by exactly the burst, and only the state poll (which
	// keeps running) can know it.
	release := holdShards(t, r.srv, false)
	c, err := server.Dial(p.tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const burst = 40
	for i := 0; i < burst; i++ {
		mustQuery(t, c, fmt.Sprintf("INSERT INTO kv VALUES (%d, 0, %d)", 1000+i, i))
	}
	waitUntil(t, 5*time.Second, "lag gauges to rise", func() bool {
		st := r.fol.Lag()
		return !st.CaughtUp && lagRecords(st) >= burst
	})
	st := r.fol.Lag()
	var bytesBehind int64
	for _, sh := range st.Shards {
		bytesBehind += sh.BytesBehind
	}
	if bytesBehind <= 0 {
		t.Fatalf("records behind without bytes behind: %+v", st)
	}

	// The replica's own Prometheus exposition carries the per-shard lag
	// series and reports not-caught-up.
	_, body := httpGet(t, "http://"+r.http+"/metrics")
	if !strings.Contains(body, `rcnvm_cluster_replica_lag_records{shard="0"}`) ||
		!strings.Contains(body, `rcnvm_cluster_replica_lag_records{shard="1"}`) {
		t.Fatalf("replica /metrics missing per-shard lag series:\n%s", body)
	}
	if !strings.Contains(body, "rcnvm_cluster_replica_caught_up 0") {
		t.Fatalf("replica /metrics should report caught_up 0 while wedged:\n%s", body)
	}

	release()
	waitUntil(t, 10*time.Second, "lag to drain after release", func() bool {
		st := r.fol.Lag()
		return st.CaughtUp && lagRecords(st) == 0
	})
	waitConverged(t, p, r)
}

// TestStitchedTraceTwoNodes proves one -trace'd query through the router
// yields a single Perfetto-shaped document containing both router spans
// and backend exec spans under distinct process ids.
func TestStitchedTraceTwoNodes(t *testing.T) {
	p := startPrimary(t, t.TempDir(), 1)
	seed(t, p.tcp, 16)
	_, addr := startRouter(t, p)

	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Do(server.Request{ID: 7, Query: "SELECT val FROM kv WHERE k = 3", Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != nil {
		t.Fatalf("traced query failed: %v", resp.Error)
	}
	if len(resp.TraceEvents) == 0 {
		t.Fatal("traced query returned no trace document")
	}

	events, err := obs.ParseChromeTrace(resp.TraceEvents)
	if err != nil {
		t.Fatalf("stitched document is not a Chrome trace: %v", err)
	}
	pids := map[int]bool{}
	procNames := map[string]bool{}
	routerSpans, backendSpans := 0, 0
	var routerPid int
	for _, e := range events {
		pids[e.PID] = true
		if e.Ph == "M" && e.Name == "process_name" {
			if m, ok := e.Args.(map[string]any); ok {
				if s, ok := m["name"].(string); ok {
					procNames[s] = true
					if s == obs.ProcRouter {
						routerPid = e.PID
					}
				}
			}
		}
	}
	if len(pids) < 2 {
		t.Fatalf("stitched trace has %d distinct pids, want >= 2 (events: %+v)", len(pids), events)
	}
	if !procNames[obs.ProcRouter] {
		t.Fatalf("no router process in stitched trace: %v", procNames)
	}
	if !procNames["primary: "+obs.ProcQuery] {
		t.Fatalf("no node-prefixed backend process in stitched trace: %v", procNames)
	}
	for _, e := range events {
		if e.Ph != "X" {
			continue
		}
		if e.PID == routerPid {
			routerSpans++
		} else {
			backendSpans++
		}
	}
	if routerSpans == 0 || backendSpans == 0 {
		t.Fatalf("want spans from both nodes, got router=%d backend=%d", routerSpans, backendSpans)
	}
	// Every complete event shares the router-assigned trace id.
	var tid int64 = -1
	for _, e := range events {
		if e.Ph != "X" {
			continue
		}
		if tid == -1 {
			tid = e.TID
		}
		if e.TID != tid {
			t.Fatalf("trace ids diverge across nodes: %d vs %d", tid, e.TID)
		}
	}
}

// TestClusterMetricsFederation checks the federated exposition: every
// node's series re-labeled and merged under a single TYPE line per
// family, per-shard lag series visible under the replica's node label,
// per-node readiness, the router's per-replica series, and cluster_node_up
// and the replica's rotation flipping when it dies.
func TestClusterMetricsFederation(t *testing.T) {
	p := startPrimary(t, t.TempDir(), 2)
	seed(t, p.tcp, 32)
	r1 := startReplica(t, p.http, 2)
	r2 := startReplica(t, p.http, 2)
	waitConverged(t, p, r1)
	waitConverged(t, p, r2)
	rt, _ := startRouter(t, p, r1, r2)
	httpAddr, err := rt.ListenHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	_, body := httpGet(t, "http://"+httpAddr.String()+"/cluster/metrics")
	for _, want := range []string{
		`rcnvm_cluster_node_up{node="primary"} 1`,
		`rcnvm_cluster_node_up{node="replica-0"} 1`,
		`rcnvm_cluster_node_up{node="replica-1"} 1`,
		`rcnvm_server_queries_total{node="primary"}`,
		`rcnvm_server_queries_total{node="replica-0"}`,
		`rcnvm_cluster_replica_lag_records{node="replica-0",shard="0"}`,
		`rcnvm_cluster_replica_lag_records{node="replica-1",shard="1"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("federated exposition missing %q:\n%s", want, body)
		}
	}
	if n := strings.Count(body, "# TYPE rcnvm_server_queries_total "); n != 1 {
		t.Fatalf("family rcnvm_server_queries_total declared %d times, want exactly 1", n)
	}
	if n := strings.Count(body, "# TYPE rcnvm_cluster_replica_lag_records "); n != 1 {
		t.Fatalf("family rcnvm_cluster_replica_lag_records declared %d times, want exactly 1", n)
	}

	// One reachability and one readiness sample per node, the primary
	// ready, and each replica's replication status federated under its
	// node label.
	for _, fam := range []string{NodeUp, NodeReady} {
		if n := strings.Count(body, fam+"{"); n != 3 {
			t.Fatalf("%s has %d samples, want one per node (3):\n%s", fam, n, body)
		}
	}
	for _, want := range []string{
		`rcnvm_cluster_node_ready{node="primary"} 1`,
		`rcnvm_cluster_replica_caught_up{node="replica-0"}`,
		`rcnvm_cluster_replica_caught_up{node="replica-1"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("federated exposition missing %q:\n%s", want, body)
		}
	}
	// The router's own /metrics: each replica's health-checker state.
	_, own := httpGet(t, "http://"+httpAddr.String()+"/metrics")
	for _, want := range []string{
		`rcnvm_route_backend_healthy{backend="replica-0"} 1`,
		`rcnvm_route_backend_healthy{backend="replica-1"} 1`,
		`rcnvm_route_backend_probe_rtt_seconds{backend="replica-0"} `,
		`rcnvm_route_backend_probe_rtt_seconds{backend="replica-1"} `,
		`rcnvm_route_backend_ejections_total{backend="replica-0"} 0`,
		`rcnvm_route_backend_ejections_total{backend="replica-1"} 0`,
	} {
		if !strings.Contains(own, want) {
			t.Fatalf("router /metrics missing %q:\n%s", want, own)
		}
	}

	// Kill one replica: the federated view reports it down, not an error.
	r2.kill()
	waitUntil(t, 5*time.Second, "federation to see dead replica", func() bool {
		status, body := httpGet(t, "http://"+httpAddr.String()+"/cluster/metrics")
		return status == http.StatusOK &&
			strings.Contains(body, `rcnvm_cluster_node_up{node="replica-1"} 0`) &&
			strings.Contains(body, `rcnvm_cluster_node_ready{node="replica-1"} 0`) &&
			strings.Contains(body, `rcnvm_cluster_node_up{node="replica-0"} 1`)
	})
	// The health checker ejects it too.
	waitUntil(t, 5*time.Second, "router to eject dead replica", func() bool {
		_, own := httpGet(t, "http://"+httpAddr.String()+"/metrics")
		return strings.Contains(own, `rcnvm_route_backend_healthy{backend="replica-1"} 0`) &&
			strings.Contains(own, `rcnvm_route_backend_ejections_total{backend="replica-1"} 1`)
	})
}

// TestRouterMetricsExposition checks the router's own /metrics: every
// route.* counter present, at 0, from the first scrape and the
// per-backend read-latency family with one TYPE line; and that the router
// serves no JSON stats view.
func TestRouterMetricsExposition(t *testing.T) {
	p := startPrimary(t, t.TempDir(), 1)
	seed(t, p.tcp, 8)
	r1 := startReplica(t, p.http, 1)
	waitConverged(t, p, r1)
	rt, addr := startRouter(t, p, r1)
	httpAddr, err := rt.ListenHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustQuery(t, c, "SELECT val FROM kv WHERE k = 1")

	_, body := httpGet(t, "http://"+httpAddr.String()+"/metrics")
	for _, want := range []string{
		"rcnvm_route_reads_total 1",
		"rcnvm_route_writes_total 0",
		"rcnvm_route_ejections_total 0",
		"rcnvm_route_bad_requests_total 0",
		`rcnvm_route_backend_read_latency_seconds_count{backend="replica-0"} 1`,
		`rcnvm_route_backend_read_latency_seconds_count{backend="primary"} 0`,
		`rcnvm_route_backend_read_latency_seconds_quantile{backend="replica-0",quantile="0.99"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("router /metrics missing %q:\n%s", want, body)
		}
	}
	if n := strings.Count(body, "# TYPE rcnvm_route_backend_read_latency_seconds "); n != 1 {
		t.Fatalf("latency family declared %d times, want exactly 1", n)
	}
	// /metrics and /cluster/metrics are the router's only views: the
	// former JSON twins are gone.
	for _, path := range []string{"/stats", "/cluster/stats"} {
		if status, _ := httpGet(t, "http://"+httpAddr.String()+path); status != http.StatusNotFound {
			t.Errorf("router GET %s: status %d, want 404", path, status)
		}
	}
}

// BenchmarkRouterDisabledObs is the router's zero-overhead-when-disabled
// proof, wired into the CI alloc gate: the exact per-request
// observability touch points of an untraced, unscraped forward — counter
// increment, nil trace methods, latency observation — allocate nothing.
func BenchmarkRouterDisabledObs(b *testing.B) {
	met := stats.NewCounters(&Family)
	n := &node{name: "replica-0", lat: stats.NewHistogram()}
	var ft *fwdTrace
	start := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		met.Inc(RouteReads)
		ft.spanNode("backend_wait", n.name, start)
		ft.served(n.name)
		ft.span("route", start)
		ft.stitch(nil)
		n.lat.Observe(int64(i)&0xffff + 1)
	}
}
