package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// routerBody is a router's /metrics over three replicas: replica-0 in
// rotation, replica-1 ejected once, replica-2 ejected twice.
const routerBody = `# TYPE rcnvm_route_bad_requests_total counter
rcnvm_route_bad_requests_total 0
# TYPE rcnvm_route_ejections_total counter
rcnvm_route_ejections_total 3
# TYPE rcnvm_route_primary_down_total counter
rcnvm_route_primary_down_total 0
# TYPE rcnvm_route_read_failovers_total counter
rcnvm_route_read_failovers_total 2
# TYPE rcnvm_route_readmissions_total counter
rcnvm_route_readmissions_total 1
# TYPE rcnvm_route_reads_total counter
rcnvm_route_reads_total 120
# TYPE rcnvm_route_unknown_state_total counter
rcnvm_route_unknown_state_total 0
# TYPE rcnvm_route_writes_total counter
rcnvm_route_writes_total 40
# TYPE rcnvm_route_replicas gauge
rcnvm_route_replicas 3
# TYPE rcnvm_route_replicas_healthy gauge
rcnvm_route_replicas_healthy 1
# TYPE rcnvm_route_backend_healthy gauge
rcnvm_route_backend_healthy{backend="replica-0"} 1
rcnvm_route_backend_healthy{backend="replica-1"} 0
rcnvm_route_backend_healthy{backend="replica-2"} 0
# TYPE rcnvm_route_backend_probe_rtt_seconds gauge
rcnvm_route_backend_probe_rtt_seconds{backend="replica-0"} 0.000412
rcnvm_route_backend_probe_rtt_seconds{backend="replica-1"} 0.000388
rcnvm_route_backend_probe_rtt_seconds{backend="replica-2"} 0.25
# TYPE rcnvm_route_backend_ejections_total counter
rcnvm_route_backend_ejections_total{backend="replica-0"} 0
rcnvm_route_backend_ejections_total{backend="replica-1"} 1
rcnvm_route_backend_ejections_total{backend="replica-2"} 2
# TYPE rcnvm_route_backend_read_latency_seconds histogram
rcnvm_route_backend_read_latency_seconds_bucket{backend="primary",le="+Inf"} 20
rcnvm_route_backend_read_latency_seconds_sum{backend="primary"} 0.01
rcnvm_route_backend_read_latency_seconds_count{backend="primary"} 20
rcnvm_route_backend_read_latency_seconds_bucket{backend="replica-0",le="+Inf"} 100
rcnvm_route_backend_read_latency_seconds_sum{backend="replica-0"} 0.05
rcnvm_route_backend_read_latency_seconds_count{backend="replica-0"} 100
# TYPE rcnvm_route_backend_read_latency_seconds_quantile gauge
rcnvm_route_backend_read_latency_seconds_quantile{backend="primary",quantile="0.5"} 0.000262144
rcnvm_route_backend_read_latency_seconds_quantile{backend="primary",quantile="0.99"} 0.000524288
rcnvm_route_backend_read_latency_seconds_quantile{backend="replica-0",quantile="0.5"} 0.000524288
rcnvm_route_backend_read_latency_seconds_quantile{backend="replica-0",quantile="0.99"} 0.002097152
`

// clusterBody is a router's /cluster/metrics with the given statement
// counts: a primary, a ready replica 3 records behind on one shard, a
// replica still catching up (not ready) and a node that did not answer.
func clusterBody(primary, replica0, replica1 int) string {
	return fmt.Sprintf(`# TYPE rcnvm_cluster_node_up gauge
rcnvm_cluster_node_up{node="primary"} 1
rcnvm_cluster_node_up{node="replica-0"} 1
rcnvm_cluster_node_up{node="replica-1"} 1
rcnvm_cluster_node_up{node="replica-2"} 0
# TYPE rcnvm_cluster_node_ready gauge
rcnvm_cluster_node_ready{node="primary"} 1
rcnvm_cluster_node_ready{node="replica-0"} 1
rcnvm_cluster_node_ready{node="replica-1"} 0
rcnvm_cluster_node_ready{node="replica-2"} 0
# TYPE rcnvm_cluster_replica_caught_up gauge
rcnvm_cluster_replica_caught_up{node="replica-0"} 1
rcnvm_cluster_replica_caught_up{node="replica-1"} 0
# TYPE rcnvm_cluster_replica_lag_records gauge
rcnvm_cluster_replica_lag_records{node="replica-0",shard="0"} 0
rcnvm_cluster_replica_lag_records{node="replica-0",shard="1"} 3
rcnvm_cluster_replica_lag_records{node="replica-1",shard="0"} 0
rcnvm_cluster_replica_lag_records{node="replica-1",shard="1"} 0
# TYPE rcnvm_server_queries_total counter
rcnvm_server_queries_total{node="primary"} %d
rcnvm_server_queries_total{node="replica-0"} %d
rcnvm_server_queries_total{node="replica-1"} %d
# TYPE rcnvm_server_query_latency_seconds histogram
rcnvm_server_query_latency_seconds_bucket{node="primary",le="+Inf"} 60
rcnvm_server_query_latency_seconds_sum{node="primary"} 0.02
rcnvm_server_query_latency_seconds_count{node="primary"} 60
# TYPE rcnvm_server_query_latency_seconds_quantile gauge
rcnvm_server_query_latency_seconds_quantile{node="primary",quantile="0.5"} 0.000131072
rcnvm_server_query_latency_seconds_quantile{node="primary",quantile="0.99"} 0.001048576
rcnvm_server_query_latency_seconds_quantile{node="replica-0",quantile="0.99"} 0.000262144
rcnvm_server_query_latency_seconds_quantile{node="replica-1",quantile="0.99"} 0
`, primary, replica0, replica1)
}

const tableGolden = `cluster via router:7277 at 10:00:00
router: reads=120 writes=40 failovers=2 ejections=3 readmissions=1

NODE       ROLE     UP   READY  LAG(recs)    QPS  P99(ms)  RT-P99(ms)  EJECT
primary    primary  yes  yes    -            -    1.05     0.52        0
replica-0  replica  yes  yes    3            -    0.26     2.10        0
replica-1  replica  yes  NO     catching-up  -    0.00     0.00        1
replica-2  replica  NO   NO     -            -    0.00     0.00        2
cluster via router:7277 at 10:00:02
router: reads=120 writes=40 failovers=2 ejections=3 readmissions=1

NODE       ROLE     UP   READY  LAG(recs)    QPS   P99(ms)  RT-P99(ms)  EJECT
primary    primary  yes  yes    -            10.0  1.05     0.52        0
replica-0  replica  yes  yes    3            50.0  0.26     2.10        0
replica-1  replica  yes  NO     catching-up  0.0   0.00     0.00        1
replica-2  replica  NO   NO     -            -     0.00     0.00        2
`

// TestRenderGolden fetches a router's two expositions twice from fixed
// bodies, two seconds apart, and pins both tables: the first has no rate,
// the second shows each answering node's QPS.
func TestRenderGolden(t *testing.T) {
	cluster := clusterBody(100, 400, 7)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte(routerBody)) })
	mux.HandleFunc("/cluster/metrics", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte(cluster)) })
	ts := httptest.NewServer(mux)
	defer ts.Close()
	router := strings.TrimPrefix(ts.URL, "http://")

	at := time.Date(2024, 1, 1, 10, 0, 0, 0, time.UTC)
	first, err := fetch(ts.Client(), router)
	if err != nil {
		t.Fatal(err)
	}
	first.at = at
	cluster = clusterBody(120, 500, 7)
	second, err := fetch(ts.Client(), router)
	if err != nil {
		t.Fatal(err)
	}
	second.at = at.Add(2 * time.Second)

	var b strings.Builder
	render(&b, "router:7277", nil, first)
	render(&b, "router:7277", first, second)
	if b.String() != tableGolden {
		t.Errorf("rendered tables differ from the golden:\n%s", b.String())
	}
}

// TestFetchFails checks that a router without the expositions is an
// error, not an empty table.
func TestFetchFails(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	defer ts.Close()
	if _, err := fetch(ts.Client(), strings.TrimPrefix(ts.URL, "http://")); err == nil || !strings.Contains(err.Error(), "status 404") {
		t.Fatalf("fetch from a server without /metrics: %v, want a status 404 error", err)
	}
}
