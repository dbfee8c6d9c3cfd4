package cluster

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rcnvm/internal/engine"
	"rcnvm/internal/server"
	"rcnvm/internal/shard"
)

// Exposition goldens for the serving layer: the replica gauges and the
// federated merge rendered from fixed inputs, and the family (# TYPE)
// sequence of every live /metrics owner. Family order, sample order,
// label order and number formatting are what scrapers and dashboards
// read; a diff here is a compatibility break.

func checkExposition(t *testing.T, what, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s differs at line %d:\n got: %q\nwant: %q\nfull output:\n%s", what, i+1, gl, wl, got)
		}
	}
}

// typeLines keeps only the "# TYPE" lines of an exposition.
func typeLines(body string) string {
	var b strings.Builder
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// startVolatile serves a fresh volatile server of the given shard count
// over HTTP and returns its address.
func startVolatile(t *testing.T, shards int) (*server.Server, string) {
	t.Helper()
	c, err := shard.Open(engine.DualAddress, shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewCluster(c, server.Options{})
	addr := listenHTTPRetry(t, srv, "127.0.0.1:0")
	t.Cleanup(srv.Abort)
	return srv, addr
}

// TestReplicationGaugesGolden pins the replica-lag families a replica's
// /metrics renders for a fixed status: two shards, not caught up,
// fractional ages.
func TestReplicationGaugesGolden(t *testing.T) {
	srv, addr := startVolatile(t, 2)
	srv.SetReplicationStatus(func() server.ReplicationStatus {
		return server.ReplicationStatus{
			Epoch:           3,
			CaughtUp:        false,
			StateAgeSeconds: 0.0125,
			Shards: []server.ReplicaShardLag{
				{Shard: 0, RecordsBehind: 40, BytesBehind: 5120, LastApplyAgeSeconds: 1.5},
				{Shard: 1, RecordsBehind: 0, BytesBehind: 0, LastApplyAgeSeconds: 0.000333},
			},
		}
	})
	_, body := httpGet(t, "http://"+addr+"/metrics")
	_, section, ok := strings.Cut(body, "# TYPE rcnvm_server_shards gauge\nrcnvm_server_shards 2\n")
	if !ok {
		t.Fatalf("no shards gauge in:\n%s", body)
	}
	section, _, _ = strings.Cut(section, "# TYPE rcnvm_bank_reads_total ")
	checkExposition(t, "replica gauges", section, replicationGolden)
}

const replicationGolden = `# TYPE rcnvm_cluster_replica_epoch gauge
rcnvm_cluster_replica_epoch 3
# TYPE rcnvm_cluster_replica_caught_up gauge
rcnvm_cluster_replica_caught_up 0
# TYPE rcnvm_cluster_replica_state_age_seconds gauge
rcnvm_cluster_replica_state_age_seconds 0.0125
# TYPE rcnvm_cluster_replica_lag_records gauge
rcnvm_cluster_replica_lag_records{shard="0"} 40
rcnvm_cluster_replica_lag_records{shard="1"} 0
# TYPE rcnvm_cluster_replica_lag_bytes gauge
rcnvm_cluster_replica_lag_bytes{shard="0"} 5120
rcnvm_cluster_replica_lag_bytes{shard="1"} 0
# TYPE rcnvm_cluster_replica_last_apply_age_seconds gauge
rcnvm_cluster_replica_last_apply_age_seconds{shard="0"} 1.5
rcnvm_cluster_replica_last_apply_age_seconds{shard="1"} 0.000333
`

// The fixed backend bodies of the federation golden. The replica's body
// opens with a sample no TYPE declares, re-declares a primary family
// with another type (the primary's wins), declares a family the primary
// lacks, and carries an off-family sample, a HELP comment and a blank
// line.
const (
	fedPrimaryBody = `# TYPE rcnvm_server_queries_total counter
rcnvm_server_queries_total 5
# TYPE rcnvm_server_sessions_active gauge
rcnvm_server_sessions_active 1
# TYPE rcnvm_server_query_latency_seconds histogram
rcnvm_server_query_latency_seconds_bucket{le="1e-09"} 0
rcnvm_server_query_latency_seconds_bucket{le="+Inf"} 2
rcnvm_server_query_latency_seconds_sum 0.5
rcnvm_server_query_latency_seconds_count 2
# TYPE rcnvm_bank_reads_total counter
rcnvm_bank_reads_total{bank="0"} 3
rcnvm_bank_reads_total{bank="1"} 0
# TYPE rcnvm_bank_row_buffer_hit_rate gauge
rcnvm_bank_row_buffer_hit_rate{bank="0"} 0.6666666666666666
rcnvm_bank_row_buffer_hit_rate{bank="1"} 0
`
	fedReplicaBody = `rcnvm_build_info{version="v1",path="a\"b"} 1
# TYPE rcnvm_server_queries_total gauge
rcnvm_server_queries_total 9
# HELP rcnvm_cluster_replica_lag_records WAL records behind the primary.
# TYPE rcnvm_cluster_replica_lag_records gauge
rcnvm_cluster_replica_lag_records{shard="0"} 4
rcnvm_cluster_replica_lag_records{shard="1"} 0

# TYPE rcnvm_bank_reads_total counter
rcnvm_bank_reads_total{bank="0"} 1
rcnvm_stray_total 7
# TYPE rcnvm_bank_row_buffer_hit_rate gauge
rcnvm_bank_row_buffer_hit_rate{bank="0"} 2e-05
`
)

// TestClusterMetricsGolden pins /cluster/metrics over fixed backend
// bodies with one node down: node_up first, families sorted by name,
// samples in node order with node as their first label.
func TestClusterMetricsGolden(t *testing.T) {
	backend := func(body string) string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			w.Write([]byte(body))
		}))
		t.Cleanup(ts.Close)
		return ts.Listener.Addr().String()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	rt := NewRouter(RouterOptions{
		Primary:  Backend{TCP: dead, HTTP: backend(fedPrimaryBody)},
		Replicas: []Backend{{TCP: dead, HTTP: backend(fedReplicaBody)}, {TCP: dead, HTTP: dead}},
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	}()
	rec := httptest.NewRecorder()
	rt.handleClusterMetrics(rec, httptest.NewRequest("GET", "/cluster/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	checkExposition(t, "/cluster/metrics", rec.Body.String(), federatedGolden)
}

const federatedGolden = `# TYPE rcnvm_cluster_node_up gauge
rcnvm_cluster_node_up{node="primary"} 1
rcnvm_cluster_node_up{node="replica-0"} 1
rcnvm_cluster_node_up{node="replica-1"} 0
# TYPE rcnvm_cluster_node_ready gauge
rcnvm_cluster_node_ready{node="primary"} 1
rcnvm_cluster_node_ready{node="replica-0"} 1
rcnvm_cluster_node_ready{node="replica-1"} 0
# TYPE rcnvm_bank_reads_total counter
rcnvm_bank_reads_total{node="primary",bank="0"} 3
rcnvm_bank_reads_total{node="primary",bank="1"} 0
rcnvm_bank_reads_total{node="replica-0",bank="0"} 1
# TYPE rcnvm_bank_row_buffer_hit_rate gauge
rcnvm_bank_row_buffer_hit_rate{node="primary",bank="0"} 0.6666666666666666
rcnvm_bank_row_buffer_hit_rate{node="primary",bank="1"} 0
rcnvm_bank_row_buffer_hit_rate{node="replica-0",bank="0"} 2e-05
rcnvm_build_info{node="replica-0",version="v1",path="a\"b"} 1
# TYPE rcnvm_cluster_replica_lag_records gauge
rcnvm_cluster_replica_lag_records{node="replica-0",shard="0"} 4
rcnvm_cluster_replica_lag_records{node="replica-0",shard="1"} 0
# TYPE rcnvm_server_queries_total counter
rcnvm_server_queries_total{node="primary"} 5
rcnvm_server_queries_total{node="replica-0"} 9
# TYPE rcnvm_server_query_latency_seconds histogram
rcnvm_server_query_latency_seconds_bucket{node="primary",le="1e-09"} 0
rcnvm_server_query_latency_seconds_bucket{node="primary",le="+Inf"} 2
rcnvm_server_query_latency_seconds_sum{node="primary"} 0.5
rcnvm_server_query_latency_seconds_count{node="primary"} 2
# TYPE rcnvm_server_sessions_active gauge
rcnvm_server_sessions_active{node="primary"} 1
rcnvm_stray_total{node="replica-0"} 7
`

// TestMetricsFamiliesPinned pins the family sequence of every live
// exposition: a 1-shard and a 3-shard primary, a replica, a router over
// the 1-shard primary and the replica, and that router's
// /cluster/metrics.
func TestMetricsFamiliesPinned(t *testing.T) {
	p1 := startPrimary(t, t.TempDir(), 1)
	p3 := startPrimary(t, t.TempDir(), 3)
	r := startReplica(t, p1.http, 1)
	waitConverged(t, p1, r)
	rt, _ := startRouter(t, p1, r)
	rtHTTP, err := rt.ListenHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what, url, want string
	}{
		{"1-shard /metrics", p1.http + "/metrics", oneShardFamilies},
		{"3-shard /metrics", p3.http + "/metrics", threeShardFamilies},
		{"replica /metrics", r.http + "/metrics", replicaFamilies},
		{"router /metrics", rtHTTP.String() + "/metrics", routerFamilies},
		{"/cluster/metrics", rtHTTP.String() + "/cluster/metrics", clusterFamilies},
	} {
		_, body := httpGet(t, "http://"+c.url)
		checkExposition(t, c.what, typeLines(body), c.want)
	}
}

const oneShardFamilies = `# TYPE rcnvm_fault_ecc_corrected_total counter
# TYPE rcnvm_fault_ecc_miscorrected_total counter
# TYPE rcnvm_fault_ecc_uncorrectable_total counter
# TYPE rcnvm_fault_stuck_bits_total counter
# TYPE rcnvm_fault_transient_bits_total counter
# TYPE rcnvm_fault_writes_total counter
# TYPE rcnvm_plancache_evictions_total counter
# TYPE rcnvm_plancache_hits_total counter
# TYPE rcnvm_plancache_misses_total counter
# TYPE rcnvm_server_bad_requests_total counter
# TYPE rcnvm_server_batch_statements_total counter
# TYPE rcnvm_server_batches_total counter
# TYPE rcnvm_server_encode_errors_total counter
# TYPE rcnvm_server_memory_errors_total counter
# TYPE rcnvm_server_panics_total counter
# TYPE rcnvm_server_queries_total counter
# TYPE rcnvm_server_query_errors_total counter
# TYPE rcnvm_server_rejected_total counter
# TYPE rcnvm_server_rejected_drain_total counter
# TYPE rcnvm_server_rejected_not_ready_total counter
# TYPE rcnvm_server_replay_sims_built_total counter
# TYPE rcnvm_server_rows_returned_total counter
# TYPE rcnvm_server_sessions_active gauge
# TYPE rcnvm_server_sessions_opened_total counter
# TYPE rcnvm_server_timed_queries_total counter
# TYPE rcnvm_server_timeouts_total counter
# TYPE rcnvm_server_trace_spans_dropped_total counter
# TYPE rcnvm_server_traced_queries_total counter
# TYPE rcnvm_wal_appends_total counter
# TYPE rcnvm_wal_bytes_total counter
# TYPE rcnvm_wal_checkpoint_ns_total counter
# TYPE rcnvm_wal_checkpoints_total counter
# TYPE rcnvm_wal_fsyncs_total counter
# TYPE rcnvm_wal_recovery_ns_total counter
# TYPE rcnvm_wal_recovery_replayed_total counter
# TYPE rcnvm_wal_recovery_torn_bytes_total counter
# TYPE rcnvm_server_query_latency_seconds histogram
# TYPE rcnvm_server_query_latency_seconds_quantile gauge
# TYPE rcnvm_server_pool_workers gauge
# TYPE rcnvm_server_pool_depth gauge
# TYPE rcnvm_server_pool_capacity gauge
# TYPE rcnvm_server_shards gauge
# TYPE rcnvm_bank_reads_total counter
# TYPE rcnvm_bank_writes_total counter
# TYPE rcnvm_bank_writebacks_total counter
# TYPE rcnvm_bank_row_buffer_hits_total counter
# TYPE rcnvm_bank_row_buffer_misses_total counter
# TYPE rcnvm_bank_col_buffer_hits_total counter
# TYPE rcnvm_bank_col_buffer_misses_total counter
# TYPE rcnvm_bank_ecc_retries_total counter
# TYPE rcnvm_bank_bus_busy_ps_total counter
# TYPE rcnvm_bank_queue_peak gauge
# TYPE rcnvm_bank_row_buffer_hit_rate gauge
# TYPE rcnvm_bank_col_buffer_hit_rate gauge
`

const threeShardFamilies = `# TYPE rcnvm_fault_ecc_corrected_total counter
# TYPE rcnvm_fault_ecc_miscorrected_total counter
# TYPE rcnvm_fault_ecc_uncorrectable_total counter
# TYPE rcnvm_fault_stuck_bits_total counter
# TYPE rcnvm_fault_transient_bits_total counter
# TYPE rcnvm_fault_writes_total counter
# TYPE rcnvm_plancache_evictions_total counter
# TYPE rcnvm_plancache_hits_total counter
# TYPE rcnvm_plancache_misses_total counter
# TYPE rcnvm_server_bad_requests_total counter
# TYPE rcnvm_server_batch_statements_total counter
# TYPE rcnvm_server_batches_total counter
# TYPE rcnvm_server_encode_errors_total counter
# TYPE rcnvm_server_memory_errors_total counter
# TYPE rcnvm_server_panics_total counter
# TYPE rcnvm_server_queries_total counter
# TYPE rcnvm_server_query_errors_total counter
# TYPE rcnvm_server_rejected_total counter
# TYPE rcnvm_server_rejected_drain_total counter
# TYPE rcnvm_server_rejected_not_ready_total counter
# TYPE rcnvm_server_replay_sims_built_total counter
# TYPE rcnvm_server_rows_returned_total counter
# TYPE rcnvm_server_sessions_active gauge
# TYPE rcnvm_server_sessions_opened_total counter
# TYPE rcnvm_server_timed_queries_total counter
# TYPE rcnvm_server_timeouts_total counter
# TYPE rcnvm_server_trace_spans_dropped_total counter
# TYPE rcnvm_server_traced_queries_total counter
# TYPE rcnvm_wal_appends_total counter
# TYPE rcnvm_wal_bytes_total counter
# TYPE rcnvm_wal_checkpoint_ns_total counter
# TYPE rcnvm_wal_checkpoints_total counter
# TYPE rcnvm_wal_fsyncs_total counter
# TYPE rcnvm_wal_recovery_ns_total counter
# TYPE rcnvm_wal_recovery_replayed_total counter
# TYPE rcnvm_wal_recovery_torn_bytes_total counter
# TYPE rcnvm_server_query_latency_seconds histogram
# TYPE rcnvm_server_query_latency_seconds_quantile gauge
# TYPE rcnvm_server_pool_workers gauge
# TYPE rcnvm_server_pool_depth gauge
# TYPE rcnvm_server_pool_capacity gauge
# TYPE rcnvm_server_shards gauge
# TYPE rcnvm_bank_reads_total counter
# TYPE rcnvm_bank_writes_total counter
# TYPE rcnvm_bank_writebacks_total counter
# TYPE rcnvm_bank_row_buffer_hits_total counter
# TYPE rcnvm_bank_row_buffer_misses_total counter
# TYPE rcnvm_bank_col_buffer_hits_total counter
# TYPE rcnvm_bank_col_buffer_misses_total counter
# TYPE rcnvm_bank_ecc_retries_total counter
# TYPE rcnvm_bank_bus_busy_ps_total counter
# TYPE rcnvm_bank_queue_peak gauge
# TYPE rcnvm_bank_row_buffer_hit_rate gauge
# TYPE rcnvm_bank_col_buffer_hit_rate gauge
# TYPE rcnvm_shard_bank_reads_total counter
# TYPE rcnvm_shard_bank_writes_total counter
# TYPE rcnvm_shard_bank_writebacks_total counter
# TYPE rcnvm_shard_bank_row_buffer_hits_total counter
# TYPE rcnvm_shard_bank_row_buffer_misses_total counter
# TYPE rcnvm_shard_bank_col_buffer_hits_total counter
# TYPE rcnvm_shard_bank_col_buffer_misses_total counter
# TYPE rcnvm_shard_bank_ecc_retries_total counter
# TYPE rcnvm_shard_bank_bus_busy_ps_total counter
# TYPE rcnvm_shard_bank_queue_peak gauge
# TYPE rcnvm_shard_bank_row_buffer_hit_rate gauge
# TYPE rcnvm_shard_bank_col_buffer_hit_rate gauge
`

const replicaFamilies = `# TYPE rcnvm_fault_ecc_corrected_total counter
# TYPE rcnvm_fault_ecc_miscorrected_total counter
# TYPE rcnvm_fault_ecc_uncorrectable_total counter
# TYPE rcnvm_fault_stuck_bits_total counter
# TYPE rcnvm_fault_transient_bits_total counter
# TYPE rcnvm_fault_writes_total counter
# TYPE rcnvm_plancache_evictions_total counter
# TYPE rcnvm_plancache_hits_total counter
# TYPE rcnvm_plancache_misses_total counter
# TYPE rcnvm_server_bad_requests_total counter
# TYPE rcnvm_server_batch_statements_total counter
# TYPE rcnvm_server_batches_total counter
# TYPE rcnvm_server_encode_errors_total counter
# TYPE rcnvm_server_memory_errors_total counter
# TYPE rcnvm_server_panics_total counter
# TYPE rcnvm_server_queries_total counter
# TYPE rcnvm_server_query_errors_total counter
# TYPE rcnvm_server_rejected_total counter
# TYPE rcnvm_server_rejected_drain_total counter
# TYPE rcnvm_server_rejected_not_ready_total counter
# TYPE rcnvm_server_replay_sims_built_total counter
# TYPE rcnvm_server_rows_returned_total counter
# TYPE rcnvm_server_sessions_active gauge
# TYPE rcnvm_server_sessions_opened_total counter
# TYPE rcnvm_server_timed_queries_total counter
# TYPE rcnvm_server_timeouts_total counter
# TYPE rcnvm_server_trace_spans_dropped_total counter
# TYPE rcnvm_server_traced_queries_total counter
# TYPE rcnvm_wal_appends_total counter
# TYPE rcnvm_wal_bytes_total counter
# TYPE rcnvm_wal_checkpoint_ns_total counter
# TYPE rcnvm_wal_checkpoints_total counter
# TYPE rcnvm_wal_fsyncs_total counter
# TYPE rcnvm_wal_recovery_ns_total counter
# TYPE rcnvm_wal_recovery_replayed_total counter
# TYPE rcnvm_wal_recovery_torn_bytes_total counter
# TYPE rcnvm_server_query_latency_seconds histogram
# TYPE rcnvm_server_query_latency_seconds_quantile gauge
# TYPE rcnvm_server_pool_workers gauge
# TYPE rcnvm_server_pool_depth gauge
# TYPE rcnvm_server_pool_capacity gauge
# TYPE rcnvm_server_shards gauge
# TYPE rcnvm_cluster_replica_epoch gauge
# TYPE rcnvm_cluster_replica_caught_up gauge
# TYPE rcnvm_cluster_replica_state_age_seconds gauge
# TYPE rcnvm_cluster_replica_lag_records gauge
# TYPE rcnvm_cluster_replica_lag_bytes gauge
# TYPE rcnvm_cluster_replica_last_apply_age_seconds gauge
# TYPE rcnvm_bank_reads_total counter
# TYPE rcnvm_bank_writes_total counter
# TYPE rcnvm_bank_writebacks_total counter
# TYPE rcnvm_bank_row_buffer_hits_total counter
# TYPE rcnvm_bank_row_buffer_misses_total counter
# TYPE rcnvm_bank_col_buffer_hits_total counter
# TYPE rcnvm_bank_col_buffer_misses_total counter
# TYPE rcnvm_bank_ecc_retries_total counter
# TYPE rcnvm_bank_bus_busy_ps_total counter
# TYPE rcnvm_bank_queue_peak gauge
# TYPE rcnvm_bank_row_buffer_hit_rate gauge
# TYPE rcnvm_bank_col_buffer_hit_rate gauge
`

const routerFamilies = `# TYPE rcnvm_route_bad_requests_total counter
# TYPE rcnvm_route_ejections_total counter
# TYPE rcnvm_route_primary_down_total counter
# TYPE rcnvm_route_read_failovers_total counter
# TYPE rcnvm_route_readmissions_total counter
# TYPE rcnvm_route_reads_total counter
# TYPE rcnvm_route_unknown_state_total counter
# TYPE rcnvm_route_writes_total counter
# TYPE rcnvm_route_replicas gauge
# TYPE rcnvm_route_replicas_healthy gauge
# TYPE rcnvm_route_backend_healthy gauge
# TYPE rcnvm_route_backend_probe_rtt_seconds gauge
# TYPE rcnvm_route_backend_ejections_total counter
# TYPE rcnvm_route_backend_read_latency_seconds histogram
# TYPE rcnvm_route_backend_read_latency_seconds_quantile gauge
`

const clusterFamilies = `# TYPE rcnvm_cluster_node_up gauge
# TYPE rcnvm_cluster_node_ready gauge
# TYPE rcnvm_bank_bus_busy_ps_total counter
# TYPE rcnvm_bank_col_buffer_hit_rate gauge
# TYPE rcnvm_bank_col_buffer_hits_total counter
# TYPE rcnvm_bank_col_buffer_misses_total counter
# TYPE rcnvm_bank_ecc_retries_total counter
# TYPE rcnvm_bank_queue_peak gauge
# TYPE rcnvm_bank_reads_total counter
# TYPE rcnvm_bank_row_buffer_hit_rate gauge
# TYPE rcnvm_bank_row_buffer_hits_total counter
# TYPE rcnvm_bank_row_buffer_misses_total counter
# TYPE rcnvm_bank_writebacks_total counter
# TYPE rcnvm_bank_writes_total counter
# TYPE rcnvm_cluster_replica_caught_up gauge
# TYPE rcnvm_cluster_replica_epoch gauge
# TYPE rcnvm_cluster_replica_lag_bytes gauge
# TYPE rcnvm_cluster_replica_lag_records gauge
# TYPE rcnvm_cluster_replica_last_apply_age_seconds gauge
# TYPE rcnvm_cluster_replica_state_age_seconds gauge
# TYPE rcnvm_fault_ecc_corrected_total counter
# TYPE rcnvm_fault_ecc_miscorrected_total counter
# TYPE rcnvm_fault_ecc_uncorrectable_total counter
# TYPE rcnvm_fault_stuck_bits_total counter
# TYPE rcnvm_fault_transient_bits_total counter
# TYPE rcnvm_fault_writes_total counter
# TYPE rcnvm_plancache_evictions_total counter
# TYPE rcnvm_plancache_hits_total counter
# TYPE rcnvm_plancache_misses_total counter
# TYPE rcnvm_server_bad_requests_total counter
# TYPE rcnvm_server_batch_statements_total counter
# TYPE rcnvm_server_batches_total counter
# TYPE rcnvm_server_encode_errors_total counter
# TYPE rcnvm_server_memory_errors_total counter
# TYPE rcnvm_server_panics_total counter
# TYPE rcnvm_server_pool_capacity gauge
# TYPE rcnvm_server_pool_depth gauge
# TYPE rcnvm_server_pool_workers gauge
# TYPE rcnvm_server_queries_total counter
# TYPE rcnvm_server_query_errors_total counter
# TYPE rcnvm_server_query_latency_seconds histogram
# TYPE rcnvm_server_query_latency_seconds_quantile gauge
# TYPE rcnvm_server_rejected_drain_total counter
# TYPE rcnvm_server_rejected_not_ready_total counter
# TYPE rcnvm_server_rejected_total counter
# TYPE rcnvm_server_replay_sims_built_total counter
# TYPE rcnvm_server_rows_returned_total counter
# TYPE rcnvm_server_sessions_active gauge
# TYPE rcnvm_server_sessions_opened_total counter
# TYPE rcnvm_server_shards gauge
# TYPE rcnvm_server_timed_queries_total counter
# TYPE rcnvm_server_timeouts_total counter
# TYPE rcnvm_server_trace_spans_dropped_total counter
# TYPE rcnvm_server_traced_queries_total counter
# TYPE rcnvm_wal_appends_total counter
# TYPE rcnvm_wal_bytes_total counter
# TYPE rcnvm_wal_checkpoint_ns_total counter
# TYPE rcnvm_wal_checkpoints_total counter
# TYPE rcnvm_wal_fsyncs_total counter
# TYPE rcnvm_wal_recovery_ns_total counter
# TYPE rcnvm_wal_recovery_replayed_total counter
# TYPE rcnvm_wal_recovery_torn_bytes_total counter
`
