package obs_test

import (
	"bytes"
	"strings"
	"testing"

	"rcnvm/internal/durable"
	"rcnvm/internal/obs"
	"rcnvm/internal/server"
	"rcnvm/internal/stats"
)

// Exposition goldens: fixed inputs rendered to the exact bytes a scraper
// reads. Family order, sample order, label order and number formatting
// are all part of the contract; a diff here is a dashboard break.

func checkGolden(t *testing.T, got, want string) {
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
			t.Fatalf("exposition differs at line %d:\n got: %q\nwant: %q\nfull output:\n%s", i+1, gl, wl, got)
		}
	}
}

func renderCounters() string {
	c := stats.NewCounters(&server.Family, &durable.Family)
	c.Add(server.Queries, 42)
	c.Add(server.SessionsActive, 3)
	c.Add(server.PlanCacheHits, 7)
	c.Add(durable.CtrWalBytes, 1<<20)
	var b bytes.Buffer
	p := obs.NewWriter(&b)
	p.Counters("rcnvm", c.Snapshot(), &server.Family, &durable.Family)
	p.Gauge("rcnvm_server_pool_workers", 4)
	p.Gauge("rcnvm_test_fraction", 0.125)
	p.Gauge("rcnvm_test_large", 2e6)
	return b.String()
}

// latencyHistograms returns a histogram whose samples span 0 to past
// 2^40 and an empty one.
func latencyHistograms() (full, empty *stats.Histogram) {
	full = stats.NewHistogram()
	for _, v := range []int64{0, 1, 3, 1000, 123456, 1<<40 + 12345} {
		full.Observe(v)
	}
	return full, stats.NewHistogram()
}

func renderHistograms() string {
	full, empty := latencyHistograms()
	var b bytes.Buffer
	p := obs.NewWriter(&b)
	p.Histograms("rcnvm_test_latency_seconds", "", []obs.LabeledHistogram{{H: full}}, 1e-9)
	p.Histograms("rcnvm_test_empty_seconds", "", []obs.LabeledHistogram{{H: empty}}, 1e-9)
	return b.String()
}

func renderLabeledHistograms() string {
	_, empty := latencyHistograms()
	primary, replica := stats.NewHistogram(), stats.NewHistogram()
	primary.Observe(2500)
	primary.Observe(7)
	replica.Observe(0)
	replica.Observe(300)
	items := []obs.LabeledHistogram{
		{Label: "primary", H: primary},
		{Label: "replica-0", H: empty},
		{Label: "replica-1", H: nil}, // skipped
		{Label: "replica-2", H: replica},
	}
	var b bytes.Buffer
	obs.NewWriter(&b).Histograms("rcnvm_route_backend_read_latency_seconds", "backend", items, 1e-9)
	return b.String()
}

// bankTelemetries returns three 2-bank telemetries with fractional hit
// rates, the middle one nil.
func bankTelemetries() []*obs.Telemetry {
	a := obs.NewTelemetry(2)
	a.Add([]stats.BankCounters{
		{Reads: 1, Writes: 1, RowHits: 2, RowMisses: 1, Retries: 1},
		{Writebacks: 1, ColHits: 1, ColMisses: 3, QueuePeak: 2, BusBusyPs: 12500},
	})
	c := obs.NewTelemetry(2)
	c.Add([]stats.BankCounters{{ColHits: 1}, {Reads: 1, RowHits: 6, RowMisses: 1}})
	return []*obs.Telemetry{a, nil, c}
}

func renderBanks() string {
	tels := bankTelemetries()
	var b bytes.Buffer
	p := obs.NewWriter(&b)
	p.Banks("rcnvm_bank", tels[0])
	p.Banks("rcnvm_shard_bank", tels...)
	return b.String()
}

func TestCountersGolden(t *testing.T) { checkGolden(t, renderCounters(), countersGolden) }

func TestHistogramGolden(t *testing.T) { checkGolden(t, renderHistograms(), histogramGolden) }

func TestLabeledHistogramGolden(t *testing.T) {
	checkGolden(t, renderLabeledHistograms(), labeledHistogramGolden)
}

func TestBankSeriesGolden(t *testing.T) { checkGolden(t, renderBanks(), bankSeriesGolden) }

const countersGolden = `# TYPE rcnvm_fault_ecc_corrected_total counter
rcnvm_fault_ecc_corrected_total 0
# TYPE rcnvm_fault_ecc_miscorrected_total counter
rcnvm_fault_ecc_miscorrected_total 0
# TYPE rcnvm_fault_ecc_uncorrectable_total counter
rcnvm_fault_ecc_uncorrectable_total 0
# TYPE rcnvm_fault_stuck_bits_total counter
rcnvm_fault_stuck_bits_total 0
# TYPE rcnvm_fault_transient_bits_total counter
rcnvm_fault_transient_bits_total 0
# TYPE rcnvm_fault_writes_total counter
rcnvm_fault_writes_total 0
# TYPE rcnvm_plancache_evictions_total counter
rcnvm_plancache_evictions_total 0
# TYPE rcnvm_plancache_hits_total counter
rcnvm_plancache_hits_total 7
# TYPE rcnvm_plancache_misses_total counter
rcnvm_plancache_misses_total 0
# TYPE rcnvm_server_bad_requests_total counter
rcnvm_server_bad_requests_total 0
# TYPE rcnvm_server_batch_statements_total counter
rcnvm_server_batch_statements_total 0
# TYPE rcnvm_server_batches_total counter
rcnvm_server_batches_total 0
# TYPE rcnvm_server_encode_errors_total counter
rcnvm_server_encode_errors_total 0
# TYPE rcnvm_server_memory_errors_total counter
rcnvm_server_memory_errors_total 0
# TYPE rcnvm_server_panics_total counter
rcnvm_server_panics_total 0
# TYPE rcnvm_server_queries_total counter
rcnvm_server_queries_total 42
# TYPE rcnvm_server_query_errors_total counter
rcnvm_server_query_errors_total 0
# TYPE rcnvm_server_rejected_total counter
rcnvm_server_rejected_total 0
# TYPE rcnvm_server_rejected_drain_total counter
rcnvm_server_rejected_drain_total 0
# TYPE rcnvm_server_rejected_not_ready_total counter
rcnvm_server_rejected_not_ready_total 0
# TYPE rcnvm_server_replay_sims_built_total counter
rcnvm_server_replay_sims_built_total 0
# TYPE rcnvm_server_rows_returned_total counter
rcnvm_server_rows_returned_total 0
# TYPE rcnvm_server_sessions_active gauge
rcnvm_server_sessions_active 3
# TYPE rcnvm_server_sessions_opened_total counter
rcnvm_server_sessions_opened_total 0
# TYPE rcnvm_server_timed_queries_total counter
rcnvm_server_timed_queries_total 0
# TYPE rcnvm_server_timeouts_total counter
rcnvm_server_timeouts_total 0
# TYPE rcnvm_server_traced_queries_total counter
rcnvm_server_traced_queries_total 0
# TYPE rcnvm_wal_appends_total counter
rcnvm_wal_appends_total 0
# TYPE rcnvm_wal_bytes_total counter
rcnvm_wal_bytes_total 1048576
# TYPE rcnvm_wal_checkpoint_ns_total counter
rcnvm_wal_checkpoint_ns_total 0
# TYPE rcnvm_wal_checkpoints_total counter
rcnvm_wal_checkpoints_total 0
# TYPE rcnvm_wal_fsyncs_total counter
rcnvm_wal_fsyncs_total 0
# TYPE rcnvm_wal_recovery_ns_total counter
rcnvm_wal_recovery_ns_total 0
# TYPE rcnvm_wal_recovery_replayed_total counter
rcnvm_wal_recovery_replayed_total 0
# TYPE rcnvm_wal_recovery_torn_bytes_total counter
rcnvm_wal_recovery_torn_bytes_total 0
# TYPE rcnvm_server_pool_workers gauge
rcnvm_server_pool_workers 4
# TYPE rcnvm_test_fraction gauge
rcnvm_test_fraction 0.125
# TYPE rcnvm_test_large gauge
rcnvm_test_large 2e+06
`

const histogramGolden = `# TYPE rcnvm_test_latency_seconds histogram
rcnvm_test_latency_seconds_bucket{le="1e-09"} 2
rcnvm_test_latency_seconds_bucket{le="3.0000000000000004e-09"} 3
rcnvm_test_latency_seconds_bucket{le="7.000000000000001e-09"} 3
rcnvm_test_latency_seconds_bucket{le="1.5000000000000002e-08"} 3
rcnvm_test_latency_seconds_bucket{le="3.1e-08"} 3
rcnvm_test_latency_seconds_bucket{le="6.300000000000001e-08"} 3
rcnvm_test_latency_seconds_bucket{le="1.27e-07"} 3
rcnvm_test_latency_seconds_bucket{le="2.55e-07"} 3
rcnvm_test_latency_seconds_bucket{le="5.110000000000001e-07"} 3
rcnvm_test_latency_seconds_bucket{le="1.023e-06"} 4
rcnvm_test_latency_seconds_bucket{le="2.047e-06"} 4
rcnvm_test_latency_seconds_bucket{le="4.095000000000001e-06"} 4
rcnvm_test_latency_seconds_bucket{le="8.191e-06"} 4
rcnvm_test_latency_seconds_bucket{le="1.6383000000000002e-05"} 4
rcnvm_test_latency_seconds_bucket{le="3.2767e-05"} 4
rcnvm_test_latency_seconds_bucket{le="6.5535e-05"} 4
rcnvm_test_latency_seconds_bucket{le="0.00013107100000000002"} 5
rcnvm_test_latency_seconds_bucket{le="0.000262143"} 5
rcnvm_test_latency_seconds_bucket{le="0.000524287"} 5
rcnvm_test_latency_seconds_bucket{le="0.0010485750000000002"} 5
rcnvm_test_latency_seconds_bucket{le="0.0020971510000000002"} 5
rcnvm_test_latency_seconds_bucket{le="0.004194303"} 5
rcnvm_test_latency_seconds_bucket{le="0.008388607000000001"} 5
rcnvm_test_latency_seconds_bucket{le="0.016777215"} 5
rcnvm_test_latency_seconds_bucket{le="0.033554431"} 5
rcnvm_test_latency_seconds_bucket{le="0.067108863"} 5
rcnvm_test_latency_seconds_bucket{le="0.134217727"} 5
rcnvm_test_latency_seconds_bucket{le="0.268435455"} 5
rcnvm_test_latency_seconds_bucket{le="0.5368709110000001"} 5
rcnvm_test_latency_seconds_bucket{le="1.073741823"} 5
rcnvm_test_latency_seconds_bucket{le="2.147483647"} 5
rcnvm_test_latency_seconds_bucket{le="4.294967295"} 5
rcnvm_test_latency_seconds_bucket{le="8.589934591"} 5
rcnvm_test_latency_seconds_bucket{le="17.179869183"} 5
rcnvm_test_latency_seconds_bucket{le="34.359738367000006"} 5
rcnvm_test_latency_seconds_bucket{le="68.719476735"} 5
rcnvm_test_latency_seconds_bucket{le="137.43895347100002"} 5
rcnvm_test_latency_seconds_bucket{le="274.877906943"} 5
rcnvm_test_latency_seconds_bucket{le="549.755813887"} 5
rcnvm_test_latency_seconds_bucket{le="1099.511627775"} 5
rcnvm_test_latency_seconds_bucket{le="2199.023255551"} 6
rcnvm_test_latency_seconds_bucket{le="+Inf"} 6
rcnvm_test_latency_seconds_sum 1099.511764581
rcnvm_test_latency_seconds_count 6
# TYPE rcnvm_test_latency_seconds_quantile gauge
rcnvm_test_latency_seconds_quantile{quantile="0.5"} 4e-09
rcnvm_test_latency_seconds_quantile{quantile="0.95"} 1099.511640121
rcnvm_test_latency_seconds_quantile{quantile="0.99"} 1099.511640121
# TYPE rcnvm_test_empty_seconds histogram
rcnvm_test_empty_seconds_bucket{le="+Inf"} 0
rcnvm_test_empty_seconds_sum 0
rcnvm_test_empty_seconds_count 0
# TYPE rcnvm_test_empty_seconds_quantile gauge
rcnvm_test_empty_seconds_quantile{quantile="0.5"} 0
rcnvm_test_empty_seconds_quantile{quantile="0.95"} 0
rcnvm_test_empty_seconds_quantile{quantile="0.99"} 0
`

const labeledHistogramGolden = `# TYPE rcnvm_route_backend_read_latency_seconds histogram
rcnvm_route_backend_read_latency_seconds_bucket{backend="primary",le="1e-09"} 0
rcnvm_route_backend_read_latency_seconds_bucket{backend="primary",le="3.0000000000000004e-09"} 0
rcnvm_route_backend_read_latency_seconds_bucket{backend="primary",le="7.000000000000001e-09"} 1
rcnvm_route_backend_read_latency_seconds_bucket{backend="primary",le="1.5000000000000002e-08"} 1
rcnvm_route_backend_read_latency_seconds_bucket{backend="primary",le="3.1e-08"} 1
rcnvm_route_backend_read_latency_seconds_bucket{backend="primary",le="6.300000000000001e-08"} 1
rcnvm_route_backend_read_latency_seconds_bucket{backend="primary",le="1.27e-07"} 1
rcnvm_route_backend_read_latency_seconds_bucket{backend="primary",le="2.55e-07"} 1
rcnvm_route_backend_read_latency_seconds_bucket{backend="primary",le="5.110000000000001e-07"} 1
rcnvm_route_backend_read_latency_seconds_bucket{backend="primary",le="1.023e-06"} 1
rcnvm_route_backend_read_latency_seconds_bucket{backend="primary",le="2.047e-06"} 1
rcnvm_route_backend_read_latency_seconds_bucket{backend="primary",le="4.095000000000001e-06"} 2
rcnvm_route_backend_read_latency_seconds_bucket{backend="primary",le="+Inf"} 2
rcnvm_route_backend_read_latency_seconds_sum{backend="primary"} 2.5070000000000003e-06
rcnvm_route_backend_read_latency_seconds_count{backend="primary"} 2
rcnvm_route_backend_read_latency_seconds_bucket{backend="replica-0",le="+Inf"} 0
rcnvm_route_backend_read_latency_seconds_sum{backend="replica-0"} 0
rcnvm_route_backend_read_latency_seconds_count{backend="replica-0"} 0
rcnvm_route_backend_read_latency_seconds_bucket{backend="replica-2",le="1e-09"} 1
rcnvm_route_backend_read_latency_seconds_bucket{backend="replica-2",le="3.0000000000000004e-09"} 1
rcnvm_route_backend_read_latency_seconds_bucket{backend="replica-2",le="7.000000000000001e-09"} 1
rcnvm_route_backend_read_latency_seconds_bucket{backend="replica-2",le="1.5000000000000002e-08"} 1
rcnvm_route_backend_read_latency_seconds_bucket{backend="replica-2",le="3.1e-08"} 1
rcnvm_route_backend_read_latency_seconds_bucket{backend="replica-2",le="6.300000000000001e-08"} 1
rcnvm_route_backend_read_latency_seconds_bucket{backend="replica-2",le="1.27e-07"} 1
rcnvm_route_backend_read_latency_seconds_bucket{backend="replica-2",le="2.55e-07"} 1
rcnvm_route_backend_read_latency_seconds_bucket{backend="replica-2",le="5.110000000000001e-07"} 2
rcnvm_route_backend_read_latency_seconds_bucket{backend="replica-2",le="+Inf"} 2
rcnvm_route_backend_read_latency_seconds_sum{backend="replica-2"} 3.0000000000000004e-07
rcnvm_route_backend_read_latency_seconds_count{backend="replica-2"} 2
# TYPE rcnvm_route_backend_read_latency_seconds_quantile gauge
rcnvm_route_backend_read_latency_seconds_quantile{backend="primary",quantile="0.5"} 8e-09
rcnvm_route_backend_read_latency_seconds_quantile{backend="primary",quantile="0.95"} 2.5e-06
rcnvm_route_backend_read_latency_seconds_quantile{backend="primary",quantile="0.99"} 2.5e-06
rcnvm_route_backend_read_latency_seconds_quantile{backend="replica-0",quantile="0.5"} 0
rcnvm_route_backend_read_latency_seconds_quantile{backend="replica-0",quantile="0.95"} 0
rcnvm_route_backend_read_latency_seconds_quantile{backend="replica-0",quantile="0.99"} 0
rcnvm_route_backend_read_latency_seconds_quantile{backend="replica-2",quantile="0.5"} 2e-09
rcnvm_route_backend_read_latency_seconds_quantile{backend="replica-2",quantile="0.95"} 3.0000000000000004e-07
rcnvm_route_backend_read_latency_seconds_quantile{backend="replica-2",quantile="0.99"} 3.0000000000000004e-07
`

const bankSeriesGolden = `# TYPE rcnvm_bank_reads_total counter
rcnvm_bank_reads_total{bank="0"} 1
rcnvm_bank_reads_total{bank="1"} 0
# TYPE rcnvm_bank_writes_total counter
rcnvm_bank_writes_total{bank="0"} 1
rcnvm_bank_writes_total{bank="1"} 0
# TYPE rcnvm_bank_writebacks_total counter
rcnvm_bank_writebacks_total{bank="0"} 0
rcnvm_bank_writebacks_total{bank="1"} 1
# TYPE rcnvm_bank_row_buffer_hits_total counter
rcnvm_bank_row_buffer_hits_total{bank="0"} 2
rcnvm_bank_row_buffer_hits_total{bank="1"} 0
# TYPE rcnvm_bank_row_buffer_misses_total counter
rcnvm_bank_row_buffer_misses_total{bank="0"} 1
rcnvm_bank_row_buffer_misses_total{bank="1"} 0
# TYPE rcnvm_bank_col_buffer_hits_total counter
rcnvm_bank_col_buffer_hits_total{bank="0"} 0
rcnvm_bank_col_buffer_hits_total{bank="1"} 1
# TYPE rcnvm_bank_col_buffer_misses_total counter
rcnvm_bank_col_buffer_misses_total{bank="0"} 0
rcnvm_bank_col_buffer_misses_total{bank="1"} 3
# TYPE rcnvm_bank_ecc_retries_total counter
rcnvm_bank_ecc_retries_total{bank="0"} 1
rcnvm_bank_ecc_retries_total{bank="1"} 0
# TYPE rcnvm_bank_bus_busy_ps_total counter
rcnvm_bank_bus_busy_ps_total{bank="0"} 0
rcnvm_bank_bus_busy_ps_total{bank="1"} 12500
# TYPE rcnvm_bank_queue_depth gauge
rcnvm_bank_queue_depth{bank="0"} 0
rcnvm_bank_queue_depth{bank="1"} 0
# TYPE rcnvm_bank_queue_peak gauge
rcnvm_bank_queue_peak{bank="0"} 0
rcnvm_bank_queue_peak{bank="1"} 2
# TYPE rcnvm_bank_row_buffer_hit_rate gauge
rcnvm_bank_row_buffer_hit_rate{bank="0"} 0.6666666666666666
rcnvm_bank_row_buffer_hit_rate{bank="1"} 0
# TYPE rcnvm_bank_col_buffer_hit_rate gauge
rcnvm_bank_col_buffer_hit_rate{bank="0"} 0
rcnvm_bank_col_buffer_hit_rate{bank="1"} 0.25
# TYPE rcnvm_shard_bank_reads_total counter
rcnvm_shard_bank_reads_total{shard="0",bank="0"} 1
rcnvm_shard_bank_reads_total{shard="0",bank="1"} 0
rcnvm_shard_bank_reads_total{shard="2",bank="0"} 0
rcnvm_shard_bank_reads_total{shard="2",bank="1"} 1
# TYPE rcnvm_shard_bank_writes_total counter
rcnvm_shard_bank_writes_total{shard="0",bank="0"} 1
rcnvm_shard_bank_writes_total{shard="0",bank="1"} 0
rcnvm_shard_bank_writes_total{shard="2",bank="0"} 0
rcnvm_shard_bank_writes_total{shard="2",bank="1"} 0
# TYPE rcnvm_shard_bank_writebacks_total counter
rcnvm_shard_bank_writebacks_total{shard="0",bank="0"} 0
rcnvm_shard_bank_writebacks_total{shard="0",bank="1"} 1
rcnvm_shard_bank_writebacks_total{shard="2",bank="0"} 0
rcnvm_shard_bank_writebacks_total{shard="2",bank="1"} 0
# TYPE rcnvm_shard_bank_row_buffer_hits_total counter
rcnvm_shard_bank_row_buffer_hits_total{shard="0",bank="0"} 2
rcnvm_shard_bank_row_buffer_hits_total{shard="0",bank="1"} 0
rcnvm_shard_bank_row_buffer_hits_total{shard="2",bank="0"} 0
rcnvm_shard_bank_row_buffer_hits_total{shard="2",bank="1"} 6
# TYPE rcnvm_shard_bank_row_buffer_misses_total counter
rcnvm_shard_bank_row_buffer_misses_total{shard="0",bank="0"} 1
rcnvm_shard_bank_row_buffer_misses_total{shard="0",bank="1"} 0
rcnvm_shard_bank_row_buffer_misses_total{shard="2",bank="0"} 0
rcnvm_shard_bank_row_buffer_misses_total{shard="2",bank="1"} 1
# TYPE rcnvm_shard_bank_col_buffer_hits_total counter
rcnvm_shard_bank_col_buffer_hits_total{shard="0",bank="0"} 0
rcnvm_shard_bank_col_buffer_hits_total{shard="0",bank="1"} 1
rcnvm_shard_bank_col_buffer_hits_total{shard="2",bank="0"} 1
rcnvm_shard_bank_col_buffer_hits_total{shard="2",bank="1"} 0
# TYPE rcnvm_shard_bank_col_buffer_misses_total counter
rcnvm_shard_bank_col_buffer_misses_total{shard="0",bank="0"} 0
rcnvm_shard_bank_col_buffer_misses_total{shard="0",bank="1"} 3
rcnvm_shard_bank_col_buffer_misses_total{shard="2",bank="0"} 0
rcnvm_shard_bank_col_buffer_misses_total{shard="2",bank="1"} 0
# TYPE rcnvm_shard_bank_ecc_retries_total counter
rcnvm_shard_bank_ecc_retries_total{shard="0",bank="0"} 1
rcnvm_shard_bank_ecc_retries_total{shard="0",bank="1"} 0
rcnvm_shard_bank_ecc_retries_total{shard="2",bank="0"} 0
rcnvm_shard_bank_ecc_retries_total{shard="2",bank="1"} 0
# TYPE rcnvm_shard_bank_bus_busy_ps_total counter
rcnvm_shard_bank_bus_busy_ps_total{shard="0",bank="0"} 0
rcnvm_shard_bank_bus_busy_ps_total{shard="0",bank="1"} 12500
rcnvm_shard_bank_bus_busy_ps_total{shard="2",bank="0"} 0
rcnvm_shard_bank_bus_busy_ps_total{shard="2",bank="1"} 0
# TYPE rcnvm_shard_bank_queue_depth gauge
rcnvm_shard_bank_queue_depth{shard="0",bank="0"} 0
rcnvm_shard_bank_queue_depth{shard="0",bank="1"} 0
rcnvm_shard_bank_queue_depth{shard="2",bank="0"} 0
rcnvm_shard_bank_queue_depth{shard="2",bank="1"} 0
# TYPE rcnvm_shard_bank_queue_peak gauge
rcnvm_shard_bank_queue_peak{shard="0",bank="0"} 0
rcnvm_shard_bank_queue_peak{shard="0",bank="1"} 2
rcnvm_shard_bank_queue_peak{shard="2",bank="0"} 0
rcnvm_shard_bank_queue_peak{shard="2",bank="1"} 0
# TYPE rcnvm_shard_bank_row_buffer_hit_rate gauge
rcnvm_shard_bank_row_buffer_hit_rate{shard="0",bank="0"} 0.6666666666666666
rcnvm_shard_bank_row_buffer_hit_rate{shard="0",bank="1"} 0
rcnvm_shard_bank_row_buffer_hit_rate{shard="2",bank="0"} 0
rcnvm_shard_bank_row_buffer_hit_rate{shard="2",bank="1"} 0.8571428571428571
# TYPE rcnvm_shard_bank_col_buffer_hit_rate gauge
rcnvm_shard_bank_col_buffer_hit_rate{shard="0",bank="0"} 0
rcnvm_shard_bank_col_buffer_hit_rate{shard="0",bank="1"} 0.25
rcnvm_shard_bank_col_buffer_hit_rate{shard="2",bank="0"} 1
rcnvm_shard_bank_col_buffer_hit_rate{shard="2",bank="1"} 0
`
