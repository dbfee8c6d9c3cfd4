package server

import (
	"fmt"
	"net/http"
	"strconv"

	"rcnvm/internal/durable"
	"rcnvm/internal/obs"
	"rcnvm/internal/stats"
)

// handleMetrics renders GET /metrics in the Prometheus text format:
// every server and fault counter, the statement-latency histogram with
// headline quantiles, worker-pool occupancy gauges, and the per-bank
// telemetry series of timed queries' RC-NVM replays, summed over shards
// and, on several shards, per shard.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)

	// Every declared series renders from the first scrape: one /stats
	// omits (counter not fired yet, fault injection off, volatile server,
	// plan cache disabled) reads 0 here.
	counters := s.counters()
	stats.Prefill(counters, &Family, &durable.Family)
	obs.WriteCounters(w, "rcnvm", counters, &Family, &durable.Family)

	obs.WriteHistogram(w, "rcnvm_server_query_latency_seconds", s.met.Latency, 1e-9)

	obs.WriteGauge(w, "rcnvm_server_pool_workers", float64(s.pool.Workers()))
	obs.WriteGauge(w, "rcnvm_server_pool_depth", float64(s.pool.Depth()))
	obs.WriteGauge(w, "rcnvm_server_pool_capacity", float64(s.pool.Capacity()))
	obs.WriteGauge(w, "rcnvm_server_shards", float64(s.Cluster().N()))

	// Replication-lag gauges, present only on a read replica.
	if st, ok := s.replicationStatus(); ok {
		writeReplicationProm(w, st)
	}

	s.Telemetry().WriteProm(w, "rcnvm_bank")
	if len(s.tels) > 1 {
		// The aggregate rcnvm_bank_* series stay exactly as on a 1-shard
		// server; the shard-labeled families add per-channel attribution.
		obs.WritePromSharded(w, "rcnvm_shard_bank", s.tels)
	}
}

// handleBanks renders GET /stats/banks: the per-bank telemetry snapshot
// (cumulative counters, hit rates, and the ring-buffer time series) as
// JSON. The default payload sums the shards; ?shard=i returns one shard's
// own series.
func (s *Server) handleBanks(w http.ResponseWriter, r *http.Request) {
	if q := r.URL.Query().Get("shard"); q != "" {
		i, err := strconv.Atoi(q)
		if err != nil || i < 0 || i >= s.Cluster().N() {
			http.Error(w, fmt.Sprintf("shard must be in [0,%d)", s.Cluster().N()), http.StatusBadRequest)
			return
		}
		s.front.WriteJSON(w, http.StatusOK, s.tels[i].Snapshot())
		return
	}
	s.front.WriteJSON(w, http.StatusOK, s.Telemetry().Snapshot())
}
