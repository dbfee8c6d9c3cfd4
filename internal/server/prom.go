package server

import (
	"fmt"
	"maps"
	"net/http"
	"strconv"

	"rcnvm/internal/durable"
	"rcnvm/internal/obs"
	"rcnvm/internal/stats"
)

// handleMetrics renders GET /metrics in the Prometheus text format:
// every server and fault counter, the statement-latency histogram with
// headline quantiles, admission occupancy gauges, and the per-bank
// telemetry series of timed queries' RC-NVM replays, summed over shards
// and, on several shards, per shard.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	p := obs.NewWriter(w)

	// Every declared series renders from the first scrape; a volatile
	// server renders the wal.* series too, at 0.
	counters := s.counters()
	if s.opts.Durable == nil {
		maps.Copy(counters, stats.NewCounters(&durable.Family).Snapshot())
	}
	p.Counters("rcnvm", counters, &Family, &durable.Family)

	p.Histograms("rcnvm_server_query_latency_seconds", "", []obs.LabeledHistogram{{H: s.met.Latency}}, 1e-9)

	pool := s.pool()
	p.Gauge("rcnvm_server_pool_workers", float64(pool.Workers))
	p.Gauge("rcnvm_server_pool_depth", float64(pool.Depth))
	p.Gauge("rcnvm_server_pool_capacity", float64(pool.Capacity))
	p.Gauge("rcnvm_server_shards", float64(s.Cluster().N()))

	// Replication-lag gauges, present only on a read replica: the scalar
	// epoch, caught-up and state age, then per-shard lag with shard as a
	// label.
	if st, ok := s.replicationStatus(); ok {
		caught := 0.0
		if st.CaughtUp {
			caught = 1
		}
		p.Type("rcnvm_cluster_replica_epoch", "gauge")
		p.Sample("rcnvm_cluster_replica_epoch", strconv.FormatUint(st.Epoch, 10))
		p.Gauge("rcnvm_cluster_replica_caught_up", caught)
		p.Gauge("rcnvm_cluster_replica_state_age_seconds", st.StateAgeSeconds)
		lag := func(name string, value func(ReplicaShardLag) string) {
			p.Type(name, "gauge")
			for _, sh := range st.Shards {
				p.Sample(name, value(sh), obs.Label{Name: "shard", Value: strconv.Itoa(sh.Shard)})
			}
		}
		lag("rcnvm_cluster_replica_lag_records", func(sh ReplicaShardLag) string { return strconv.FormatInt(sh.RecordsBehind, 10) })
		lag("rcnvm_cluster_replica_lag_bytes", func(sh ReplicaShardLag) string { return strconv.FormatInt(sh.BytesBehind, 10) })
		lag("rcnvm_cluster_replica_last_apply_age_seconds", func(sh ReplicaShardLag) string { return fmt.Sprintf("%g", sh.LastApplyAgeSeconds) })
	}

	p.Banks("rcnvm_bank", s.Telemetry())
	if len(s.tels) > 1 {
		// The aggregate rcnvm_bank_* series stay exactly as on a 1-shard
		// server; the shard-labeled families add per-channel attribution.
		p.Banks("rcnvm_shard_bank", s.tels...)
	}
}

// handleBanks renders GET /stats/banks: the per-bank telemetry snapshot
// (cumulative counters and hit rates) as JSON. The default payload sums
// the shards; ?shard=i returns one shard's own series.
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
