package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"rcnvm/internal/obs"
	"rcnvm/internal/server"
)

// Federated cluster observability: the router scrapes every backend's own
// /metrics and /stats endpoints concurrently (bounded by scrapeTimeout)
// and re-exposes them as one cluster-wide view. Series are re-labeled
// with node="primary"|"replica-N" and merged so each metric family keeps
// a single TYPE line; a backend that cannot answer is reported as
// cluster_node_up 0 for its node, never as a scrape error — a half-dead
// cluster is exactly when the federated view matters most.

// NodeUp is the gauge naming the per-node reachability of the federated
// scrape (1 scraped, 0 unreachable or errored).
const NodeUp = "rcnvm_cluster_node_up"

// scrapeResult is one backend's answer to a federated fetch.
type scrapeResult struct {
	n    *node
	body []byte
	err  error
}

// scrapeAll fetches path from every backend concurrently with the
// router's scrape client. Results come back in canonical node order
// (primary first, then replicas).
func (r *Router) scrapeAll(path string) []scrapeResult {
	nodes := r.allNodes()
	out := make([]scrapeResult, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			out[i] = scrapeResult{n: n}
			resp, err := r.scrape.Get("http://" + n.be.HTTP + path)
			if err != nil {
				out[i].err = err
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
			if err != nil {
				out[i].err = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				out[i].err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
				return
			}
			out[i].body = body
		}(i, n)
	}
	wg.Wait()
	return out
}

// handleClusterMetrics renders GET /cluster/metrics: every backend's
// /metrics exposition parsed and merged with node as the first label of
// each sample, one TYPE line per family, preceded by the per-node
// reachability gauge. Families are sorted by name; within a family
// samples keep node order.
func (r *Router) handleClusterMetrics(w http.ResponseWriter, req *http.Request) {
	results := r.scrapeAll("/metrics")
	w.Header().Set("Content-Type", obs.ContentType)

	up := obs.Family{Name: NodeUp, Type: "gauge"}
	var fams []obs.Family
	for _, res := range results {
		node := obs.Label{Name: "node", Value: res.n.name}
		v := "0"
		if res.err == nil {
			v = "1"
			fams = obs.Merge(fams, obs.Parse(res.body), node)
		}
		up.Samples = append(up.Samples, obs.Sample{Name: NodeUp, Labels: []obs.Label{node}, Value: v})
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	p := obs.NewWriter(w)
	p.Family(up)
	for _, f := range fams {
		p.Family(f)
	}
}

// ClusterNodeStats is one backend's row in the /cluster/stats payload:
// the router's view of the node (rotation health, probe RTT, failure
// evidence) joined with the node's own /stats snapshot and readiness.
type ClusterNodeStats struct {
	Node    string `json:"node"`
	Backend string `json:"backend"`
	Role    string `json:"role"` // "primary" or "replica"
	// Up reports whether the /stats scrape answered; the fields below it
	// are only meaningful when true.
	Up          bool   `json:"up"`
	Error       string `json:"error,omitempty"`
	Ready       bool   `json:"ready"`
	ReadyReason string `json:"ready_reason,omitempty"`
	// Healthy is the router's rotation verdict (always true for the
	// primary, which has no rotation to leave).
	Healthy     bool    `json:"healthy"`
	ProbeRTTMs  float64 `json:"probe_rtt_ms"`
	LastFailure string  `json:"last_failure,omitempty"`
	Ejections   int64   `json:"ejections"`

	Queries int64   `json:"queries"`
	P50Ms   float64 `json:"p50_ms"`
	P99Ms   float64 `json:"p99_ms"`
	// RouterReadP99Ms is the router-side p99 of reads served by this node
	// (includes the wire, excludes dials) — the latency clients actually
	// see, as opposed to the node's own P99Ms.
	RouterReadP99Ms float64 `json:"router_read_p99_ms"`

	Replication *server.ReplicationStatus `json:"replication,omitempty"`
}

// ClusterStats is the GET /cluster/stats payload: the router's own
// counters plus one row per backend.
type ClusterStats struct {
	Router RouterStats        `json:"router"`
	Nodes  []ClusterNodeStats `json:"nodes"`
}

// ClusterStats assembles the federated JSON view: concurrent /stats and
// /readyz fetches against every backend, joined with the router's health
// and latency state. Unreachable nodes appear with Up=false.
func (r *Router) ClusterStats() ClusterStats {
	cs := ClusterStats{Router: r.Stats()}
	results := r.scrapeAll("/stats")
	type readiness struct {
		ok     bool
		reason string
	}
	ready := make([]readiness, len(results))
	var wg sync.WaitGroup
	for i, res := range results {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			ok, reason := r.check.ready(n.be.HTTP)
			ready[i] = readiness{ok: ok, reason: reason}
		}(i, res.n)
	}
	wg.Wait()
	for i, res := range results {
		n := res.n
		row := ClusterNodeStats{
			Node:            n.name,
			Backend:         n.be.String(),
			Role:            "replica",
			Healthy:         n.healthy.Load(),
			ProbeRTTMs:      float64(n.rttNanos.Load()) / 1e6,
			LastFailure:     n.failureReason(),
			Ejections:       n.ejections.Load(),
			Ready:           ready[i].ok,
			ReadyReason:     ready[i].reason,
			RouterReadP99Ms: float64(n.lat.Quantile(0.99)) / 1e6,
		}
		if n == r.primary {
			row.Role = "primary"
		}
		if res.err != nil {
			row.Error = res.err.Error()
		} else {
			var snap server.StatsSnapshot
			if err := json.Unmarshal(res.body, &snap); err != nil {
				row.Error = fmt.Sprintf("decode /stats: %v", err)
			} else {
				row.Up = true
				row.Queries = snap.Counters[server.Queries]
				row.P50Ms = float64(snap.Latency.P50Ns) / 1e6
				row.P99Ms = float64(snap.Latency.P99Ns) / 1e6
				row.Replication = snap.Replication
			}
		}
		cs.Nodes = append(cs.Nodes, row)
	}
	return cs
}

func (r *Router) handleClusterStats(w http.ResponseWriter, req *http.Request) {
	r.front.WriteJSON(w, http.StatusOK, r.ClusterStats())
}
