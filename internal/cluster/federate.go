package cluster

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"rcnvm/internal/obs"
)

// Federated cluster observability: the router scrapes every backend's own
// /metrics and /readyz concurrently (bounded by scrapeTimeout) and
// re-exposes them as one cluster-wide view. Series are re-labeled with
// node="primary"|"replica-N" and merged so each metric family keeps a
// single TYPE line; a backend that cannot answer is reported as
// cluster_node_up 0 for its node, never as a scrape error — a half-dead
// cluster is exactly when the federated view matters most.

const (
	// NodeUp is the gauge naming the per-node reachability of the
	// federated scrape (1 scraped, 0 unreachable or errored).
	NodeUp = "rcnvm_cluster_node_up"
	// NodeReady is the gauge naming each node's readiness as its /readyz
	// answered during the scrape (1 ready, 0 not ready or unreachable).
	NodeReady = "rcnvm_cluster_node_ready"
)

// scrapeResult is one backend's answer to a federated scrape.
type scrapeResult struct {
	n     *node
	body  []byte // its /metrics exposition
	err   error  // why body could not be read
	ready bool
}

// scrapeAll fetches every backend's /metrics and /readyz concurrently,
// the /metrics with the router's scrape client and the /readyz with the
// health checker's probe, so a dead node costs one scrapeTimeout. Results
// come back in canonical node order (primary first, then replicas).
func (r *Router) scrapeAll() []scrapeResult {
	nodes := r.allNodes()
	out := make([]scrapeResult, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		out[i].n = n
		wg.Add(2)
		go func() {
			defer wg.Done()
			out[i].body, out[i].err = r.fetchMetrics(n)
		}()
		go func() {
			defer wg.Done()
			out[i].ready, _ = r.check.ready(n.be.HTTP)
		}()
	}
	wg.Wait()
	return out
}

// fetchMetrics reads one backend's /metrics body.
func (r *Router) fetchMetrics(n *node) ([]byte, error) {
	resp, err := r.scrape.Get("http://" + n.be.HTTP + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// handleClusterMetrics renders GET /cluster/metrics: every backend's
// /metrics exposition parsed and merged with node as the first label of
// each sample, one TYPE line per family, preceded by the per-node
// reachability and readiness gauges. Families are sorted by name; within
// a family samples keep node order.
func (r *Router) handleClusterMetrics(w http.ResponseWriter, req *http.Request) {
	results := r.scrapeAll()
	w.Header().Set("Content-Type", obs.ContentType)

	up := obs.Family{Name: NodeUp, Type: "gauge"}
	ready := obs.Family{Name: NodeReady, Type: "gauge"}
	var fams []obs.Family
	for _, res := range results {
		node := obs.Label{Name: "node", Value: res.n.name}
		if res.err == nil {
			fams = obs.Merge(fams, obs.Parse(res.body), node)
		}
		up.Samples = append(up.Samples, obs.Sample{Name: NodeUp, Labels: []obs.Label{node}, Value: flag(res.err == nil)})
		ready.Samples = append(ready.Samples, obs.Sample{Name: NodeReady, Labels: []obs.Label{node}, Value: flag(res.ready)})
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	p := obs.NewWriter(w)
	p.Family(up)
	p.Family(ready)
	for _, f := range fams {
		p.Family(f)
	}
}

// flag renders a boolean gauge value.
func flag(b bool) string {
	if b {
		return "1"
	}
	return "0"
}
