// Command rcnvm-clusterstat renders a one-screen topology view of a
// replicated RC-NVM cluster from its router's two expositions, read with
// obs.Parse: GET /metrics (the route counters and each replica's ejection
// count and router-side read latency) and the federated GET
// /cluster/metrics (per node the reachability, readiness, replication
// lag, query counter and tail latency).
//
//	$ rcnvm-clusterstat -router localhost:7277
//	$ rcnvm-clusterstat -router localhost:7277 -watch -interval 1s
//
// QPS is computed client-side from consecutive samples of each node's
// cumulative query counter (the first render shows "-" since one sample
// has no rate). -watch redraws in place. Why a replica was ejected is in
// the router's log ("replica health changed" carries the reason), and
// `curl <router>/cluster/metrics` gives the raw federated exposition.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"rcnvm/internal/cluster"
	"rcnvm/internal/obs"
)

func main() {
	router := flag.String("router", "localhost:7277", "router HTTP address (host:port)")
	watch := flag.Bool("watch", false, "redraw continuously instead of printing once")
	interval := flag.Duration("interval", 2*time.Second, "refresh period with -watch")
	timeout := flag.Duration("timeout", 5*time.Second, "HTTP fetch timeout")
	flag.Parse()

	hc := &http.Client{Timeout: *timeout}
	var prev *sample
	for {
		cur, err := fetch(hc, *router)
		if err != nil {
			if !*watch {
				fatal(err)
			}
			fmt.Fprintln(os.Stderr, err)
			time.Sleep(*interval)
			continue
		}
		if *watch {
			// Clear the screen and home the cursor so the view redraws in
			// place like top(1).
			fmt.Print("\x1b[2J\x1b[H")
		}
		render(os.Stdout, *router, prev, cur)
		if !*watch {
			return
		}
		prev = cur
		time.Sleep(*interval)
	}
}

// sample is one read of the router's expositions: its own /metrics and
// the federated /cluster/metrics, parsed.
type sample struct {
	at              time.Time
	router, cluster []obs.Family
}

// fetch reads both of the router's expositions.
func fetch(hc *http.Client, router string) (*sample, error) {
	s := &sample{at: time.Now()}
	for _, e := range []struct {
		path string
		fams *[]obs.Family
	}{{"/metrics", &s.router}, {"/cluster/metrics", &s.cluster}} {
		body, err := get(hc, "http://"+router+e.path)
		if err != nil {
			return nil, err
		}
		*e.fams = obs.Parse(body)
	}
	return s, nil
}

func get(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// values returns the value of every sample called name that carries each
// of the labels want, in exposition order.
func values(fams []obs.Family, name string, want ...obs.Label) []float64 {
	var out []float64
	for _, f := range fams {
		if !strings.HasPrefix(name, f.Name) {
			continue
		}
		for _, s := range f.Samples {
			if s.Name != name || !hasLabels(s.Labels, want) {
				continue
			}
			if v, err := strconv.ParseFloat(s.Value, 64); err == nil {
				out = append(out, v)
			}
		}
	}
	return out
}

// value is the first of values (0 without one).
func value(fams []obs.Family, name string, want ...obs.Label) float64 {
	if vs := values(fams, name, want...); len(vs) > 0 {
		return vs[0]
	}
	return 0
}

func hasLabels(have, want []obs.Label) bool {
	for _, w := range want {
		if !slices.Contains(have, w) {
			return false
		}
	}
	return true
}

// qps formats a node's query rate between two samples ("-" without a
// prior sample of the node).
func (s *sample) qps(prev *sample, node obs.Label) string {
	if prev == nil {
		return "-"
	}
	q := values(s.cluster, "rcnvm_server_queries_total", node)
	p := values(prev.cluster, "rcnvm_server_queries_total", node)
	dt := s.at.Sub(prev.at).Seconds()
	if len(q) == 0 || len(p) == 0 || dt <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", max(q[0]-p[0], 0)/dt) // a drop is a node restart
}

// lag renders a node's replication lag: the worst shard's records behind
// ("0" when caught up, "-" for the primary or a node that did not answer).
func (s *sample) lag(node obs.Label) string {
	lags := values(s.cluster, "rcnvm_cluster_replica_lag_records", node)
	if len(lags) == 0 {
		return "-"
	}
	var worst float64
	for _, l := range lags {
		worst = max(worst, l)
	}
	if worst == 0 && value(s.cluster, "rcnvm_cluster_replica_caught_up", node) == 0 {
		return "catching-up"
	}
	return strconv.FormatFloat(worst, 'f', -1, 64)
}

func render(w io.Writer, router string, prev, cur *sample) {
	route := func(name string) int64 { return int64(value(cur.router, obs.MetricName("rcnvm", name)+"_total")) }
	fmt.Fprintf(w, "cluster via %s at %s\n", router, cur.at.Format("15:04:05"))
	fmt.Fprintf(w, "router: reads=%d writes=%d failovers=%d ejections=%d readmissions=%d\n\n",
		route(cluster.RouteReads), route(cluster.RouteWrites), route(cluster.RouteReadFailovers),
		route(cluster.RouteEjections), route(cluster.RouteReadmissions))

	p99 := obs.Label{Name: "quantile", Value: "0.99"}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NODE\tROLE\tUP\tREADY\tLAG(recs)\tQPS\tP99(ms)\tRT-P99(ms)\tEJECT")
	for _, f := range cur.cluster {
		if f.Name != cluster.NodeUp {
			continue
		}
		for _, up := range f.Samples {
			node := up.Labels[0]
			backend := obs.Label{Name: "backend", Value: node.Value}
			role := "replica"
			if node.Value == "primary" {
				role = "primary"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%.2f\t%.2f\t%d\n",
				node.Value, role, mark(up.Value == "1"), mark(value(cur.cluster, cluster.NodeReady, node) == 1),
				cur.lag(node), cur.qps(prev, node),
				value(cur.cluster, "rcnvm_server_query_latency_seconds_quantile", node, p99)*1e3,
				value(cur.router, "rcnvm_route_backend_read_latency_seconds_quantile", backend, p99)*1e3,
				int64(value(cur.router, "rcnvm_route_backend_ejections_total", backend)))
		}
	}
	tw.Flush()
}

func mark(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rcnvm-clusterstat:", err)
	os.Exit(1)
}
