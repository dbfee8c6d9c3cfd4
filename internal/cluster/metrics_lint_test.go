package cluster

import (
	"net/http"
	"os"
	"strings"
	"testing"

	"rcnvm/internal/durable"
	"rcnvm/internal/obs"
	"rcnvm/internal/server"
	"rcnvm/internal/stats"
)

// scrapeGauges are the levels read off the pool, the cluster and the
// rotation while /metrics renders — not stats.Set series, so no family
// declares them. They are listed here so that a new one is a conscious
// edit, and they must be catalogued like every declared series.
var scrapeGauges = []string{
	"rcnvm_server_pool_workers", "rcnvm_server_pool_depth", "rcnvm_server_pool_capacity",
	"rcnvm_server_shards", "rcnvm_route_replicas", "rcnvm_route_replicas_healthy",
}

// TestMetricsLint is the documentation gate for exported metric series.
// (a) Every series a stats.Family declares must appear in DESIGN.md's
// series catalogue: dashboards and alerts get built against the doc, and
// an undocumented metric is one nobody can safely rely on or rename.
// (b) Every unlabeled counter or gauge a live server and a live router
// render on /metrics must be a declared series (or a scrape-time gauge):
// a name passed to Set.Inc without a declaration has no zero-prefill, so
// it would pop into existence mid-run. Labeled samples (per-bank
// telemetry, histogram quantiles, replication lag) come from their own
// renderers and are not stats.Set series.
func TestMetricsLint(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, catalogue, ok := strings.Cut(string(design), "### Series catalogue\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "### Series catalogue" section`)
	}
	catalogue, _, _ = strings.Cut(catalogue, "\n#")

	known := make(map[string]bool) // exposition names that may render
	for _, fam := range []*stats.Family{&server.Family, &durable.Family, &Family} {
		if len(fam.Names()) == 0 {
			t.Fatal("a family declares nothing — the declarations moved and the lint rotted")
		}
		for _, name := range fam.Names() {
			if !strings.Contains(catalogue, "`"+name+"`") {
				t.Errorf("series %q is declared but not in DESIGN.md's series catalogue", name)
			}
			if fam.IsGauge(name) {
				known[obs.MetricName("rcnvm", name)] = true
			} else {
				known[obs.MetricName("rcnvm", name)+"_total"] = true
			}
		}
	}
	for _, name := range append(scrapeGauges, NodeUp) {
		if !strings.Contains(catalogue, "`"+name+"`") {
			t.Errorf("gauge %q is not in DESIGN.md's series catalogue", name)
		}
		known[name] = true
	}

	// A live primary behind a live router, with enough traffic that the
	// counters the hot paths touch have all fired.
	p := startPrimary(t, t.TempDir(), 2)
	rt, addr := startRouter(t, p)
	rtHTTP, err := rt.ListenHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	seed(t, addr, 8)
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustQuery(t, c, "SELECT COUNT(*) FROM kv")
	if _, err := c.Do(server.Request{Query: "SELECT SUM(val) FROM kv", Timing: true, Trace: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(server.Request{Batch: []string{"SELECT COUNT(*) FROM kv", "SELECT nope"}}); err != nil {
		t.Fatal(err)
	}
	c.Query("SELECT * FROM missing") // a sql_error; the session survives it
	for _, url := range []string{"http://" + p.http, "http://" + rtHTTP.String()} {
		if resp, err := http.Post(url+"/query", "application/json", strings.NewReader("{bad")); err == nil {
			resp.Body.Close()
		}
	}

	for owner, url := range map[string]string{"server": p.http, "router": rtHTTP.String()} {
		status, body := httpGet(t, "http://"+url+"/metrics")
		if status != http.StatusOK {
			t.Fatalf("%s /metrics: status %d", owner, status)
		}
		kind, checked := "", 0
		for _, line := range strings.Split(body, "\n") {
			if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
				kind = f[3]
				continue
			}
			name, _, ok := strings.Cut(line, " ")
			if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") ||
				(kind != "counter" && kind != "gauge") {
				continue
			}
			checked++
			if !strings.HasPrefix(name, "rcnvm_") {
				t.Errorf("%s /metrics renders %q outside the rcnvm_ namespace", owner, name)
			} else if !known[name] {
				t.Errorf("%s /metrics renders %q, which no stats.Family declares", owner, name)
			}
		}
		if checked == 0 {
			t.Errorf("%s /metrics: no counter or gauge sample found — the parse rotted", owner)
		}
	}
}
