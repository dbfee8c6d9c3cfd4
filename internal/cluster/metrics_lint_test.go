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
// rotation while /metrics renders — not counter-store series, so no family
// declares them. They are listed here so that a new one is a conscious
// edit, and they must be catalogued like every declared series.
var scrapeGauges = []string{
	"rcnvm_server_pool_workers", "rcnvm_server_pool_depth", "rcnvm_server_pool_capacity",
	"rcnvm_server_shards", "rcnvm_route_replicas", "rcnvm_route_replicas_healthy",
	"rcnvm_cluster_replica_epoch", "rcnvm_cluster_replica_caught_up",
	"rcnvm_cluster_replica_state_age_seconds",
}

// TestMetricsLint is the documentation gate for exported metric series.
// (a) Every series a stats.Family declares, and every family a live
// server, replica and router render on /metrics and the router on
// /cluster/metrics (per-bank, per-shard, per-backend, replication lag and
// histograms included), must appear in DESIGN.md's series catalogue:
// dashboards and alerts get built against the doc, and an undocumented
// metric is one nobody can safely rely on or rename.
// (b) Every unlabeled counter or gauge a live server, replica and router
// render on /metrics must be a declared series (or a scrape-time gauge):
// a counter store refuses an undeclared name, but a value merged into the
// snapshot from elsewhere has no such check, and an undeclared series
// would pop into existence mid-run. Labeled samples (per-bank telemetry,
// histogram quantiles, replication lag) come from their own renderers and
// are not counter-store series.
// (c) Each of those expositions, and the router's /cluster/metrics, must
// pass lintExposition's strict format check.
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
	// catalogued checks every family of a live exposition: a declared
	// series is catalogued under its dotted name, checked above; every
	// other family, labeled ones included, under its exposition name.
	seen := make(map[string]bool)
	catalogued := func(what, body string) {
		for _, line := range strings.Split(body, "\n") {
			f := strings.Fields(line)
			if len(f) != 4 || f[0] != "#" || f[1] != "TYPE" || seen[f[2]] {
				continue
			}
			seen[f[2]] = true
			if !known[f[2]] && !strings.Contains(catalogue, "`"+f[2]+"`") {
				t.Errorf("%s renders family %q, which is not in DESIGN.md's series catalogue", what, f[2])
			}
		}
	}

	// A live 3-shard primary and a replica with its shards held shared
	// behind a live router, with enough traffic that the counters the hot
	// paths touch have all fired, a timed statement has filled the
	// per-shard bank series, and the replica trails the primary: the
	// held locks let the reads through but wedge the apply loop, so the
	// INSERT comes after the reads routed to the replica.
	p := startPrimary(t, t.TempDir(), 3)
	seed(t, p.tcp, 8)
	r := startReplica(t, p.http, 3)
	waitConverged(t, p, r)
	holdShards(t, r.srv, false)
	rt, addr := startRouter(t, p, r)
	rtHTTP, err := rt.ListenHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pc, err := server.Dial(p.tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if _, err := pc.Do(server.Request{Query: "SELECT SUM(val) FROM kv", Timing: true}); err != nil {
		t.Fatal(err)
	}
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
	mustQuery(t, pc, "INSERT INTO kv VALUES (100, 0, 1000)")
	for _, url := range []string{"http://" + p.http, "http://" + rtHTTP.String()} {
		if resp, err := http.Post(url+"/query", "application/json", strings.NewReader("{bad")); err == nil {
			resp.Body.Close()
		}
	}

	for owner, url := range map[string]string{"server": p.http, "replica": r.http, "router": rtHTTP.String()} {
		status, body := httpGet(t, "http://"+url+"/metrics")
		if status != http.StatusOK {
			t.Fatalf("%s /metrics: status %d", owner, status)
		}
		lintExposition(t, owner+" /metrics", body, false)
		catalogued(owner+" /metrics", body)
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
	status, body := httpGet(t, "http://"+rtHTTP.String()+"/cluster/metrics")
	if status != http.StatusOK {
		t.Fatalf("/cluster/metrics: status %d", status)
	}
	lintExposition(t, "/cluster/metrics", body, true)
	catalogued("/cluster/metrics", body)
}

// lintExposition is the strict exposition check: one TYPE line per
// family, declared before the family's samples; every sample named as its
// family (or a histogram's _bucket/_sum/_count); no series twice; and, on
// a federated exposition, node as every sample's first label.
func lintExposition(t *testing.T, what, body string, federated bool) {
	t.Helper()
	types := make(map[string]string) // family -> TYPE
	series := make(map[string]bool)
	family, samples := "", 0
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "#" && f[1] == "TYPE" {
			if len(f) != 4 {
				t.Errorf("%s: malformed TYPE line %q", what, line)
				continue
			}
			if _, dup := types[f[2]]; dup {
				t.Errorf("%s: family %s declared twice", what, f[2])
			}
			types[f[2]], family = f[3], f[2]
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 || strings.HasPrefix(line, "#") {
			t.Errorf("%s: unexpected line %q", what, line)
			continue
		}
		samples++
		key := line[:sp]
		name, labels, _ := strings.Cut(key, "{")
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if name != family && (base != family || types[family] != "histogram") {
			t.Errorf("%s: sample %q does not follow its own family's TYPE line (it follows %q's)", what, line, family)
		}
		if series[key] {
			t.Errorf("%s: series %s appears twice", what, key)
		}
		series[key] = true
		if federated && !strings.HasPrefix(labels, `node="`) {
			t.Errorf("%s: sample %q does not lead with a node label", what, line)
		}
	}
	if samples == 0 {
		t.Errorf("%s: no samples — the lint parse rotted", what)
	}
}
