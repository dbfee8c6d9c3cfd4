package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestQuick runs every workload of BENCHMARK.json in both modes at -quick
// scale and requires every named metric to come out, finite, with a unit,
// and every answer to be right; then it feeds the reports to -compare.
// Run it with `go test` in this directory: this package is a module of its
// own, so the repository's `go test ./...` does not reach it.
func TestQuick(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(servingWorkloads)+1 {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(m.Workloads), len(servingWorkloads)+1)
	}
	doc := map[string]map[string]*report{}
	emitted := map[string]bool{} // per-layer metrics some workload measured
	for _, w := range m.Workloads {
		doc[w.Name] = map[string]*report{}
		for mode, trace := range map[string]bool{"end_to_end": false, "per_layer": true} {
			t0 := time.Now()
			res, err := runWorkload(w.Name, options{seed: 1, seconds: 0.2, quick: true, trace: trace})
			t.Logf("%s %s: %v", w.Name, mode, time.Since(t0).Round(time.Millisecond))
			if err != nil {
				t.Fatalf("%s %s: %v", w.Name, mode, err)
			}
			defs := m.defs(trace)
			rep, err := newReport(res, defs, trace)
			if err != nil {
				t.Fatalf("%s %s: %v", w.Name, mode, err)
			}
			if !rep.Correct || rep.Attempted < 1 {
				t.Errorf("%s %s: %d of %d operations failed", w.Name, mode, rep.Failed, rep.Attempted)
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s %s: %d metrics reported, BENCHMARK.json names %d", w.Name, mode, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				v := rep.Metrics[d.Name]
				if v.Unit == "" || !finite(v.Value) {
					t.Errorf("%s %s: %+v", w.Name, d.Name, v)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.Name, d.Name, v.Value)
				}
				if _, ok := res.metrics[d.Name]; ok && trace {
					emitted[d.Name] = true
				}
			}
			doc[w.Name][mode] = rep
		}
	}
	for _, d := range m.PerLayer {
		if !emitted[d.Name] {
			t.Errorf("no workload measures per-layer metric %s", d.Name)
		}
	}
	for _, name := range []string{"oltp_point", "sim_sweep"} {
		if _, err := os.Stat(filepath.Join("out", "trace_"+name+".json")); err != nil {
			t.Errorf("traced run left no spans: %v", err)
		}
	}

	// -compare: a document agrees with itself, and a moved simulated
	// statistic or a slower end-to-end metric is a breach.
	write := func(name string, edit func(map[string]map[string]*report)) string {
		raw, _ := json.Marshal(doc)
		var c map[string]map[string]*report
		json.Unmarshal(raw, &c)
		edit(c)
		raw, _ = json.Marshal(c)
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	same := write("a.json", func(map[string]map[string]*report) {})
	if err := compareFiles(m, same, same); err != nil {
		t.Errorf("a document breaches against itself: %v", err)
	}
	for name, edit := range map[string]func(c map[string]map[string]*report){
		"simulated statistic moved": func(c map[string]map[string]*report) {
			v := c["sim_sweep"]["per_layer"].Metrics["device.row_activations"]
			v.Value++
			c["sim_sweep"]["per_layer"].Metrics["device.row_activations"] = v
		},
		"throughput down by a third": func(c map[string]map[string]*report) {
			v := c["olap_scan"]["end_to_end"].Metrics["stmts_per_s"]
			v.Value *= 0.66
			c["olap_scan"]["end_to_end"].Metrics["stmts_per_s"] = v
		},
		"a failed operation": func(c map[string]map[string]*report) { c["timed_query"]["end_to_end"].Failed = 1 },
	} {
		if err := compareFiles(m, same, write("b.json", edit)); err == nil {
			t.Errorf("-compare accepted: %s", name)
		}
	}
}
