package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// exactPrefixes name the per-layer metrics that are simulated quantities or
// counts over fixed inputs: between two runs of one commit, and across a
// change that only makes the host faster, they must not move at all.
var exactPrefixes = []string{"device.", "memctrl.", "cache.", "cpu.",
	"sim.mcycles_rcnvm", "sim.reduction_vs_", "sim.paper_gap_pp",
	"sim.attr_speedup_mean", "sim.dual_ps_sum", "sim.row_ps_sum"}

func exact(name string) bool {
	for _, p := range exactPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func readDoc(path string) (map[string]map[string]*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc map[string]map[string]*report
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// compareFiles checks document b against document a: every end-to-end
// metric within its bound, every exact metric equal, no failed operation
// on either side. Other per-layer metrics are listed, not judged.
func compareFiles(m *manifest, pathA, pathB string) error {
	a, err := readDoc(pathA)
	if err != nil {
		return err
	}
	b, err := readDoc(pathB)
	if err != nil {
		return err
	}
	breaches := 0
	breach := func(format string, args ...any) {
		breaches++
		fmt.Printf("BREACH "+format+"\n", args...)
	}
	for _, w := range m.Workloads {
		for _, mode := range []string{"end_to_end", "per_layer"} {
			ra, rb := a[w.Name][mode], b[w.Name][mode]
			if ra == nil || rb == nil {
				breach("%s %s: missing from one document", w.Name, mode)
				continue
			}
			if ra.Failed != 0 || rb.Failed != 0 {
				breach("%s %s: failed operations %d vs %d", w.Name, mode, ra.Failed, rb.Failed)
			}
			for _, d := range m.defs(mode == "per_layer") {
				va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
				if va == 0 && vb == 0 {
					continue // a layer this workload never enters
				}
				worse := (vb - va) / va // relative change in the direction that is worse
				if d.Better == "higher" {
					worse = -worse
				}
				verdict := ""
				switch {
				case exact(d.Name):
					verdict = "exact"
					if va != vb {
						breach("%s %s: %v vs %v, must be equal", w.Name, d.Name, va, vb)
					}
				case d.Bound > 0:
					verdict = fmt.Sprintf("bound %g%%", 100*d.Bound)
					if worse > d.Bound {
						breach("%s %s: %.6g -> %.6g %s is %.1f%% worse, bound %g%%", w.Name, d.Name, va, vb, d.Unit, 100*worse, 100*d.Bound)
					}
				}
				fmt.Printf("%-14s %-34s %14.6g %14.6g %-8s %+7.1f%% worse  %s\n", w.Name, d.Name, va, vb, d.Unit, 100*worse, verdict)
			}
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d breaches", breaches)
	}
	return nil
}
