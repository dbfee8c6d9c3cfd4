// Package experiments regenerates every table and figure of the RC-NVM
// paper's evaluation: the circuit-level overhead sweeps (Figures 4 and 5),
// the configuration and query tables (Tables 1 and 2), the micro-benchmarks
// (Figure 17), the Q1-Q13 query benchmarks with their memory-access,
// buffer-miss-rate and coherence-overhead breakdowns (Figures 18-21), the
// NVM latency sensitivity sweep (Figure 22), and the group-caching sweep
// (Figure 23). Each experiment returns a TableData that renders as an
// aligned text table; EXPERIMENTS.md records the measured outputs against
// the paper's.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"rcnvm/internal/circuit"
	"rcnvm/internal/config"
	"rcnvm/internal/energy"
	"rcnvm/internal/fault"
	"rcnvm/internal/sim"
	"rcnvm/internal/stats"
	"rcnvm/internal/workload"
)

// Series is one labeled line/bar group of a figure.
type Series struct {
	Label  string
	Values []float64
}

// TableData is the regenerated content of one paper table or figure.
type TableData struct {
	ID      string
	Title   string
	Unit    string
	XLabels []string
	Series  []Series
	Notes   []string
}

// Render writes the table as aligned text.
func (t TableData) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Unit != "" {
		fmt.Fprintf(w, "unit: %s\n", t.Unit)
	}
	labelW := 10
	for _, s := range t.Series {
		if len(s.Label) > labelW {
			labelW = len(s.Label)
		}
	}
	colW := 10
	for _, x := range t.XLabels {
		if len(x)+2 > colW {
			colW = len(x) + 2
		}
	}
	fmt.Fprintf(w, "%-*s", labelW+2, "")
	for _, x := range t.XLabels {
		fmt.Fprintf(w, "%*s", colW, x)
	}
	fmt.Fprintln(w)
	for _, s := range t.Series {
		fmt.Fprintf(w, "%-*s", labelW+2, s.Label)
		for _, v := range s.Values {
			fmt.Fprintf(w, "%*s", colW, formatValue(v))
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func formatValue(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders to a string.
func (t TableData) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// Scale selects the workload size of the simulation experiments.
type Scale uint8

const (
	// ScaleSmall is the fast CI scale.
	ScaleSmall Scale = iota
	// ScaleMedium balances runtime and realism (bench default).
	ScaleMedium
	// ScaleFull is the full benchmark scale (tables well beyond the L3).
	ScaleFull
)

// ParamsFor returns the workload parameters of a scale.
func ParamsFor(s Scale) workload.Params {
	switch s {
	case ScaleSmall:
		return workload.SmallParams()
	case ScaleMedium:
		p := workload.DefaultParams()
		p.TuplesA, p.TuplesB, p.TuplesC = 64*1024, 64*1024, 32*1024
		return p
	default:
		return workload.DefaultParams()
	}
}

// ParseScale maps a flag string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "small":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	case "full":
		return ScaleFull, nil
	}
	return 0, fmt.Errorf("unknown scale %q (small|medium|full)", s)
}

// AreaOverhead regenerates Figure 4.
func AreaOverhead() TableData {
	pts := circuit.Sweep(nil)
	t := TableData{
		ID:    "Figure 4",
		Title: "Area overhead of RC-DRAM and RC-NVM over DRAM / RRAM",
		Unit:  "% of baseline array area",
	}
	var rcdram, rcnvm Series
	rcdram.Label = "RC-DRAM over DRAM"
	rcnvm.Label = "RC-NVM over RRAM"
	for _, p := range pts {
		t.XLabels = append(t.XLabels, fmt.Sprintf("%d", p.Lines))
		rcdram.Values = append(rcdram.Values, p.RCDRAMOverhead*100)
		rcnvm.Values = append(rcnvm.Values, p.RCNVMOverhead*100)
	}
	t.Series = []Series{rcdram, rcnvm}
	t.Notes = append(t.Notes,
		"paper anchors: RC-DRAM always >200%; RC-NVM <20% at 512 WLs/BLs")
	return t
}

// LatencyOverhead regenerates Figure 5.
func LatencyOverhead() TableData {
	lines := []int{16, 32, 64, 128, 256, 384, 512, 640, 768, 896, 1024, 1152}
	pts := circuit.Sweep(lines)
	t := TableData{
		ID:    "Figure 5",
		Title: "RC-NVM read/write latency overhead",
		Unit:  "% of baseline access latency",
	}
	s := Series{Label: "RC-NVM latency overhead"}
	for _, p := range pts {
		t.XLabels = append(t.XLabels, fmt.Sprintf("%d", p.Lines))
		s.Values = append(s.Values, p.LatencyOvh*100)
	}
	t.Series = []Series{s}
	t.Notes = append(t.Notes, "paper anchor: ~15% at 512 WLs/BLs")
	return t
}

// ConfigTable renders Table 1 (the simulated system configuration).
func ConfigTable() string {
	var b strings.Builder
	fmt.Fprintln(&b, "== Table 1: Configuration of simulated systems ==")
	fmt.Fprintln(&b, "Processor:  4 cores, x86-like trace-driven, 2.0 GHz, MLP window 8")
	fmt.Fprintln(&b, "L1 cache:   private, 64B line, 8-way, 32 KB")
	fmt.Fprintln(&b, "L2 cache:   private, 64B line, 8-way, 256 KB")
	fmt.Fprintln(&b, "L3 cache:   shared, 64B line, 8-way, 8 MB, directory MESI, stride prefetcher")
	fmt.Fprintln(&b, "Controller: 32-entry queues per channel, FR-FCFS")
	for _, sys := range config.All() {
		d := sys.Device
		fmt.Fprintf(&b, "%-8s  ch=%d ranks=%d banks=%d rows=%d cols=%d rowbuf=%dB  tCAS=%d tRCD=%d tRP=%d tRAS=%d  clock=%.2fns",
			d.Kind, d.Geom.Channels(), d.Geom.Ranks(), d.Geom.Banks(),
			d.Geom.Rows()*d.Geom.Subarrays(), d.Geom.Columns(), d.Geom.RowBytes(),
			d.Timing.TCAS, d.Timing.TRCD, d.Timing.TRP, d.Timing.TRAS,
			float64(d.Timing.ClockPs)/1000)
		if d.Timing.WritePulsePs > 0 {
			fmt.Fprintf(&b, "  writePulse=%dns", d.Timing.WritePulsePs/1000)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintln(&b)
	return b.String()
}

// QueryTable renders Table 2 (the benchmark queries).
func QueryTable() string {
	var b strings.Builder
	fmt.Fprintln(&b, "== Table 2: Benchmark queries ==")
	for _, q := range workload.Queries() {
		fmt.Fprintf(&b, "%-4s [%s]  %s\n", q.ID, q.Class, q.SQL)
	}
	for _, q := range workload.GroupQueries() {
		fmt.Fprintf(&b, "%-4s [%s]  %s\n", q.ID, q.Class, q.SQL)
	}
	fmt.Fprintln(&b)
	return b.String()
}

// microSystems are the Figure 17 systems (no GS-DRAM in that figure).
func microSystems() []config.System {
	return []config.System{config.RCNVM(), config.RRAM(), config.DRAM()}
}

// MicroBench regenerates Figure 17. workers bounds the parallel simulation
// cells (<= 0 means one per CPU).
func MicroBench(scale Scale, workers int) (TableData, error) {
	p := ParamsFor(scale)
	t := TableData{
		ID:    "Figure 17",
		Title: "Micro-benchmark results (full-table scans)",
		Unit:  "10^6 CPU cycles",
	}
	specs := workload.MicroSpecs()
	for _, m := range specs {
		t.XLabels = append(t.XLabels, m.ID)
	}
	systems := microSystems()
	ns := len(specs)
	results, err := Sweep(context.Background(), workers, len(systems)*ns, func(i int) (sim.Result, error) {
		sys, m := systems[i/ns], specs[i%ns]
		res, err := workload.RunMicro(sys, m, p)
		if err != nil {
			return sim.Result{}, fmt.Errorf("micro %s on %s: %w", m.ID, sys.Name, err)
		}
		return res, nil
	})
	if err != nil {
		return TableData{}, err
	}
	for si, sys := range systems {
		s := Series{Label: sys.Name}
		for mi := range specs {
			s.Values = append(s.Values, results[si*ns+mi].MCycles())
		}
		t.Series = append(t.Series, s)
	}
	t.Notes = append(t.Notes,
		"paper: col scans ~76-77% faster on RC-NVM than DRAM; RC-NVM within ~4% of RRAM on row scans")
	return t, nil
}

// QueryResults bundles the four views over one Q1-Q13 run set.
type QueryResults struct {
	Exec      TableData // Figure 18
	Accesses  TableData // Figure 19
	BufMiss   TableData // Figure 20
	Coherence TableData // Figure 21
}

// QueryBench regenerates Figures 18-21 from one set of runs. workers
// bounds the parallel simulation cells (<= 0 means one per CPU).
func QueryBench(scale Scale, workers int) (QueryResults, error) {
	p := ParamsFor(scale)
	systems := config.All()
	queries := workload.Queries()
	nq := len(queries)
	results, err := Sweep(context.Background(), workers, len(systems)*nq, func(i int) (sim.Result, error) {
		sys, q := systems[i/nq], queries[i%nq]
		res, err := workload.Run(sys, q, p)
		if err != nil {
			return sim.Result{}, fmt.Errorf("%s on %s: %w", q.ID, sys.Name, err)
		}
		return res, nil
	})
	if err != nil {
		return QueryResults{}, err
	}

	var out QueryResults
	out.Exec = TableData{ID: "Figure 18", Title: "SQL benchmark execution time", Unit: "10^6 CPU cycles"}
	out.Accesses = TableData{ID: "Figure 19", Title: "Number of memory accesses", Unit: "10^3 accesses"}
	out.BufMiss = TableData{ID: "Figure 20", Title: "Row-/column-buffer miss rate", Unit: "%"}
	out.Coherence = TableData{ID: "Figure 21", Title: "Cache synonym and coherence overhead (RC-NVM)", Unit: "% of execution time"}
	for _, q := range queries {
		out.Exec.XLabels = append(out.Exec.XLabels, q.ID)
	}
	out.Accesses.XLabels = out.Exec.XLabels
	out.BufMiss.XLabels = out.Exec.XLabels
	out.Coherence.XLabels = out.Exec.XLabels

	var coh Series
	coh.Label = "RC-NVM overhead"
	for si, sys := range systems {
		exec := Series{Label: sys.Name}
		acc := Series{Label: sys.Name}
		buf := Series{Label: sys.Name}
		for qi := range queries {
			res := results[si*nq+qi]
			exec.Values = append(exec.Values, res.MCycles())
			acc.Values = append(acc.Values, float64(res.MemAccesses())/1e3)
			buf.Values = append(buf.Values, res.BufferMissRate()*100)
			if sys.Device.Kind == config.RCNVM().Device.Kind {
				coh.Values = append(coh.Values, res.OverheadRatio()*100)
			}
		}
		out.Exec.Series = append(out.Exec.Series, exec)
		out.Accesses.Series = append(out.Accesses.Series, acc)
		out.BufMiss.Series = append(out.BufMiss.Series, buf)
	}
	out.Coherence.Series = []Series{coh}

	out.Exec.Notes = append(out.Exec.Notes, summarizeExec(out.Exec))
	out.Coherence.Notes = append(out.Coherence.Notes,
		"paper: 0.2%-3.4%, average ~1.06%")
	return out, nil
}

// summarizeExec computes the headline averages of Figure 18 (RC-NVM is
// series 0, RRAM 1, GS-DRAM 2, DRAM 3 per config.All ordering).
func summarizeExec(t TableData) string {
	rc := t.Series[0].Values
	rram := t.Series[1].Values
	gs := t.Series[2].Values
	dram := t.Series[3].Values
	var redRRAM, redDRAM, gsGain, bestRRAM, bestDRAM float64
	for i := range rc {
		redRRAM += 1 - rc[i]/rram[i]
		redDRAM += 1 - rc[i]/dram[i]
		gsGain += gs[i] / rc[i]
		if r := rram[i] / rc[i]; r > bestRRAM {
			bestRRAM = r
		}
		if r := dram[i] / rc[i]; r > bestDRAM {
			bestDRAM = r
		}
	}
	n := float64(len(rc))
	return fmt.Sprintf(
		"avg exec-time reduction vs RRAM %.0f%% (paper 71%%), vs DRAM %.0f%% (paper 67%%); best case %.1fx vs RRAM (paper 14.5x), %.1fx vs DRAM (paper 13.3x); GS-DRAM/RC-NVM avg %.2fx (paper 2.37x)",
		redRRAM/n*100, redDRAM/n*100, bestRRAM, bestDRAM, gsGain/n)
}

// LatencySensitivity regenerates Figure 22: average Q1-Q13 execution time
// as the NVM cell read/write latency scales. workers bounds the parallel
// simulation cells (<= 0 means one per CPU).
func LatencySensitivity(scale Scale, workers int) (TableData, error) {
	p := ParamsFor(scale)
	t := TableData{
		ID:    "Figure 22",
		Title: "Sensitivity to NVM cell latency (avg over Q1-Q13)",
		Unit:  "10^6 CPU cycles",
	}
	points := config.SensitivityPoints()
	for _, pt := range points {
		t.XLabels = append(t.XLabels, fmt.Sprintf("(%gns,%gns)", pt[0], pt[1]))
	}
	queries := workload.Queries()
	nq := len(queries)

	// Sweep systems: (RC-NVM, RRAM) per latency point, then the DRAM
	// reference; each system runs all of Q1-Q13.
	systems := make([]config.System, 0, 2*len(points)+1)
	for _, pt := range points {
		systems = append(systems, config.RCNVMAt(pt[0], pt[1]), config.RRAMAt(pt[0], pt[1]))
	}
	systems = append(systems, config.DRAM())
	results, err := Sweep(context.Background(), workers, len(systems)*nq, func(i int) (sim.Result, error) {
		return workload.Run(systems[i/nq], queries[i%nq], p)
	})
	if err != nil {
		return TableData{}, err
	}
	avgOver := func(si int) float64 {
		var sum float64
		for qi := 0; qi < nq; qi++ {
			sum += results[si*nq+qi].MCycles()
		}
		return sum / float64(nq)
	}

	rc := Series{Label: "RC-NVM"}
	rram := Series{Label: "RRAM"}
	for pi := range points {
		rc.Values = append(rc.Values, avgOver(2*pi))
		rram.Values = append(rram.Values, avgOver(2*pi+1))
	}
	dramAvg := avgOver(len(systems) - 1)
	dram := Series{Label: "DRAM (constant)"}
	for range points {
		dram.Values = append(dram.Values, dramAvg)
	}
	t.Series = []Series{rc, rram, dram}
	t.Notes = append(t.Notes,
		"paper: RC-NVM still outperforms DRAM at several-hundred-ns cell latencies")
	return t, nil
}

// GroupCaching regenerates Figure 23: Q14/Q15 on RC-NVM across group
// caching depths. workers bounds the parallel simulation cells (<= 0 means
// one per CPU).
func GroupCaching(scale Scale, workers int) (TableData, error) {
	p := ParamsFor(scale)
	t := TableData{
		ID:    "Figure 23",
		Title: "Impact of group caching (RC-NVM)",
		Unit:  "10^6 CPU cycles",
	}
	depths := []int{0, 32, 64, 96, 128}
	for _, g := range depths {
		if g == 0 {
			t.XLabels = append(t.XLabels, "w/o")
		} else {
			t.XLabels = append(t.XLabels, fmt.Sprintf("%d", g))
		}
	}
	queries := workload.GroupQueries()
	nd := len(depths)
	results, err := Sweep(context.Background(), workers, len(queries)*nd, func(i int) (sim.Result, error) {
		pp := p
		pp.GroupLines = depths[i%nd]
		return workload.Run(config.RCNVM(), queries[i/nd], pp)
	})
	if err != nil {
		return TableData{}, err
	}
	for qi, q := range queries {
		s := Series{Label: q.ID}
		for di := range depths {
			s.Values = append(s.Values, results[qi*nd+di].MCycles())
		}
		t.Series = append(t.Series, s)
	}
	t.Notes = append(t.Notes,
		"paper: ~15% improvement at 128 cachelines; estimated cache need Q14=32KB, Q15=24KB")
	return t, nil
}

// TechnologyComparison is the §2.3 extension experiment: the same RC
// architecture over RRAM-, PCM- and 3D XPoint-class cells, against the
// DRAM reference, averaged over Q1-Q13. workers bounds the parallel
// simulation cells (<= 0 means one per CPU).
func TechnologyComparison(scale Scale, workers int) (TableData, error) {
	p := ParamsFor(scale)
	t := TableData{
		ID:    "Extension",
		Title: "RC architecture across crossbar NVM technologies (avg Q1-Q13)",
		Unit:  "10^6 CPU cycles",
	}
	queries := workload.Queries()
	systems := config.Technologies()
	nq := len(queries)
	t.XLabels = []string{"avg Q1-Q13"}
	results, err := Sweep(context.Background(), workers, len(systems)*nq, func(i int) (sim.Result, error) {
		return workload.Run(systems[i/nq], queries[i%nq], p)
	})
	if err != nil {
		return TableData{}, err
	}
	for si, sys := range systems {
		var sum float64
		for qi := 0; qi < nq; qi++ {
			sum += results[si*nq+qi].MCycles()
		}
		t.Series = append(t.Series, Series{Label: sys.Name, Values: []float64{sum / float64(nq)}})
	}
	t.Notes = append(t.Notes,
		"the paper argues the RC design extends to PCM and 3D XPoint (§2.3); slower cells shrink but need not erase the win over DRAM")
	return t, nil
}

// EnergyComparison is an extension experiment: estimated memory-system
// energy for Q1-Q13 on every system, using the representative NVMain-style
// energy models of internal/energy. workers bounds the parallel simulation
// cells (<= 0 means one per CPU).
func EnergyComparison(scale Scale, workers int) (TableData, error) {
	p := ParamsFor(scale)
	t := TableData{
		ID:    "Extension (energy)",
		Title: "Estimated memory energy per query",
		Unit:  "uJ",
	}
	queries := workload.Queries()
	for _, q := range queries {
		t.XLabels = append(t.XLabels, q.ID)
	}
	systems := config.All()
	nq := len(queries)
	results, err := Sweep(context.Background(), workers, len(systems)*nq, func(i int) (sim.Result, error) {
		return workload.Run(systems[i/nq], queries[i%nq], p)
	})
	if err != nil {
		return TableData{}, err
	}
	for si, sys := range systems {
		model := energy.ForKind(sys.Device.Kind)
		s := Series{Label: sys.Name}
		for qi := 0; qi < nq; qi++ {
			s.Values = append(s.Values, model.Estimate(results[si*nq+qi]).TotalUJ())
		}
		t.Series = append(t.Series, s)
	}
	t.Notes = append(t.Notes,
		"extension beyond the paper: representative energy coefficients (NVM: no refresh, low standby, costly cell writes)")
	return t, nil
}

// ReliabilityRBERs are the transient raw-bit-error rates of the
// reliability sweep; 0 is the fault-free baseline column every overhead
// number is measured against.
func ReliabilityRBERs() []float64 {
	return []float64{0, 1e-6, 1e-5, 1e-4, 5e-4, 1e-3}
}

// ReliabilitySweep is the reliability experiment: Q1-Q13 on RC-NVM with
// the fault-injection layer enabled at increasing transient RBERs, in
// counting-only mode (uncorrectable errors are counted, not fatal — the
// serving path instead surfaces them as typed errors). Per RBER it
// reports the ECC accounting (corrected and uncorrectable codewords,
// controller read retries) and the execution-time overhead of the ECC
// retry traffic against the fault-free baseline. Every draw is a pure
// function of (seed, word, simulated time), so the sweep is deterministic
// and parallel runs render byte-identically to sequential ones. workers
// bounds the parallel simulation cells (<= 0 means one per CPU).
func ReliabilitySweep(scale Scale, workers int) (TableData, error) {
	p := ParamsFor(scale)
	t := TableData{
		ID:    "Reliability",
		Title: "ECC under injected raw bit errors (sum over Q1-Q13, RC-NVM)",
	}
	rbers := ReliabilityRBERs()
	for _, r := range rbers {
		if r == 0 {
			t.XLabels = append(t.XLabels, "off")
		} else {
			t.XLabels = append(t.XLabels, fmt.Sprintf("%.0e", r))
		}
	}
	queries := workload.Queries()
	nq := len(queries)
	systems := make([]config.System, len(rbers))
	for i, r := range rbers {
		sys := config.RCNVM()
		sys.Fault = fault.Config{
			Enabled:                 r > 0,
			Seed:                    1,
			RBER:                    r,
			ContinueOnUncorrectable: true,
		}
		systems[i] = sys
	}
	results, err := Sweep(context.Background(), workers, len(systems)*nq, func(i int) (sim.Result, error) {
		return workload.Run(systems[i/nq], queries[i%nq], p)
	})
	if err != nil {
		return TableData{}, err
	}

	cycles := Series{Label: "exec (Mcycles)"}
	corrected := Series{Label: "ECC corrected words"}
	uncorr := Series{Label: "ECC uncorrectable words"}
	retries := Series{Label: "ctrl read retries"}
	overhead := Series{Label: "latency overhead %"}
	base := 0.0
	for si := range systems {
		var mc float64
		var cor, unc, ret int64
		for qi := 0; qi < nq; qi++ {
			res := results[si*nq+qi]
			mc += res.MCycles()
			cor += res.Counters[stats.ECCCorrected]
			unc += res.Counters[stats.ECCUncorrectable]
			ret += res.Counters[stats.ECCRetries]
		}
		if si == 0 {
			base = mc
		}
		cycles.Values = append(cycles.Values, mc)
		corrected.Values = append(corrected.Values, float64(cor))
		uncorr.Values = append(uncorr.Values, float64(unc))
		retries.Values = append(retries.Values, float64(ret))
		ovh := 0.0
		if base > 0 {
			ovh = (mc/base - 1) * 100
		}
		overhead.Values = append(overhead.Values, ovh)
	}
	t.Series = []Series{cycles, corrected, uncorr, retries, overhead}
	t.Notes = append(t.Notes,
		"'off' disables the fault layer entirely (the zero-cost-off baseline); counting-only mode, so uncorrectable words are tallied instead of failing the run",
		"overhead is pure ECC retry latency: each detected-uncorrectable read re-activates (tRP+tRCD+tCAS) up to 2 times",
		"transient double errors re-sample on retry and clear, so uncorrectable counts stay 0 without hard faults — wear-out stuck-at cells and dead banks are what survive retries (see internal/fault)")
	return t, nil
}

// OLXPMix is the extension experiment for the paper's motivating scenario:
// concurrent OLTP and OLAP against one copy of table-a. Reported per
// system: execution time, orientation switches and the synonym/coherence
// overhead ratio. workers bounds the parallel simulation cells (<= 0 means
// one per CPU).
func OLXPMix(scale Scale, workers int) (TableData, error) {
	p := ParamsFor(scale)
	t := TableData{
		ID:      "Extension (OLXP)",
		Title:   "Mixed OLTP + OLAP on one data copy",
		XLabels: []string{"Mcycles", "orient switches", "synonym+coh %"},
	}
	systems := config.All()
	results, err := Sweep(context.Background(), workers, len(systems), func(i int) (sim.Result, error) {
		return workload.RunMixedRounds(systems[i], p, 1)
	})
	if err != nil {
		return TableData{}, err
	}
	for si, sys := range systems {
		res := results[si]
		t.Series = append(t.Series, Series{Label: sys.Name, Values: []float64{
			res.MCycles(),
			float64(res.Counters[stats.OrientSwitches]),
			res.OverheadRatio() * 100,
		}})
	}
	t.Notes = append(t.Notes,
		"the OLXP scenario of §1: transactions use row accesses while analytics scan columns, concurrently, without a second copy")
	return t, nil
}
