// Command bench is the repository's benchmark: five named workloads over
// the SQL service and the simulator, end-to-end metrics measured with
// tracing off, per-layer metrics from a separate traced run, every answer
// checked. BENCHMARK.json at the repository root names the workloads and
// metrics; README.md in this directory says why each exists.
//
//	bash bench/run.sh --workload oltp_point --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -out a.json            # all workloads, both modes
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// options is what one workload run is told.
type options struct {
	seed    int64
	seconds float64
	trace   bool // measure the per-layer metrics instead of the end-to-end ones
	quick   bool // a fraction of the work: exercises every path, measures nothing
}

// result is what one workload run reports.
type result struct {
	metrics           map[string]float64
	attempted, failed int
}

// metricDef is one entry of BENCHMARK.json's end_to_end or per_layer list.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// manifest is BENCHMARK.json. The benchmark reads its metric names and
// units from there, so the file and the program cannot drift apart.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadManifest() (*manifest, error) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the bench directory of a checkout: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

func (m *manifest) defs(trace bool) []metricDef {
	if trace {
		return m.PerLayer
	}
	return m.EndToEnd
}

// runWorkload dispatches on the workload's name.
func runWorkload(name string, o options) (result, error) {
	if name == "sim_sweep" {
		return runSimSweep(o)
	}
	for _, w := range servingWorkloads {
		if w.name == name {
			return w.run(o)
		}
	}
	return result{}, fmt.Errorf("unknown workload %q", name)
}

// report is the one JSON object a run prints as its last line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newReport pairs the run's values with the manifest's definitions. A
// per-layer metric of a layer the workload never enters reads 0; an
// end-to-end metric must be measured by every workload; a value the
// manifest does not name is a bug.
func newReport(res result, defs []metricDef, trace bool) (*report, error) {
	rep := &report{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok && !trace {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		if !finite(v) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		rep.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	for name := range res.metrics {
		if _, ok := rep.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
	return rep, nil
}

func (r *report) print(workload string, defs []metricDef) error {
	for _, d := range defs {
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  regression bound %g%%", 100*d.Bound)
		}
		fmt.Printf("# %-14s %-34s %16.6g %-8s %s is better%s\n", workload, d.Name, r.Metrics[d.Name].Value, d.Unit, d.Better, bound)
	}
	fmt.Printf("# %-14s fail_ratio %g (%d failed of %d attempted)\n", workload, float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func outDir() string {
	os.MkdirAll("out", 0o755)
	return "out"
}

// rssPeakMB is the process's peak resident set (VmHWM), 0 where /proc does
// not say.
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// runAll re-executes this program once per workload and mode, so heap
// state and the peak resident set do not leak from one workload into the
// next, and writes every report into one document for -compare.
func runAll(m *manifest, o options, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	doc := map[string]map[string]*report{} // workload -> "end_to_end"|"per_layer" -> report
	for _, w := range m.Workloads {
		doc[w.Name] = map[string]*report{}
		for _, mode := range []string{"0", "1"} {
			args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", mode}
			if o.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			raw, err := cmd.Output()
			os.Stdout.Write(raw)
			if err != nil {
				return fmt.Errorf("workload %s: %w", w.Name, err)
			}
			lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				return fmt.Errorf("workload %s: last line is not a report: %w", w.Name, err)
			}
			key := "end_to_end"
			if mode == "1" {
				key = "per_layer"
			}
			doc[w.Name][key] = &rep
		}
	}
	raw, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(raw, '\n'), 0o644)
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all of BENCHMARK.json, each in its own process, both modes)")
		seed     = flag.Int64("seed", 1, "seed of the generated statements; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 0, "timed work per run in seconds (default: BENCHMARK.json's run_seconds)")
		trace    = flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics and writes out/trace_<workload>.json")
		quick    = flag.Bool("quick", false, "a fraction of the work, to exercise every path in seconds")
		out      = flag.String("out", "out/bench.json", "where a run of all workloads writes its reports")
		compare  = flag.Bool("compare", false, "compare two -out documents given as arguments; exit 1 on a breach")
	)
	flag.Parse()
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick}
	if err := run(*workload, o, *out, *compare); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, o options, out string, compare bool) error {
	m, err := loadManifest()
	if err != nil {
		return err
	}
	if compare {
		if flag.NArg() != 2 {
			return errors.New("-compare takes two files")
		}
		return compareFiles(m, flag.Arg(0), flag.Arg(1))
	}
	if o.seconds <= 0 {
		o.seconds = float64(m.RunSeconds)
	}
	if o.quick {
		o.seconds = 0.2
	}
	if workload == "" {
		return runAll(m, o, out)
	}

	// Two cores is what the sandbox has, and the load shape (two sessions,
	// two sweep workers) is sized to it; pinning it keeps runs on larger
	// hosts comparable.
	runtime.GOMAXPROCS(2)
	fmt.Printf("# %s: seed=%d seconds=%g trace=%v quick=%v GOMAXPROCS=2 nproc=%d\n",
		workload, o.seed, o.seconds, o.trace, o.quick, runtime.NumCPU())
	res, err := runWorkload(workload, o)
	if err != nil {
		return err
	}
	defs := m.defs(o.trace)
	rep, err := newReport(res, defs, o.trace)
	if err != nil {
		return err
	}
	if err := rep.print(workload, defs); err != nil {
		return err
	}
	if !rep.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or answered wrong", workload, rep.Failed, rep.Attempted)
	}
	return nil
}
