package experiments

import "io"

// Options is what an experiment reads besides the writer it prints to:
// rcnvm-bench's -scale, -format, -workers and -shards.
type Options struct {
	Scale   Scale
	Format  Format
	Workers int   // parallel simulation workers (0 = one per CPU)
	Shards  []int // the shard sweep's cluster sizes; the first is its determinism baseline
}

// Experiment is one id rcnvm-bench -run accepts and the tables it prints.
type Experiment struct {
	ID    string
	OptIn bool // left out of -run all
	Run   func(w io.Writer, o Options) error
}

// Experiments lists every experiment, in output order. Fig 19-21 come out
// of fig18's sweep.
var Experiments = []Experiment{
	{"table1", false, func(w io.Writer, _ Options) error { _, err := io.WriteString(w, ConfigTable()); return err }},
	{"table2", false, func(w io.Writer, _ Options) error { _, err := io.WriteString(w, QueryTable()); return err }},
	{"fig4", false, func(w io.Writer, o Options) error { return AreaOverhead().RenderAs(w, o.Format) }},
	{"fig5", false, func(w io.Writer, o Options) error { return LatencyOverhead().RenderAs(w, o.Format) }},
	{"fig17", false, sweep(MicroBench)},
	{"fig18", false, func(w io.Writer, o Options) error {
		res, err := QueryBench(o.Scale, o.Workers)
		if err != nil {
			return err
		}
		for _, t := range []TableData{res.Exec, res.Accesses, res.BufMiss, res.Coherence} {
			if err := t.RenderAs(w, o.Format); err != nil {
				return err
			}
		}
		return nil
	}},
	{"fig22", false, sweep(LatencySensitivity)},
	{"fig23", false, sweep(GroupCaching)},
	{"tech", false, sweep(TechnologyComparison)},
	{"energy", false, sweep(EnergyComparison)},
	{"olxp", false, sweep(OLXPMix)},
	{"rel", true, sweep(ReliabilitySweep)},
	{"hybrid", true, sweep(HybridSweep)},
	{"shard", true, func(w io.Writer, o Options) error {
		t, err := ShardScaling(o.Shards, o.Workers)
		if err != nil {
			return err
		}
		return t.RenderAs(w, o.Format)
	}},
	{"ablation", true, sweep(Ablation)},
	{"telemetry", true, TelemetryReport},
}

// sweep adapts the common experiment shape: one sweep, one table.
func sweep(fn func(Scale, int) (TableData, error)) func(io.Writer, Options) error {
	return func(w io.Writer, o Options) error {
		t, err := fn(o.Scale, o.Workers)
		if err != nil {
			return err
		}
		return t.RenderAs(w, o.Format)
	}
}
