package experiments

import (
	"context"
	"fmt"

	"rcnvm/internal/config"
	"rcnvm/internal/engine"
	"rcnvm/internal/shard"
	"rcnvm/internal/sim"
	"rcnvm/internal/sql"
	"rcnvm/internal/trace"
	"rcnvm/internal/workload"
)

// shardRun is one cluster size's measurement: the full ordered suite's
// transcript (for the determinism check) and its simulated memory time.
type shardRun struct {
	transcript []string
	totalPs    int64
	memOps     int
}

// ShardScaling sweeps the SQL workload suite across cluster sizes: every
// statement executes through the scatter-gather executor with per-shard
// memory tracing, each shard's trace replays on its own simulated RC-NVM
// channel, and a statement's time is its slowest shard's (the gather waits
// for every sub-plan). Analytical scans split across channels, so total
// simulated time drops as shards are added.
//
// The sweep enforces the determinism contract as it measures: every
// cluster size must render a transcript byte-identical to the first
// (baseline) size's, or the sweep fails. Results are sim-time based and
// fully deterministic — independent of wall clock, -workers and host load.
func ShardScaling(counts []int, workers int) (TableData, error) {
	if len(counts) == 0 {
		counts = []int{1, 2, 4}
	}
	runs, err := Sweep(context.Background(), workers, len(counts), func(i int) (shardRun, error) {
		return runShardCount(counts[i], workers)
	})
	if err != nil {
		return TableData{}, err
	}

	for i := 1; i < len(runs); i++ {
		if len(runs[i].transcript) != len(runs[0].transcript) {
			return TableData{}, fmt.Errorf("shard sweep: %d shards returned %d results, baseline %d",
				counts[i], len(runs[i].transcript), len(runs[0].transcript))
		}
		for j := range runs[0].transcript {
			if runs[i].transcript[j] != runs[0].transcript[j] {
				return TableData{}, fmt.Errorf("shard sweep: determinism violation at %d shards:\n--- %d shards\n%s\n--- %d shards\n%s",
					counts[i], counts[0], runs[0].transcript[j], counts[i], runs[i].transcript[j])
			}
		}
	}

	nq := len(workload.SQLQueries())
	t := TableData{
		ID:    "Shard scaling",
		Title: "Scatter-gather SQL suite across independent RC-NVM channels",
		Unit:  "per cluster size",
	}
	timeUs := Series{Label: "suite sim time (us)"}
	thr := Series{Label: "throughput (queries/ms sim)"}
	speedup := Series{Label: "speedup vs baseline"}
	for i, n := range counts {
		t.XLabels = append(t.XLabels, fmt.Sprintf("%d", n))
		us := float64(runs[i].totalPs) / 1e6
		timeUs.Values = append(timeUs.Values, us)
		thr.Values = append(thr.Values, float64(nq)/(float64(runs[i].totalPs)/1e9))
		speedup.Values = append(speedup.Values, float64(runs[0].totalPs)/float64(runs[i].totalPs))
	}
	t.Series = []Series{timeUs, thr, speedup}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d statements per run; results byte-identical across all cluster sizes (verified)", nq),
		"statement time = slowest shard's channel replay; shards run concurrently")
	return t, nil
}

// runShardCount executes the whole suite on an n-shard cluster and replays
// each shard's trace on its own simulated channel.
func runShardCount(n, workers int) (shardRun, error) {
	var r shardRun
	c, err := shard.Open(engine.DualAddress, n, workers)
	if err != nil {
		return r, err
	}
	for _, stmt := range workload.SQLSetup() {
		if _, _, err := sql.Execute(c, stmt, sql.ExecOptions{}); err != nil {
			return r, fmt.Errorf("shard sweep: setup: %w", err)
		}
	}
	for _, q := range workload.SQLQueries() {
		res, streams, err := sql.Execute(c, q.SQL, sql.ExecOptions{Trace: true})
		if err != nil {
			return r, fmt.Errorf("shard sweep: %s: %w", q.ID, err)
		}
		var worst int64
		for _, st := range streams {
			n := st.MemOps()
			if n == 0 {
				continue
			}
			r.memOps += n
			out, err := sim.RunOn(config.RCNVM(), []trace.Stream{st})
			if err != nil {
				return r, fmt.Errorf("shard sweep: %s: replay: %w", q.ID, err)
			}
			if out.TimePs > worst {
				worst = out.TimePs
			}
		}
		r.totalPs += worst
		r.transcript = append(r.transcript, q.ID+"\n"+res.Format())
	}
	return r, nil
}
