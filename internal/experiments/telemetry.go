package experiments

import (
	"fmt"
	"io"

	"rcnvm/internal/config"
	"rcnvm/internal/stats"
	"rcnvm/internal/workload"
)

// TelemetryReport runs the mixed OLTP+OLAP workload on the RC-NVM system
// and renders the run's per-bank traffic (sim.Result.Banks) as an aligned
// text table: traffic, buffer hit rates, ECC retries, queue peaks and
// data-bus occupancy per bank, plus a totals row. Banks the workload never
// touched are elided (their count is noted). This is the rcnvm-bench
// -run telemetry output, the same text in every format.
func TelemetryReport(w io.Writer, o Options) error {
	cfg := config.RCNVM()
	res, err := workload.RunMixedRounds(cfg, ParamsFor(o.Scale), 1)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "== Per-bank telemetry: mixed OLTP+OLAP on %s ==\n", cfg.Name)
	fmt.Fprintf(w, "sim time: %.3f ms\n", float64(res.TimePs)/1e9)
	fmt.Fprintf(w, "%5s %9s %8s %8s %8s %8s %8s %6s %7s\n",
		"bank", "reads", "writes", "wbacks", "rowhit%", "colhit%", "retries", "qpeak", "bus%")

	var total stats.BankCounters
	idle := 0
	for bank, c := range res.Banks {
		if c.Reads+c.Writes+c.Writebacks == 0 {
			idle++
			continue
		}
		busPct := 0.0
		if res.TimePs > 0 {
			busPct = float64(c.BusBusyPs) / float64(res.TimePs) * 100
		}
		fmt.Fprintf(w, "%5d %9d %8d %8d %8.1f %8.1f %8d %6d %7.2f\n",
			bank, c.Reads, c.Writes, c.Writebacks,
			stats.Ratio(c.RowHits, c.RowMisses)*100,
			stats.Ratio(c.ColHits, c.ColMisses)*100,
			c.Retries, c.QueuePeak, busPct)
		total.Add(c)
	}
	busPct := 0.0
	if res.TimePs > 0 {
		// Bus occupancy sums across channels, so the total can exceed 100%
		// of one channel's time; report it against all channels.
		busPct = float64(total.BusBusyPs) / float64(res.TimePs*int64(cfg.Device.Geom.Channels())) * 100
	}
	fmt.Fprintf(w, "%5s %9d %8d %8d %8.1f %8.1f %8d %6d %7.2f\n",
		"all", total.Reads, total.Writes, total.Writebacks,
		stats.Ratio(total.RowHits, total.RowMisses)*100,
		stats.Ratio(total.ColHits, total.ColMisses)*100,
		total.Retries, total.QueuePeak, busPct)
	if idle > 0 {
		fmt.Fprintf(w, "(%d idle banks elided)\n", idle)
	}
	return nil
}
