package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"rcnvm/internal/stats"
)

// Prometheus text exposition (format version 0.0.4): helpers that render
// the repo's stats.Set counters, stats.Histogram distributions and the
// per-bank telemetry as scrape-able metric families. Rendering is fully
// deterministic (sorted names) so tests can golden it.

// ContentType is the Content-Type of the exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// MetricName joins prefix and a dotted counter name into a valid
// Prometheus metric name: every character outside [a-zA-Z0-9_] becomes
// '_' ("server.bad_requests" -> "rcnvm_server_bad_requests").
func MetricName(prefix, name string) string {
	var b strings.Builder
	b.Grow(len(prefix) + 1 + len(name))
	b.WriteString(prefix)
	b.WriteByte('_')
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WriteCounters renders a counter snapshot as one family per counter,
// sorted by name. A name one of fams declares a gauge is typed gauge (a
// value that goes up and down, like sessions_active); everything else is
// a counter and gets the conventional _total suffix.
func WriteCounters(w io.Writer, prefix string, counters map[string]int64, fams ...*stats.Family) error {
	names := make([]string, 0, len(counters))
	for k := range counters {
		names = append(names, k)
	}
	sort.Strings(names)
	isGauge := func(name string) bool {
		for _, f := range fams {
			if f.IsGauge(name) {
				return true
			}
		}
		return false
	}
	for _, k := range names {
		m := MetricName(prefix, k)
		if isGauge(k) {
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", m, m, counters[k]); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s_total counter\n%s_total %d\n", m, m, counters[k]); err != nil {
			return err
		}
	}
	return nil
}

// WriteGauge renders one unlabeled gauge.
func WriteGauge(w io.Writer, name string, v float64) error {
	_, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", name, name, v)
	return err
}

// WriteHistogram renders h as a Prometheus histogram family plus a
// quantile gauge family (p50/p95/p99 at the histogram's power-of-two
// bucket resolution). scale converts sample units into exposition units
// (1e-9 renders nanosecond samples as seconds).
func WriteHistogram(w io.Writer, name string, h *stats.Histogram, scale float64) error {
	bounds, counts := h.Cumulative()
	count := h.Count()
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	for i, b := range bounds {
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(float64(b)*scale), counts[i]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, formatFloat(float64(h.Sum())*scale), name, count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s_quantile gauge\n", name); err != nil {
		return err
	}
	for _, q := range [...]struct {
		label string
		q     float64
	}{{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}} {
		if _, err := fmt.Fprintf(w, "%s_quantile{quantile=%q} %s\n",
			name, q.label, formatFloat(float64(h.Quantile(q.q))*scale)); err != nil {
			return err
		}
	}
	return nil
}

// LabeledHistogram pairs one histogram with the label value that
// distinguishes it inside a shared metric family.
type LabeledHistogram struct {
	Label string
	H     *stats.Histogram
}

// WriteLabeledHistograms renders several histograms as ONE Prometheus
// histogram family distinguished by a label (plus one shared quantile
// gauge family) — a single TYPE line per family, so the exposition stays
// valid when the router exposes one latency distribution per backend.
// scale converts sample units into exposition units (1e-9 renders
// nanosecond samples as seconds). Nil histograms are skipped.
func WriteLabeledHistograms(w io.Writer, name, label string, items []LabeledHistogram, scale float64) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	for _, it := range items {
		if it.H == nil {
			continue
		}
		bounds, counts := it.H.Cumulative()
		count := it.H.Count()
		for i, b := range bounds {
			if _, err := fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d\n",
				name, label, it.Label, formatFloat(float64(b)*scale), counts[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, it.Label, count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum{%s=%q} %s\n%s_count{%s=%q} %d\n",
			name, label, it.Label, formatFloat(float64(it.H.Sum())*scale),
			name, label, it.Label, count); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s_quantile gauge\n", name); err != nil {
		return err
	}
	for _, it := range items {
		if it.H == nil {
			continue
		}
		for _, q := range [...]struct {
			label string
			q     float64
		}{{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}} {
			if _, err := fmt.Fprintf(w, "%s_quantile{%s=%q,quantile=%q} %s\n",
				name, label, it.Label, q.label, formatFloat(float64(it.H.Quantile(q.q))*scale)); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatFloat renders a sample value without exponent surprises for
// integers and with full precision otherwise.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// bankFamily describes one per-bank metric family.
type bankFamily struct {
	name  string
	typ   string // "counter" or "gauge"
	value func(BankSnapshot) string
}

// bankFamilies is the per-bank metric family catalogue shared by the
// single- and multi-telemetry renderers.
var bankFamilies = []bankFamily{
	{"reads_total", "counter", func(b BankSnapshot) string { return fmt.Sprintf("%d", b.Reads) }},
	{"writes_total", "counter", func(b BankSnapshot) string { return fmt.Sprintf("%d", b.Writes) }},
	{"writebacks_total", "counter", func(b BankSnapshot) string { return fmt.Sprintf("%d", b.Writebacks) }},
	{"row_buffer_hits_total", "counter", func(b BankSnapshot) string { return fmt.Sprintf("%d", b.RowHits) }},
	{"row_buffer_misses_total", "counter", func(b BankSnapshot) string { return fmt.Sprintf("%d", b.RowMisses) }},
	{"col_buffer_hits_total", "counter", func(b BankSnapshot) string { return fmt.Sprintf("%d", b.ColHits) }},
	{"col_buffer_misses_total", "counter", func(b BankSnapshot) string { return fmt.Sprintf("%d", b.ColMisses) }},
	{"ecc_retries_total", "counter", func(b BankSnapshot) string { return fmt.Sprintf("%d", b.Retries) }},
	{"bus_busy_ps_total", "counter", func(b BankSnapshot) string { return fmt.Sprintf("%d", b.BusBusyPs) }},
	{"queue_depth", "gauge", func(b BankSnapshot) string { return fmt.Sprintf("%d", b.Queued) }},
	{"queue_peak", "gauge", func(b BankSnapshot) string { return fmt.Sprintf("%d", b.QueuePeak) }},
	{"row_buffer_hit_rate", "gauge", func(b BankSnapshot) string { return formatFloat(b.RowHitRate) }},
	{"col_buffer_hit_rate", "gauge", func(b BankSnapshot) string { return formatFloat(b.ColHitRate) }},
}

// WriteProm renders the per-bank telemetry as labeled metric families
// (`<prefix>_row_hits_total{bank="3"}` and friends). A nil receiver
// renders nothing.
func (t *Telemetry) WriteProm(w io.Writer, prefix string) error {
	if t == nil {
		return nil
	}
	snap := t.Snapshot()
	for _, f := range bankFamilies {
		name := prefix + "_" + f.name
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, f.typ); err != nil {
			return err
		}
		for _, b := range snap.Banks {
			if _, err := fmt.Fprintf(w, "%s{bank=\"%d\"} %s\n", name, b.Bank, f.value(b)); err != nil {
				return err
			}
		}
	}
	return nil
}

// WritePromSharded renders several telemetries (one per shard) as one set
// of metric families with shard and bank labels — each family gets a
// single TYPE line, so the exposition stays valid Prometheus text format.
// Nil telemetries in the slice are skipped.
func WritePromSharded(w io.Writer, prefix string, tels []*Telemetry) error {
	snaps := make([]Snapshot, len(tels))
	for i, t := range tels {
		if t != nil {
			snaps[i] = t.Snapshot()
		}
	}
	for _, f := range bankFamilies {
		name := prefix + "_" + f.name
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, f.typ); err != nil {
			return err
		}
		for i, t := range tels {
			if t == nil {
				continue
			}
			for _, b := range snaps[i].Banks {
				if _, err := fmt.Fprintf(w, "%s{shard=\"%d\",bank=\"%d\"} %s\n",
					name, i, b.Bank, f.value(b)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
