package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"rcnvm/internal/stats"
)

// Prometheus text exposition (format version 0.0.4). This file is the one
// place that knows the format: Writer renders every /metrics and
// /cluster/metrics byte, and Parse reads an exposition back into families
// so federation merges structure instead of editing text. Rendering is
// fully deterministic (sorted names) so tests can golden it.

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

// Label is one name="value" pair of a sample. Values are written between
// quotes as given: the repo's own are node names and numbers, and a
// parsed value keeps its escaped form, so relaying it is byte-exact.
type Label struct{ Name, Value string }

// Sample is one sample line: its metric name (the family's, or a
// histogram's _bucket/_sum/_count), labels in order, and value as text.
type Sample struct {
	Name   string
	Labels []Label
	Value  string
}

// Family is one metric family: a single TYPE ("" for an untyped family,
// which renders no TYPE line) and its samples.
type Family struct {
	Name, Type string
	Samples    []Sample
}

// Writer renders an exposition. It keeps the first write error, after
// which every write is a no-op; Err returns it.
type Writer struct {
	w   io.Writer
	err error
}

// NewWriter returns a Writer rendering to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first write error, if any.
func (p *Writer) Err() error { return p.err }

func (p *Writer) write(s string) {
	if p.err == nil {
		_, p.err = io.WriteString(p.w, s)
	}
}

// Type declares a family: its one "# TYPE" line, which its samples follow.
func (p *Writer) Type(name, typ string) { p.write("# TYPE " + name + " " + typ + "\n") }

// Sample writes one sample line: name{labels} value.
func (p *Writer) Sample(name, value string, labels ...Label) {
	if len(labels) > 0 {
		pairs := make([]string, len(labels))
		for i, l := range labels {
			pairs[i] = l.Name + `="` + l.Value + `"`
		}
		name += "{" + strings.Join(pairs, ",") + "}"
	}
	p.write(name + " " + value + "\n")
}

// Family writes f: its TYPE line, then its samples.
func (p *Writer) Family(f Family) {
	if f.Type != "" {
		p.Type(f.Name, f.Type)
	}
	for _, s := range f.Samples {
		p.Sample(s.Name, s.Value, s.Labels...)
	}
}

// Gauge writes one unlabeled gauge family.
func (p *Writer) Gauge(name string, v float64) {
	p.Type(name, "gauge")
	p.Sample(name, fmt.Sprintf("%g", v))
}

// Counters renders a counter snapshot as one family per counter, sorted by
// name. A name one of fams declares a gauge is typed gauge (a value that
// goes up and down, like sessions_active); everything else is a counter
// and gets the conventional _total suffix.
func (p *Writer) Counters(prefix string, counters map[string]int64, fams ...*stats.Family) {
	names := make([]string, 0, len(counters))
	for k := range counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m, typ := MetricName(prefix, k)+"_total", "counter"
		for _, f := range fams {
			if f.IsGauge(k) {
				m, typ = MetricName(prefix, k), "gauge"
			}
		}
		p.Type(m, typ)
		p.Sample(m, itoa(counters[k]))
	}
}

// LabeledHistogram pairs one histogram with the label value that
// distinguishes it inside a shared metric family.
type LabeledHistogram struct {
	Label string
	H     *stats.Histogram
}

// quantiles are the headline quantiles every histogram family carries as
// a companion gauge family (at the power-of-two bucket resolution).
var quantiles = [...]struct {
	label string
	q     float64
}{{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}}

// Histograms renders histograms as ONE Prometheus histogram family plus
// one quantile gauge family (p50/p95/p99) — a single TYPE line per family,
// so the exposition stays valid when the router exposes one latency
// distribution per backend. label names the label that tells the items
// apart; "" renders the items unlabeled (one item, then). scale converts
// sample units into exposition units (1e-9 renders nanosecond samples as
// seconds). Nil histograms are skipped.
func (p *Writer) Histograms(name, label string, items []LabeledHistogram, scale float64) {
	labels := func(it LabeledHistogram, extra ...Label) []Label {
		if label == "" {
			return extra
		}
		return append([]Label{{label, it.Label}}, extra...)
	}
	p.Type(name, "histogram")
	for _, it := range items {
		if it.H == nil {
			continue
		}
		bounds, counts := it.H.Cumulative()
		count := itoa(it.H.Count())
		for i, b := range bounds {
			p.Sample(name+"_bucket", itoa(counts[i]), labels(it, Label{"le", formatFloat(float64(b) * scale)})...)
		}
		p.Sample(name+"_bucket", count, labels(it, Label{"le", "+Inf"})...)
		p.Sample(name+"_sum", formatFloat(float64(it.H.Sum())*scale), labels(it)...)
		p.Sample(name+"_count", count, labels(it)...)
	}
	p.Type(name+"_quantile", "gauge")
	for _, it := range items {
		if it.H == nil {
			continue
		}
		for _, q := range quantiles {
			p.Sample(name+"_quantile", formatFloat(float64(it.H.Quantile(q.q))*scale), labels(it, Label{"quantile", q.label})...)
		}
	}
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

// formatFloat renders a sample value without exponent surprises for
// integers and with full precision otherwise.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return itoa(int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// bankFamilies is the per-bank metric family catalogue.
var bankFamilies = [...]struct {
	name, typ string
	value     func(BankSnapshot) string
}{
	{"reads_total", "counter", func(b BankSnapshot) string { return itoa(b.Reads) }},
	{"writes_total", "counter", func(b BankSnapshot) string { return itoa(b.Writes) }},
	{"writebacks_total", "counter", func(b BankSnapshot) string { return itoa(b.Writebacks) }},
	{"row_buffer_hits_total", "counter", func(b BankSnapshot) string { return itoa(b.RowHits) }},
	{"row_buffer_misses_total", "counter", func(b BankSnapshot) string { return itoa(b.RowMisses) }},
	{"col_buffer_hits_total", "counter", func(b BankSnapshot) string { return itoa(b.ColHits) }},
	{"col_buffer_misses_total", "counter", func(b BankSnapshot) string { return itoa(b.ColMisses) }},
	{"ecc_retries_total", "counter", func(b BankSnapshot) string { return itoa(b.Retries) }},
	{"bus_busy_ps_total", "counter", func(b BankSnapshot) string { return itoa(b.BusBusyPs) }},
	{"queue_peak", "gauge", func(b BankSnapshot) string { return itoa(b.QueuePeak) }},
	{"row_buffer_hit_rate", "gauge", func(b BankSnapshot) string { return formatFloat(b.RowHitRate) }},
	{"col_buffer_hit_rate", "gauge", func(b BankSnapshot) string { return formatFloat(b.ColHitRate) }},
}

// Banks renders per-bank telemetry as labeled metric families
// (`<prefix>_row_buffer_hits_total{bank="3"}` and friends), one TYPE line
// each. Several telemetries are shards: their samples lead with
// shard="<index>". Nil telemetries are skipped, and with none left nothing
// renders.
func (p *Writer) Banks(prefix string, tels ...*Telemetry) {
	snaps := make([]Snapshot, len(tels))
	live := false
	for i, t := range tels {
		snaps[i], live = t.Snapshot(), live || t != nil
	}
	if !live {
		return
	}
	for _, f := range bankFamilies {
		name := prefix + "_" + f.name
		p.Type(name, f.typ)
		for i, snap := range snaps {
			for _, b := range snap.Banks {
				labels := []Label{{"shard", strconv.Itoa(i)}, {"bank", strconv.Itoa(b.Bank)}}
				if len(tels) == 1 {
					labels = labels[1:]
				}
				p.Sample(name, f.value(b), labels...)
			}
		}
	}
}

// Parse reads an exposition into its families, in order of first
// appearance. A sample belongs to the family of the latest TYPE line when
// its name extends that family's name (name, name_bucket, ...); any other
// sample is filed under an untyped family named after itself. A family
// met twice keeps its first TYPE and collects every sample. Other
// comments, blank lines and lines without a value are dropped.
func Parse(body []byte) []Family {
	var fams []Family
	cur := -1
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			fams, cur = family(fams, f[2], f[3])
			continue
		}
		s, ok := parseSample(line)
		if !ok {
			continue
		}
		i := cur
		if i < 0 || !strings.HasPrefix(s.Name, fams[i].Name) {
			fams, i = family(fams, s.Name, "")
		}
		fams[i].Samples = append(fams[i].Samples, s)
	}
	return fams
}

// family returns the index of the family called name in fams, appending
// it with type typ when absent.
func family(fams []Family, name, typ string) ([]Family, int) {
	for i := range fams {
		if fams[i].Name == name {
			return fams, i
		}
	}
	return append(fams, Family{Name: name, Type: typ}), len(fams)
}

// parseSample splits one `name{a="b",...} value` line; ok is false for a
// comment, a blank line or a line without a value.
func parseSample(line string) (s Sample, ok bool) {
	i := strings.IndexAny(line, "{ ")
	if i <= 0 || line[0] == '#' {
		return s, false
	}
	s.Name, line = line[:i], line[i:]
	if line[0] == '{' {
		for line = line[1:]; !strings.HasPrefix(line, "}"); {
			name, rest, _ := strings.Cut(line, "=")
			q, err := strconv.QuotedPrefix(rest)
			if err != nil {
				return s, false
			}
			s.Labels = append(s.Labels, Label{name, q[1 : len(q)-1]})
			line = strings.TrimPrefix(rest[len(q):], ",")
		}
		line = line[1:]
	}
	s.Value, ok = strings.CutPrefix(line, " ")
	return s, ok
}

// Merge federates src, one node's parsed exposition, into dst: every
// sample gains first as its first label, a family dst holds keeps its
// TYPE and gains the samples, and a new family is appended.
func Merge(dst, src []Family, first Label) []Family {
	for _, f := range src {
		var i int
		dst, i = family(dst, f.Name, f.Type)
		for _, s := range f.Samples {
			s.Labels = append([]Label{first}, s.Labels...)
			dst[i].Samples = append(dst[i].Samples, s)
		}
	}
	return dst
}
