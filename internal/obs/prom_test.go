package obs

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"rcnvm/internal/stats"
)

func TestMetricName(t *testing.T) {
	cases := map[string]string{
		"server.queries":  "rcnvm_server_queries",
		"fault.ecc-fix":   "rcnvm_fault_ecc_fix",
		"mem.buffer_hits": "rcnvm_mem_buffer_hits",
		"core.compute ps": "rcnvm_core_compute_ps",
		"x1.y2":           "rcnvm_x1_y2",
	}
	for in, want := range cases {
		if got := MetricName("rcnvm", in); got != want {
			t.Errorf("MetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

// parseProm is a minimal validator of the Prometheus text format: every
// non-comment line must be `name{labels} value` with a legal metric name
// and a parseable float. It returns samples keyed by full sample line
// name (including labels).
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	nameRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe := regexp.MustCompile(`^\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\}$`)
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# TYPE ") && !strings.HasPrefix(line, "# HELP ") {
				t.Fatalf("bad comment line: %q", line)
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		key, val := line[:sp], line[sp+1:]
		name, labels := key, ""
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name, labels = key[:i], key[i:]
			if !labelRe.MatchString(labels) {
				t.Fatalf("bad labels in %q", line)
			}
		}
		if !nameRe.MatchString(name) {
			t.Fatalf("bad metric name in %q", line)
		}
		f, err := strconv.ParseFloat(strings.TrimPrefix(val, "+"), 64)
		if err != nil && val != "+Inf" {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[key] = f
	}
	return out
}

func TestWriteCountersFormat(t *testing.T) {
	var b bytes.Buffer
	counters := map[string]int64{
		"server.queries":         42,
		"server.sessions_active": 3,
		"fault.transient_bits":   0,
	}
	var fam stats.Family
	fam.Gauge("server.sessions_active")
	p := NewWriter(&b)
	p.Counters("rcnvm", counters, &fam)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	samples := parseProm(t, b.String())
	if samples["rcnvm_server_queries_total"] != 42 {
		t.Fatalf("queries = %v", samples)
	}
	if samples["rcnvm_server_sessions_active"] != 3 {
		t.Fatal("gauge must not carry _total suffix")
	}
	if _, ok := samples["rcnvm_fault_transient_bits_total"]; !ok {
		t.Fatal("zero-valued counters must still render")
	}
	if !strings.Contains(b.String(), "# TYPE rcnvm_server_sessions_active gauge") {
		t.Fatal("missing gauge TYPE line")
	}
}

func TestWriteHistogramFormat(t *testing.T) {
	h := stats.NewHistogram()
	for _, v := range []int64{1, 2, 3, 100, 1000, 100000} {
		h.Observe(v)
	}
	var b bytes.Buffer
	p := NewWriter(&b)
	p.Histograms("rcnvm_query_latency_seconds", "", []LabeledHistogram{{H: h}}, 1e-9)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	samples := parseProm(t, text)
	if samples[`rcnvm_query_latency_seconds_bucket{le="+Inf"}`] != 6 {
		t.Fatalf("+Inf bucket = %v", samples)
	}
	if samples["rcnvm_query_latency_seconds_count"] != 6 {
		t.Fatal("count missing")
	}
	// Buckets must be cumulative and non-decreasing.
	var last float64
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "rcnvm_query_latency_seconds_bucket") {
			v, _ := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if v < last {
				t.Fatalf("bucket counts not cumulative at %q", line)
			}
			last = v
		}
	}
	for _, q := range []string{"0.5", "0.95", "0.99"} {
		if _, ok := samples[fmt.Sprintf("rcnvm_query_latency_seconds_quantile{quantile=%q}", q)]; !ok {
			t.Fatalf("missing p%s quantile gauge", q)
		}
	}
}

func TestTelemetryWriteProm(t *testing.T) {
	tel := NewTelemetry(2)
	tel.Add([]stats.BankCounters{{RowHits: 1}, {Reads: 1, ColMisses: 1, Retries: 1}})
	var b bytes.Buffer
	p := NewWriter(&b)
	p.Banks("rcnvm_bank", tel)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	samples := parseProm(t, b.String())
	if samples[`rcnvm_bank_row_buffer_hits_total{bank="0"}`] != 1 {
		t.Fatalf("bank0 row hits missing: %v", samples)
	}
	if samples[`rcnvm_bank_col_buffer_misses_total{bank="1"}`] != 1 {
		t.Fatal("bank1 col misses missing")
	}
	if samples[`rcnvm_bank_ecc_retries_total{bank="1"}`] != 1 {
		t.Fatal("bank1 retries missing")
	}
	// Nil telemetry renders nothing and does not crash.
	var nilTel *Telemetry
	var nb bytes.Buffer
	np := NewWriter(&nb)
	if np.Banks("x", nilTel); np.Err() != nil || nb.Len() != 0 {
		t.Fatal("nil telemetry must render nothing")
	}
}

// failingWriter accepts n writes, then fails every later one.
type failingWriter struct{ n, writes int }

func (f *failingWriter) Write(b []byte) (int, error) {
	f.writes++
	if f.writes > f.n {
		return 0, errors.New("disk full")
	}
	return len(b), nil
}

func TestWriterKeepsFirstError(t *testing.T) {
	fw := &failingWriter{n: 3}
	p := NewWriter(fw)
	p.Counters("rcnvm", map[string]int64{"a": 1, "b": 2, "c": 3})
	p.Gauge("rcnvm_g", 1)
	if err := p.Err(); err == nil || err.Error() != "disk full" {
		t.Fatalf("Err() = %v, want the first write error", err)
	}
	if fw.writes != 4 {
		t.Fatalf("%d writes reached the writer, want 4: nothing after the first error", fw.writes)
	}
}

func TestParseFamilies(t *testing.T) {
	body := "stray 1\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\nother{a=\"x,y\",b=\"q\\\"\"} 4 1700000000\n# TYPE h histogram\nh_count 5\nbad\n"
	want := []Family{
		{Name: "stray", Samples: []Sample{{Name: "stray", Value: "1"}}},
		{Name: "h", Type: "histogram", Samples: []Sample{
			{Name: "h_bucket", Labels: []Label{{"le", "+Inf"}}, Value: "2"},
			{Name: "h_sum", Value: "3"},
			{Name: "h_count", Value: "2"},
			{Name: "h_count", Value: "5"},
		}},
		{Name: "other", Samples: []Sample{{Name: "other", Labels: []Label{{"a", "x,y"}, {"b", `q\"`}}, Value: "4 1700000000"}}},
	}
	if got := Parse([]byte(body)); !reflect.DeepEqual(got, want) {
		t.Fatalf("Parse:\n got %+v\nwant %+v", got, want)
	}
}
