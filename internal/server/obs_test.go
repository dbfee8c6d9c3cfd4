package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rcnvm/internal/obs"
)

// seedWide creates and fills a table big enough that a timed SELECT
// touches memory in the replay.
func seedWide(t *testing.T, c *Client) {
	t.Helper()
	mustQuery(t, c, "CREATE TABLE o (id, v) CAPACITY 4096")
	var ins bytes.Buffer
	ins.WriteString("INSERT INTO o VALUES ")
	for i := 0; i < 256; i++ {
		if i > 0 {
			ins.WriteByte(',')
		}
		fmt.Fprintf(&ins, "(%d,%d)", i, i%7)
	}
	mustQuery(t, c, ins.String())
}

// checkPromText is a minimal Prometheus text-format validator: every
// non-comment line must be `name{labels} value` with a legal name and a
// parseable float. Returns the samples keyed by the full line name.
func checkPromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	nameRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})?$`)
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		key, val := line[:sp], line[sp+1:]
		if !nameRe.MatchString(key) {
			t.Fatalf("bad sample name in %q", line)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil && val != "+Inf" {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[key] = f
	}
	return out
}

func TestMetricsEndpoint(t *testing.T) {
	s, addr := newTestServer(t, Options{})
	haddr, err := s.ListenHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	get := func(path, contentType string) []byte {
		t.Helper()
		hr, err := http.Get("http://" + haddr.String() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		if ct := hr.Header.Get("Content-Type"); ct != contentType {
			t.Fatalf("%s content type = %q, want %q", path, ct, contentType)
		}
		body, err := io.ReadAll(hr.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	// A fresh server's counters are exactly the declared series, unfired
	// ones at 0, and /metrics renders every one of them.
	fresh := s.Stats()
	freshSamples := checkPromText(t, string(get("/metrics", obs.ContentType)))
	for _, name := range Family.Names() {
		if v, ok := fresh.Counters[name]; !ok || v != 0 {
			t.Errorf("fresh counters: %s = %d (listed %v), want 0", name, v, ok)
		}
		metric := obs.MetricName("rcnvm", name)
		if !Family.IsGauge(name) {
			metric += "_total"
		}
		if _, ok := freshSamples[metric]; !ok {
			t.Errorf("fresh /metrics does not render %s as %s", name, metric)
		}
	}
	if len(fresh.Counters) != len(Family.Names()) {
		t.Errorf("fresh counters list %d series, Family declares %d: %v", len(fresh.Counters), len(Family.Names()), fresh.Counters)
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedWide(t, c)
	if _, err := c.QueryTimed("SELECT SUM(v) FROM o"); err != nil {
		t.Fatal(err)
	}
	samples := checkPromText(t, string(get("/metrics", obs.ContentType)))

	if samples["rcnvm_server_queries_total"] < 3 {
		t.Fatalf("queries_total = %v", samples["rcnvm_server_queries_total"])
	}
	// Fault series render even with injection off.
	if _, ok := samples["rcnvm_fault_ecc_uncorrectable_total"]; !ok {
		t.Fatal("fault series missing from /metrics")
	}
	// The timed query's replay fed the per-bank aggregate.
	var bankReads float64
	for k, v := range samples {
		if strings.HasPrefix(k, "rcnvm_bank_reads_total{") {
			bankReads += v
		}
	}
	if bankReads == 0 {
		t.Fatal("no per-bank read series after a timed query")
	}
	// Latency histogram with quantile gauges.
	if samples[`rcnvm_server_query_latency_seconds_bucket{le="+Inf"}`] < 3 {
		t.Fatal("latency histogram missing or undercounting")
	}
	if _, ok := samples[`rcnvm_server_query_latency_seconds_quantile{quantile="0.99"}`]; !ok {
		t.Fatal("latency p99 gauge missing")
	}
	if samples["rcnvm_server_pool_workers"] <= 0 {
		t.Fatal("pool gauges missing")
	}
}

// TestStatsBanksEndpoint checks that the JSON views are gone — GET /stats
// and GET /stats/banks answer 404 — and that what /stats/banks served is
// still there: the runs in process, the per-bank reads on /metrics.
func TestStatsBanksEndpoint(t *testing.T) {
	s, addr := newTestServer(t, Options{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedWide(t, c)
	if _, err := c.QueryTimed("SELECT SUM(v) FROM o"); err != nil {
		t.Fatal(err)
	}

	haddr, err := s.ListenHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/stats", "/stats/banks"} {
		if code := getStatus(t, "http://"+haddr.String()+path); code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, code)
		}
	}
	snap := s.Telemetry().Snapshot()
	if snap.Runs < 1 {
		t.Fatalf("runs = %d, want >= 1", snap.Runs)
	}
	if len(snap.Banks) == 0 {
		t.Fatal("no banks in snapshot")
	}
	var reads int64
	for _, b := range snap.Banks {
		reads += b.Reads
	}
	if reads == 0 {
		t.Fatal("timed query recorded no per-bank reads")
	}
	var rendered float64
	for key, v := range parseMetrics(t, getBody(t, "http://"+haddr.String()+"/metrics")) {
		if strings.HasPrefix(key, "rcnvm_bank_reads_total{") {
			rendered += v
		}
	}
	if rendered != float64(reads) {
		t.Fatalf("/metrics renders %v bank reads, the telemetry holds %d", rendered, reads)
	}
}

func TestTraceRequest(t *testing.T) {
	_, addr := newTestServer(t, Options{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedWide(t, c)

	resp, err := c.QueryTraced("SELECT SUM(v) FROM o", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.TraceEvents) == 0 {
		t.Fatal("traced query returned no trace document")
	}
	var doc struct {
		TraceEvents []obs.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(resp.TraceEvents, &doc); err != nil {
		t.Fatalf("trace document is not valid JSON: %v", err)
	}
	phases := map[string]bool{}
	var memSpans int
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		phases[e.Name] = true
		if e.Cat == obs.CatMem {
			memSpans++
		}
	}
	for _, want := range []string{"parse", "exec", "replay_dual", "replay_row"} {
		if !phases[want] {
			t.Errorf("trace missing %q phase (have %v)", want, phases)
		}
	}
	if memSpans == 0 {
		t.Error("timed trace has no per-memory-request spans")
	}

	// An untraced query must carry no trace document.
	if resp := mustQuery(t, c, "SELECT SUM(v) FROM o"); len(resp.TraceEvents) != 0 {
		t.Fatal("untraced query returned a trace document")
	}
}

func TestTraceEverySamplingToSink(t *testing.T) {
	var sink lockedBuffer
	_, addr := newTestServer(t, Options{TraceEvery: 1, TraceSink: &sink})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp := mustQuery(t, c, "CREATE TABLE s (a) CAPACITY 64")
	if len(resp.TraceEvents) != 0 {
		t.Fatal("server-side sampling must not attach traces to responses")
	}
	text := sink.String()
	if text == "" {
		t.Fatal("sampled trace did not reach the sink")
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("sink line is not one JSON event: %q", sc.Text())
		}
	}
}

// TestTraceSpansDroppedCounted holds server.trace_spans_dropped to the
// recorder's limit: 0 on a fresh server, and above 0 once a timed, traced
// SUM over 65 536 rows has recorded more spans than obs.DefaultSpanLimit.
func TestTraceSpansDroppedCounted(t *testing.T) {
	s, addr := newTestServer(t, Options{})
	haddr, err := s.ListenHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dropped := func() float64 {
		m := parseMetrics(t, getBody(t, "http://"+haddr.String()+"/metrics"))
		v, ok := m["rcnvm_server_trace_spans_dropped_total"]
		if !ok {
			t.Fatal("/metrics has no rcnvm_server_trace_spans_dropped_total")
		}
		return v
	}
	if n := dropped(); n != 0 {
		t.Fatalf("a fresh server counts %v dropped spans, want 0", n)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const rows = 1 << 16
	mustQuery(t, c, fmt.Sprintf("CREATE TABLE big (id, v) CAPACITY %d", rows))
	for first := 0; first < rows; first += 8192 {
		var ins bytes.Buffer
		ins.WriteString("INSERT INTO big VALUES ")
		for i := first; i < first+8192; i++ {
			if i > first {
				ins.WriteByte(',')
			}
			fmt.Fprintf(&ins, "(%d,%d)", i, i%7)
		}
		mustQuery(t, c, ins.String())
	}
	// Over POST /query: a reply carrying 16 384 spans is longer than a TCP
	// session's line.
	resp, err := http.Post("http://"+haddr.String()+"/query", "application/json",
		strings.NewReader(`{"query":"SELECT SUM(v) FROM big","timing":true,"trace":true}`))
	if err != nil {
		t.Fatal(err)
	}
	var r Response
	err = json.NewDecoder(resp.Body).Decode(&r)
	resp.Body.Close()
	if err != nil || r.Error != nil || len(r.TraceEvents) == 0 {
		t.Fatalf("traced SUM: %v, error %+v, %d bytes of trace", err, r.Error, len(r.TraceEvents))
	}
	if n := dropped(); n <= 0 {
		t.Fatalf("a traced SUM over %d rows counts %v dropped spans, want > 0", rows, n)
	}
}

// lockedBuffer is an io.Writer safe for concurrent use with String.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func TestSessionCloseLog(t *testing.T) {
	var logBuf lockedBuffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	_, addr := newTestServer(t, Options{Logger: logger})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	mustQuery(t, c, "CREATE TABLE lg (a) CAPACITY 64")
	mustQuery(t, c, "INSERT INTO lg VALUES (1)")
	c.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := logBuf.String(); strings.Contains(s, "session closed") {
			var entry map[string]any
			line := s[:strings.IndexByte(s, '\n')]
			if err := json.Unmarshal([]byte(line), &entry); err != nil {
				t.Fatalf("log line is not JSON: %q", line)
			}
			if entry["statements"] != float64(2) {
				t.Fatalf("statements = %v, want 2", entry["statements"])
			}
			if entry["errors"] != float64(0) {
				t.Fatalf("errors = %v, want 0", entry["errors"])
			}
			if _, ok := entry["duration"]; !ok {
				t.Fatal("log line missing duration")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no session-close log line within deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
