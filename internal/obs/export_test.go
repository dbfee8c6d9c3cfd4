package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureSpans is a deterministic mixed wall/sim trace: one query timeline
// plus memory-request phases of a dual replay on two banks.
func fixtureSpans() []Span {
	return []Span{
		{Proc: ProcQuery, Name: "parse", Cat: CatSQL, TID: 0, Start: 1_000, Dur: 12_000},
		{Proc: ProcQuery, Name: "lock_wait", Cat: CatSQL, TID: 0, Start: 13_000, Dur: 2_000},
		{Proc: ProcQuery, Name: "exec", Cat: CatSQL, TID: 0, Start: 15_000, Dur: 410_000},
		{Proc: ProcQuery, Name: "replay_dual", Cat: CatServer, TID: 0, Start: 430_000, Dur: 1_200_000},
		{Proc: ProcSimDual, Name: "queue", Cat: CatMem, TID: 3, Start: 0, Dur: 1_500_000, Sim: true},
		{Proc: ProcSimDual, Name: "activate", Cat: CatMem, TID: 3, Start: 1_500_000, Dur: 45_000_000, Sim: true,
			Args: map[string]int64{"column": 1}},
		{Proc: ProcSimDual, Name: "burst", Cat: CatMem, TID: 3, Start: 46_500_000, Dur: 10_000_000, Sim: true},
		{Proc: ProcSimDual, Name: "hit", Cat: CatMem, TID: 7, Start: 47_000_000, Dur: 15_000_000, Sim: true},
	}
}

// TestChromeTraceGolden locks the export format byte for byte: a format
// drift (field rename, ordering change) breaks saved traces and tooling.
func TestChromeTraceGolden(t *testing.T) {
	raw, err := ChromeTraceJSON(Events(fixtureSpans()))
	if err != nil {
		t.Fatal(err)
	}
	got := append(raw, '\n') // the golden file is the document and a newline
	golden := filepath.Join("testdata", "chrome_trace.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("chrome trace drifted from golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestChromeTraceRoundTrip decodes the export back and checks the spans
// survive: names, categories, lanes and the us conversions.
func TestChromeTraceRoundTrip(t *testing.T) {
	raw, err := ChromeTraceJSON(Events(fixtureSpans()))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var complete []Event
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			complete = append(complete, e)
		}
	}
	if len(complete) != len(fixtureSpans()) {
		t.Fatalf("complete events = %d, want %d", len(complete), len(fixtureSpans()))
	}
	// Wall ns -> us and sim ps -> us.
	byName := map[string]Event{}
	for _, e := range complete {
		byName[e.Name] = e
	}
	if e := byName["parse"]; e.TS != 1.0 || e.Dur != 12.0 {
		t.Fatalf("parse ts/dur = %g/%g, want 1/12 us", e.TS, e.Dur)
	}
	if e := byName["activate"]; e.TS != 1.5 || e.Dur != 45.0 || e.TID != 3 {
		t.Fatalf("activate = %+v", e)
	}
}

// TestChromeTracePerfettoShape is the Perfetto-compatibility check: every
// event carries pid/tid/ts/ph, complete events have ph "X" with a
// duration, processes are named via "M" metadata, and ts is monotonic
// non-decreasing across the complete events.
func TestChromeTracePerfettoShape(t *testing.T) {
	raw, err := ChromeTraceJSON(Events(fixtureSpans()))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("missing traceEvents key")
	}
	var events []map[string]json.RawMessage
	if err := json.Unmarshal(doc["traceEvents"], &events); err != nil {
		t.Fatal(err)
	}
	named := map[int]bool{}
	lastTS := -1.0
	for i, e := range events {
		for _, field := range []string{"ph", "pid", "tid", "name"} {
			if _, ok := e[field]; !ok {
				t.Fatalf("event %d missing %q: %v", i, field, e)
			}
		}
		var ph string
		json.Unmarshal(e["ph"], &ph)
		var pid int
		json.Unmarshal(e["pid"], &pid)
		if pid <= 0 {
			t.Fatalf("event %d pid = %d, want > 0", i, pid)
		}
		switch ph {
		case "M":
			named[pid] = true
		case "X":
			if !named[pid] {
				t.Fatalf("event %d references unnamed process %d", i, pid)
			}
			var ts float64
			if err := json.Unmarshal(e["ts"], &ts); err != nil {
				t.Fatalf("event %d ts not numeric: %v", i, err)
			}
			if ts < lastTS {
				t.Fatalf("event %d ts %g < previous %g: not monotonic", i, ts, lastTS)
			}
			lastTS = ts
			if _, ok := e["dur"]; !ok {
				t.Fatalf("complete event %d missing dur", i)
			}
		default:
			t.Fatalf("event %d has unexpected ph %q", i, ph)
		}
	}
	if lastTS < 0 {
		t.Fatal("no complete events")
	}
}

// TestNDJSONStream checks the streaming form: one valid JSON event per
// line, same events as the Chrome document.
func TestNDJSONStream(t *testing.T) {
	var b bytes.Buffer
	if err := WriteNDJSON(&b, fixtureSpans()); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&b)
	lines := 0
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d: %v", lines+1, err)
		}
		lines++
	}
	// fixture spans use 2 distinct procs -> 2 metadata + len(spans) events.
	if want := len(fixtureSpans()) + 2; lines != want {
		t.Fatalf("lines = %d, want %d", lines, want)
	}
}
