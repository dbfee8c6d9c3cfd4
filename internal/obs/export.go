package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace-event export: the JSON Object Format of the Trace Event
// specification, loadable in Perfetto (ui.perfetto.dev) and
// chrome://tracing. Every span becomes a complete ("ph":"X") event with
// microsecond ts/dur; each distinct Span.Proc becomes one process, named
// via "M" metadata events so the viewer labels the timelines.

// Event is one trace-event object. Exported so tests (and tooling reading
// the NDJSON stream) can decode events back.
type Event struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat,omitempty"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	PID  int     `json:"pid"`
	TID  int64   `json:"tid"`
	Args any     `json:"args,omitempty"`
}

// tracePayload is the top-level JSON Object Format document.
type tracePayload struct {
	TraceEvents     []Event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

// toMicros converts a span time to trace microseconds: wall nanoseconds
// divide by 1e3, simulated picoseconds by 1e6 (fractional values are fine;
// the format takes doubles).
func toMicros(v int64, sim bool) float64 {
	if sim {
		return float64(v) / 1e6
	}
	return float64(v) / 1e3
}

// Events converts spans into trace events: first the process-name
// metadata, then every span as a complete event sorted by ascending ts
// (FIFO for ties), which is the monotonic order viewers expect.
func Events(spans []Span) []Event {
	pids := make(map[string]int)
	var procs []string
	for _, s := range spans {
		if _, ok := pids[s.Proc]; !ok {
			pids[s.Proc] = len(pids) + 1
			procs = append(procs, s.Proc)
		}
	}
	out := make([]Event, 0, len(spans)+len(procs))
	for _, p := range procs {
		out = append(out, Event{
			Name: "process_name",
			Ph:   "M",
			PID:  pids[p],
			Args: map[string]string{"name": p},
		})
	}
	evs := make([]Event, 0, len(spans))
	for _, s := range spans {
		e := Event{
			Name: s.Name,
			Cat:  s.Cat,
			Ph:   "X",
			TS:   toMicros(s.Start, s.Sim),
			Dur:  toMicros(s.Dur, s.Sim),
			PID:  pids[s.Proc],
			TID:  s.TID,
		}
		if len(s.Args) > 0 {
			e.Args = s.Args
		}
		evs = append(evs, e)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	return append(out, evs...)
}

// ChromeTraceJSON renders events as one Chrome trace-event document, raw
// JSON with no trailing newline, ready to embed in a response field: a
// node's spans as Events makes them, or the router's own and a backend's
// merged into one slice.
func ChromeTraceJSON(events []Event) ([]byte, error) {
	return json.Marshal(tracePayload{TraceEvents: events, DisplayTimeUnit: "ns"})
}

// ParseChromeTrace decodes a Chrome trace-event document (the
// ChromeTraceJSON output shape) back into its events. Used by the router
// to lift a backend's trace document into the stitched cluster trace.
func ParseChromeTrace(doc []byte) ([]Event, error) {
	var p tracePayload
	if err := json.Unmarshal(doc, &p); err != nil {
		return nil, fmt.Errorf("obs: parse trace document: %w", err)
	}
	return p.TraceEvents, nil
}

// WriteNDJSON writes the spans as newline-delimited trace events (one
// JSON object per line, metadata events included) — the streaming form
// for tooling that tails a trace file across many queries.
func WriteNDJSON(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	for _, e := range Events(spans) {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("obs: ndjson: %w", err)
		}
	}
	return nil
}
