package cluster

import (
	"encoding/json"
	"sort"
	"time"

	"rcnvm/internal/obs"
	"rcnvm/internal/server"
)

// Cross-node trace stitching. A request that sets "trace": true gets a
// router-side recorder; the router stamps a cluster-unique trace id into
// the forwarded request (Request.TraceID, an optional wire field old
// servers silently drop), collects the backend's own trace document from
// the response, and merges both into ONE Chrome trace-event JSON: router
// spans (queue-at-router, dial, backend wait, failover) in the router's
// process lanes, backend spans in their own lanes with the serving node's
// name prefixed, all sharing the trace id as thread id. The client
// receives a single Perfetto-loadable document showing the request's
// whole cluster journey.

// fwdTrace carries the per-request trace state through the forwarding
// path. It is nil for untraced requests — every method no-ops on a nil
// receiver, so the hot path pays exactly one pointer comparison and
// allocates nothing.
type fwdTrace struct {
	rec *obs.Recorder
	tid int64
	// node is the name of the backend whose response the client will get
	// (set on the attempt that produced the returned response).
	node string
}

// beginTrace returns the trace state for one request: nil unless the
// request asked for tracing. A zero TraceID is assigned here so all spans
// of this request — router and backend — share one thread id.
func (ss *session) beginTrace(req *server.Request) *fwdTrace {
	if !req.Trace {
		return nil
	}
	if req.TraceID == 0 {
		req.TraceID = int64(ss.r.traceSeq.Add(1))
	}
	return &fwdTrace{rec: obs.NewRecorder(), tid: req.TraceID}
}

// span records one router-side wall span. Nil-safe.
func (t *fwdTrace) span(name string, start time.Time) {
	if t == nil {
		return
	}
	t.rec.WallSince(obs.ProcRouter, name, obs.CatRoute, t.tid, start)
}

// spanNode records one router-side wall span named after a backend
// ("backend_wait:replica-0"). Nil-safe; the name concatenation happens
// after the nil check so untraced requests never pay for it.
func (t *fwdTrace) spanNode(phase, node string, start time.Time) {
	if t == nil {
		return
	}
	t.rec.WallSince(obs.ProcRouter, phase+":"+node, obs.CatRoute, t.tid, start)
}

// served records which backend's response is going back to the client.
// Nil-safe.
func (t *fwdTrace) served(node string) {
	if t == nil {
		return
	}
	t.node = node
}

// stitch replaces the response's trace document (the serving backend's
// own spans) with the merged router+backend document. Stitching failures
// degrade to the backend's document as-is — a trace is diagnostics, never
// a reason to fail the query. Nil-safe.
func (t *fwdTrace) stitch(resp *server.Response) {
	if t == nil || resp == nil {
		return
	}
	doc, err := stitchTrace(t.rec.Spans(), t.node, resp.TraceEvents)
	if err == nil && doc != nil {
		resp.TraceEvents = json.RawMessage(doc)
	}
}

// stitchTrace merges the router's spans with one backend's trace document
// into a single Chrome trace-event JSON. Each node keeps its own process
// ids (router processes first, backend processes shifted above them) and
// the backend's process names gain a "node: " prefix, so Perfetto shows
// one lane group per node. Metadata events come first, then complete
// events sorted by timestamp, matching the single-node exporter's shape.
func stitchTrace(routerSpans []obs.Span, backendName string, backendDoc []byte) ([]byte, error) {
	events := obs.Events(routerSpans)
	maxPid := 0
	for _, e := range events {
		if e.PID > maxPid {
			maxPid = e.PID
		}
	}
	if len(backendDoc) > 0 {
		bev, err := obs.ParseChromeTrace(backendDoc)
		if err != nil {
			return nil, err
		}
		if backendName == "" {
			backendName = "backend"
		}
		for i := range bev {
			e := &bev[i]
			e.PID += maxPid
			if e.Ph == "M" && e.Name == "process_name" {
				name := backendName
				if m, ok := e.Args.(map[string]any); ok {
					if s, ok := m["name"].(string); ok && s != "" {
						name = backendName + ": " + s
					}
				}
				e.Args = map[string]string{"name": name}
			}
		}
		events = append(events, bev...)
	}
	// Re-establish the canonical ordering across both nodes' events.
	sort.SliceStable(events, func(i, j int) bool {
		mi, mj := events[i].Ph == "M", events[j].Ph == "M"
		if mi != mj {
			return mi
		}
		if mi {
			return false // keep metadata in arrival order
		}
		return events[i].TS < events[j].TS
	})
	return obs.ChromeTraceJSON(events)
}
