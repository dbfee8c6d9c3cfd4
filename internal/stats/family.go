package stats

import "sync/atomic"

// Family is the single declaration of the series a service publishes:
// each series is declared exactly once, by the statement that also names
// it —
//
//	var Queries = Family.Counter("server.queries")
//
// — so the list of names, their counter/gauge kind, the counter store
// built over the family (NewCounters) and the documentation lint all read
// the same place. Declare at package init only; a Family is read-only
// afterwards.
type Family struct {
	names  []string
	gauges map[string]bool
}

// Counter declares a monotonic series and returns its name.
func (f *Family) Counter(name string) string {
	f.names = append(f.names, name)
	return name
}

// Gauge declares a level (a value that goes up and down, rendered without
// the _total suffix) and returns its name.
func (f *Family) Gauge(name string) string {
	if f.gauges == nil {
		f.gauges = make(map[string]bool)
	}
	f.gauges[name] = true
	return f.Counter(name)
}

// Names returns every declared series, in declaration order.
func (f *Family) Names() []string { return f.names }

// IsGauge reports whether name was declared a gauge.
func (f *Family) IsGauge(name string) bool { return f.gauges[name] }

// Counters is the counter store of a service: one atomic slot per series
// its families declare. The name→slot map is fixed when the store is
// built, so Add and Inc take no lock and any number of sessions bump one
// store, and every declared series exists from the start, at 0 until
// bumped. Bumping a name no family declared panics: an undeclared series
// is a programming error, not a new series.
type Counters struct {
	slot map[string]*atomic.Int64
}

// NewCounters returns a store over the series fams declare.
func NewCounters(fams ...*Family) *Counters {
	c := &Counters{slot: make(map[string]*atomic.Int64)}
	for _, f := range fams {
		for _, name := range f.names {
			c.slot[name] = new(atomic.Int64)
		}
	}
	return c
}

// Add increments series name by delta.
func (c *Counters) Add(name string, delta int64) {
	v := c.slot[name]
	if v == nil {
		panic("stats: series " + name + " is not declared")
	}
	v.Add(delta)
}

// Inc increments series name by one.
func (c *Counters) Inc(name string) { c.Add(name, 1) }

// Snapshot returns every declared series and its value, as a copy.
func (c *Counters) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(c.slot))
	for name, v := range c.slot {
		out[name] = v.Load()
	}
	return out
}
