package stats

// Family is the single declaration of the series a service publishes from
// a Set: each series is declared exactly once, by the statement that also
// names it —
//
//	var Queries = Family.Counter("server.queries")
//
// — so the list of names, their counter/gauge kind, the zero-prefill of
// /stats and /metrics and the documentation lint all read the same place.
// A name used with Set.Inc but never declared is what the lint catches.
// Declare at package init only; a Family is read-only afterwards.
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

// Prefill sets every declared series that counters does not carry yet to
// zero, so each exists from the first scrape and dashboards never see a
// series pop into existence mid-run.
func Prefill(counters map[string]int64, fams ...*Family) {
	for _, f := range fams {
		for _, name := range f.names {
			if _, ok := counters[name]; !ok {
				counters[name] = 0
			}
		}
	}
}
