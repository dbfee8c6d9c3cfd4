package sql

// Query-plan cache: repeated statement shapes skip the parser entirely.
//
// A statement's *shape* is its token stream with every number literal
// replaced by '?': "SELECT val FROM load WHERE id = 7" and "... id = 93"
// share one shape. The cache stores one parsed template per shape in one
// map under a read-write lock; a lookup re-lexes the incoming source into
// (shape key, literal vector) with zero allocations, and
//
//   - an exact literal match returns the shared template itself (the
//     statement structs are immutable during execution, so concurrent
//     executions can share one AST — the zero-allocation hit path the CI
//     benchmark gate pins), while
//   - a different literal vector clones the template and binds the new
//     literals into the clone in grammar order, skipping Parse and all of
//     its per-token work and allocations.
//
// Nothing invalidates an entry: a template is the parse of its source and
// nothing else — name resolution happens at execution time — so no DDL can
// make one stale. Entries leave only when a full cache is cleared.
//
// Only INSERT/SELECT/UPDATE/DELETE templates are cached. DDL and EXPLAIN
// are rare, and CREATE TABLE is ambiguous under parameterization (WIDE 1
// and CAPACITY 0 parse identically to their absent forms, so a template
// cannot tell how many literals to rebind). For the same reason a
// cacheable statement is only inserted when its parsed form accounts for
// every lexed literal.

import (
	"slices"
	"sync"
	"sync/atomic"
)

// defaultPlanCacheSize is the entry capacity NewPlanCache(0) uses.
const defaultPlanCacheSize = 4096

// PlanCache maps statement shapes to parsed templates. The zero value is
// not usable; a nil *PlanCache is and degrades every operation to the
// uncached path.
type PlanCache struct {
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	capacity int
	mu       sync.RWMutex
	entries  map[string]planEntry
}

type planEntry struct {
	tmpl Statement
	lits []uint64 // the template's own literal vector, in grammar order
}

// NewPlanCache returns a cache holding up to capacity templates
// (0 = 4096).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = defaultPlanCacheSize
	}
	return &PlanCache{capacity: capacity, entries: make(map[string]planEntry)}
}

// Counters returns the cumulative hit/miss/eviction counts.
func (pc *PlanCache) Counters() (hits, misses, evictions int64) {
	if pc == nil {
		return 0, 0, 0
	}
	return pc.hits.Load(), pc.misses.Load(), pc.evictions.Load()
}

// planScratch is the reusable per-lookup buffer; pooled so the hit path
// allocates nothing.
type planScratch struct {
	key  []byte
	lits []uint64
}

var planScratchPool = sync.Pool{New: func() any {
	return &planScratch{key: make([]byte, 0, 256), lits: make([]uint64, 0, 16)}
}}

// Parse returns the parsed statement for src, consulting the cache. The
// returned statement may be shared with concurrent executions of the same
// source text and must not be mutated (the executor never does). A nil
// receiver is the plain parser.
func (pc *PlanCache) Parse(src string) (Statement, error) {
	if pc == nil {
		return Parse(src)
	}
	sc := planScratchPool.Get().(*planScratch)
	defer planScratchPool.Put(sc)
	if !normalizeShape(src, sc) {
		// Sources the lexer would reject (or literals out of uint64 range)
		// fall through to Parse for its proper error.
		pc.misses.Add(1)
		return Parse(src)
	}

	pc.mu.RLock()
	e, ok := pc.entries[string(sc.key)]
	pc.mu.RUnlock()
	if ok {
		pc.hits.Add(1)
		if slices.Equal(e.lits, sc.lits) {
			return e.tmpl, nil
		}
		return bindTemplate(e.tmpl, sc.lits), nil
	}

	pc.misses.Add(1)
	st, err := Parse(src)
	if err != nil {
		// Errors are never cached: the message embeds source offsets and a
		// later same-shape source must get its own.
		return nil, err
	}
	if n := literalSlots(st); n >= 0 && n == len(sc.lits) {
		pc.insert(string(sc.key), planEntry{tmpl: st, lits: slices.Clone(sc.lits)})
	}
	return st, nil
}

// insert stores e under key, replacing any same-key entry (a concurrent
// miss on the same shape got there first). A full cache is emptied first:
// the traffic it serves has a handful of shapes, so a cache that fills is
// seeing ad-hoc ones, and recency ordering would buy nothing.
func (pc *PlanCache) insert(key string, e planEntry) {
	pc.mu.Lock()
	if _, ok := pc.entries[key]; !ok && len(pc.entries) >= pc.capacity {
		pc.evictions.Add(int64(len(pc.entries)))
		clear(pc.entries)
	}
	pc.entries[key] = e
	pc.mu.Unlock()
}

// normalizeShape lexes src into sc.key (the shape: every token verbatim,
// numbers replaced by '?', single-space separated) and sc.lits (the number
// values in textual order, which for every cacheable statement type equals
// the grammar's binding order). It runs the parser's lexer, so it accepts
// exactly what the lexer accepts, less a source without tokens and a
// number past MaxUint64: those report !ok and the caller falls back to
// Parse for its error.
func normalizeShape(src string, sc *planScratch) bool {
	sc.key = sc.key[:0]
	sc.lits = sc.lits[:0]
	l := lexer{src: src}
	for t := l.next(); t.kind != tokEOF; t = l.next() {
		if len(sc.key) > 0 {
			sc.key = append(sc.key, ' ')
		}
		if t.kind != tokNumber {
			sc.key = append(sc.key, t.text...)
			continue
		}
		v, ok := t.value()
		if !ok {
			return false // overflow: let Parse report "bad number"
		}
		sc.key = append(sc.key, '?')
		sc.lits = append(sc.lits, v)
	}
	return l.err == nil && len(sc.key) > 0
}

// literalSlots is the number of literal positions a template rebinding
// consumes, or -1 when the statement type is not cacheable. A parsed
// statement is only cached when this equals the lexed literal count, so
// binding can never mis-slot (rules out CREATE's WIDE 1 / CAPACITY 0,
// whose parses are ambiguous under parameterization).
func literalSlots(st Statement) int {
	switch s := st.(type) {
	case *Insert:
		n := 0
		for _, r := range s.Rows {
			n += len(r)
		}
		return n
	case *Select:
		if s.JoinTable != "" {
			return 0 // the join grammar has no literal positions
		}
		n := len(s.Where)
		if s.Limit != noLimit {
			n++
		}
		return n
	case *Update:
		return len(s.Sets) + len(s.Where)
	case *Delete:
		return len(s.Where)
	default:
		return -1
	}
}

// bindTemplate deep-copies the literal-bearing parts of a cached template
// and writes lits into the copy in grammar order (which is textual order:
// INSERT row values; UPDATE SET values then WHERE; SELECT WHERE then
// LIMIT). Shared non-literal state (projection lists, names) stays shared
// — statements are immutable during execution.
func bindTemplate(st Statement, lits []uint64) Statement {
	switch s := st.(type) {
	case *Insert:
		// The template's rows hold every literal in order, so the new rows
		// are sub-slices of one copy of lits.
		vals := slices.Clone(lits)
		rows := make([][]uint64, len(s.Rows))
		k := 0
		for i, r := range s.Rows {
			rows[i] = vals[k : k+len(r) : k+len(r)]
			k += len(r)
		}
		return &Insert{Table: s.Table, Rows: rows}
	case *Select:
		ns := *s
		ns.Where = bindConds(s.Where, lits)
		if s.Limit != noLimit {
			ns.Limit = limitOf(lits[len(s.Where)])
		}
		return &ns
	case *Update:
		ns := *s
		ns.Sets = make([]struct {
			Column string
			Value  uint64
		}, len(s.Sets))
		copy(ns.Sets, s.Sets)
		for i := range ns.Sets {
			ns.Sets[i].Value = lits[i]
		}
		ns.Where = bindConds(s.Where, lits[len(s.Sets):])
		return &ns
	case *Delete:
		ns := *s
		ns.Where = bindConds(s.Where, lits)
		return &ns
	}
	// Unreachable: only the four types above are ever inserted.
	return st
}

func bindConds(conds []Cond, lits []uint64) []Cond {
	if len(conds) == 0 {
		return conds
	}
	out := make([]Cond, len(conds))
	copy(out, conds)
	for i := range out {
		out[i].Value = lits[i]
	}
	return out
}
