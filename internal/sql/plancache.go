package sql

// Query-plan cache: repeated statement shapes skip the parser entirely.
//
// A statement's *shape* is its token stream with every number literal
// replaced by '?': "SELECT val FROM load WHERE id = 7" and "... id = 93"
// share one shape. The cache stores one parsed template per shape in a
// sharded LRU; a lookup re-lexes the incoming source into (shape key,
// literal vector) with zero allocations, and
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
// make one stale. Entries leave only by LRU eviction.
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

// planShardCount is the number of independent LRU segments; lookups hash
// the shape key to a segment so concurrent sessions rarely contend on one
// mutex.
const planShardCount = 16

// DefaultPlanCacheSize is the total entry capacity NewPlanCache(0) uses.
const DefaultPlanCacheSize = 4096

// PlanCache is a sharded LRU of parsed statement templates keyed on
// statement shape. The zero value is not usable; a nil *PlanCache is and
// degrades every operation to the uncached path.
type PlanCache struct {
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	perShard int
	shards   [planShardCount]planShard
}

type planShard struct {
	mu      sync.Mutex
	entries map[string]*planEntry
	// Intrusive LRU list: head is most recently used.
	head, tail *planEntry
}

type planEntry struct {
	key        string
	tmpl       Statement
	lits       []uint64 // the template's own literal vector, in grammar order
	prev, next *planEntry
}

// NewPlanCache returns a cache holding up to capacity templates in total
// (0 = DefaultPlanCacheSize).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheSize
	}
	per := (capacity + planShardCount - 1) / planShardCount
	if per < 1 {
		per = 1
	}
	pc := &PlanCache{perShard: per}
	for i := range pc.shards {
		pc.shards[i].entries = make(map[string]*planEntry)
	}
	return pc
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
	sh := &pc.shards[shapeHash(sc.key)%planShardCount]

	sh.mu.Lock()
	if e, ok := sh.entries[string(sc.key)]; ok {
		sh.moveFront(e)
		if literalsEqual(e.lits, sc.lits) {
			sh.mu.Unlock()
			pc.hits.Add(1)
			return e.tmpl, nil
		}
		tmpl := e.tmpl
		sh.mu.Unlock()
		pc.hits.Add(1)
		return bindTemplate(tmpl, sc.lits), nil
	}
	sh.mu.Unlock()

	pc.misses.Add(1)
	st, err := Parse(src)
	if err != nil {
		// Errors are never cached: the message embeds source offsets and a
		// later same-shape source must get its own.
		return nil, err
	}
	if n := literalSlots(st); n >= 0 && n == len(sc.lits) {
		e := &planEntry{
			key:  string(sc.key),
			tmpl: st,
			lits: append([]uint64(nil), sc.lits...),
		}
		sh.insert(pc, e)
	}
	return st, nil
}

// insert stores e, replacing any same-key entry (a concurrent miss on the
// same shape got there first) and evicting the LRU tail past capacity.
func (sh *planShard) insert(pc *PlanCache, e *planEntry) {
	sh.mu.Lock()
	if old, ok := sh.entries[e.key]; ok {
		sh.unlink(old)
		delete(sh.entries, old.key)
	}
	sh.entries[e.key] = e
	sh.pushFront(e)
	for len(sh.entries) > pc.perShard {
		t := sh.tail
		sh.unlink(t)
		delete(sh.entries, t.key)
		pc.evictions.Add(1)
	}
	sh.mu.Unlock()
}

func (sh *planShard) pushFront(e *planEntry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *planShard) unlink(e *planEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *planShard) moveFront(e *planEntry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
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

// shapeHash is FNV-1a over the shape key, selecting the LRU segment.
func shapeHash(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

func literalsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
