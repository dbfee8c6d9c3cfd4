package sql

import (
	"fmt"
	"strings"

	"rcnvm/internal/shard"
	"rcnvm/internal/sim"
)

// Explain describes how a statement will touch memory: which steps run and
// with which access orientation. With Analyze set, the statement is also
// executed with its access trace captured under the statement locks, and
// the trace is replayed after they are released, by sim.Replayer.Time, on
// the RC-NVM timing simulator both as issued and downgraded to row-only
// accesses.
type Explain struct {
	Analyze bool
	Stmt    Statement
	// Src is the source from Stmt's first token on: Stmt's own text, then
	// at most a ';' and white space, so Parse(Src) yields Stmt.
	Src string
}

func (*Explain) stmt() {}

// explain is called by Parse when the input starts with EXPLAIN.
func (p *parser) explain() (Statement, error) {
	ex := &Explain{}
	if p.keyword("ANALYZE") {
		ex.Analyze = true
	}
	ex.Src = p.lex.src[p.peek().pos:]
	inner, err := p.statement()
	if err != nil {
		return nil, err
	}
	if _, nested := inner.(*Explain); nested {
		return nil, fmt.Errorf("sql: EXPLAIN cannot nest")
	}
	ex.Stmt = inner
	return ex, nil
}

// explain renders a statement's plan once — every shard holds the same
// schemas — under a sharding header when there are several shards. ANALYZE
// also executes the statement on every shard, capturing into the EXPLAIN's
// streams; analyze times the capture once the locks are released. The
// execution logs any mutation under the inner statement's own source text
// (ex.Src): replay must re-execute the mutation, not re-time it.
func explain(c *shard.Cluster, ex *Explain, streams shardStreams) (*Result, []func() error, error) {
	var b strings.Builder
	if c.N() > 1 {
		fmt.Fprintf(&b, "scatter over %d shards\n", c.N())
	}
	describe(ex.Stmt, &b)

	if !ex.Analyze {
		return &Result{Message: strings.TrimRight(b.String(), "\n")}, nil, nil
	}
	in := []stmt{{src: ex.Src, st: ex.Stmt, targets: allShards(c), streams: streams}}
	dispatch(c, in)
	if in[0].err != nil {
		return nil, in[0].waits, in[0].err
	}
	return &Result{Message: b.String()}, in[0].waits, nil
}

// analyzes reports whether st is an EXPLAIN ANALYZE.
func analyzes(st Statement) bool {
	ex, ok := st.(*Explain)
	return ok && ex.Analyze
}

// analyze ends an EXPLAIN ANALYZE's plan with the timing of the streams its
// execution captured, and takes them off the slot: they are the EXPLAIN's
// own. Each shard's stream replays on its own simulated channel, as issued
// and downgraded to row-only accesses; the statement finishes when its
// slowest shard does, so the estimate is the max over shards.
func analyze(c *shard.Cluster, s *stmt) {
	t, err := sim.Replays.Time(s.streams, nil, nil, 0)
	s.streams = nil
	if err != nil {
		s.res, s.err = nil, err
		return
	}
	var b strings.Builder
	sharded := c.N() > 1
	fmt.Fprintf(&b, "actual: %d memory ops", t.MemOps)
	if sharded {
		fmt.Fprintf(&b, " across %d shards", c.N())
	}
	if t.MemOps > 0 {
		fmt.Fprintf(&b, "; est. %.1f us with column accesses, %.1f us row-only (%.2fx)",
			float64(t.DualPs)/1e6, float64(t.RowPs)/1e6, t.Speedup)
		if sharded {
			b.WriteString(", slowest shard")
		}
	}
	s.res.Message += b.String()
}

// The engine's accesses as a plan names them.
const (
	scanKind  = "column scan (cload)"
	fetchKind = "row fetch (load)"
	storeKind = "column store (cstore)"
)

// describe renders the access plan of a statement.
func describe(st Statement, b *strings.Builder) {
	switch s := st.(type) {
	case *CreateTable:
		fmt.Fprintf(b, "create %s: chunked column-oriented layout on subarrays\n", s.Name)
	case *Insert:
		fmt.Fprintf(b, "insert %d tuple(s) into %s: %s per tuple\n", len(s.Rows), s.Table, fetchKind)
	case *Delete:
		describeWhere(b, s.Where)
		fmt.Fprintf(b, "tombstone matching rows of %s (no memory writes)\n", s.Table)
	case *Update:
		describeWhere(b, s.Where)
		for _, set := range s.Sets {
			fmt.Fprintf(b, "update %s.%s: %s per matching row\n", s.Table, set.Column, storeKind)
		}
	case *Select:
		if s.JoinTable != "" {
			fmt.Fprintf(b, "hash join %s x %s on %s/%s: build and probe via %s\n",
				s.Table, s.JoinTable, s.JoinLeft, s.JoinRight, scanKind)
			fmt.Fprintf(b, "project join pairs: %s per output field\n", fetchKind)
			break
		}
		describeWhere(b, s.Where)
		switch {
		case s.GroupBy != "":
			fmt.Fprintf(b, "group by %s: %s over key and aggregate columns\n", s.GroupBy, scanKind)
		case hasAggregates(s):
			for _, it := range s.Items {
				if it.Agg != AggNone && it.Agg != AggCount {
					fmt.Fprintf(b, "aggregate %s: %s\n", it.String(), scanKind)
				}
			}
		default:
			fmt.Fprintf(b, "project %s: %s per row\n", projectionList(s), fetchKind)
		}
		if s.OrderBy != "" {
			fmt.Fprintf(b, "order by %s: %s for sort keys, in-CPU sort\n", s.OrderBy, scanKind)
		}
	case *Explain:
		fmt.Fprintln(b, "explain")
	}
}

func describeWhere(b *strings.Builder, conds []Cond) {
	for i, c := range conds {
		if i == 0 {
			fmt.Fprintf(b, "filter %s %s %d: %s\n", c.Column, c.Op, c.Value, scanKind)
		} else {
			fmt.Fprintf(b, "filter %s %s %d: re-check prior matches\n", c.Column, c.Op, c.Value)
		}
	}
}

func hasAggregates(s *Select) bool {
	for _, it := range s.Items {
		if it.Agg != AggNone {
			return true
		}
	}
	return false
}

func projectionList(s *Select) string {
	if s.Star {
		return "*"
	}
	parts := make([]string, len(s.Items))
	for i, it := range s.Items {
		parts[i] = it.String()
	}
	return strings.Join(parts, ", ")
}
