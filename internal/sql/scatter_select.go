package sql

// Fan-out SELECT sub-plans and their merges. Each per-shard sub-plan
// follows runSelect's step order exactly (WHERE, ORDER BY key gathering,
// GROUP BY, aggregates, projection validation) so that schema errors
// surface identically on every shard and the merged result — including
// error values — matches the 1-shard baseline byte for byte.

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"rcnvm/internal/engine"
	"rcnvm/internal/par"
	"rcnvm/internal/shard"
	"rcnvm/internal/sim"
	"rcnvm/internal/trace"
)

// rowRef locates one matched row: merges order by global id, the row's
// baseline row id.
type rowRef struct {
	global int
	shard  int
	local  int
	key    uint64 // ORDER BY sort key (unused otherwise)
}

// aggCell is one SELECT item's partial aggregate on one shard.
type aggCell struct {
	kind   AggKind
	col    string // resolved column name (output header)
	sum    uint64 // SUM/AVG partial (wraps like the baseline's uint64 sum)
	lo, hi uint64 // MIN/MAX partial
	n      int    // contributing rows (COUNT, AVG divisor, MIN/MAX emptiness)
}

// selPartial is one shard's contribution to a fanned-out SELECT.
type selPartial struct {
	err    error
	refs   []rowRef
	aggs   []aggCell
	groups []engine.GroupRow
}

// selectOnShard runs one shard's sub-plan.
func selectOnShard(c *shard.Cluster, i int, s *Select) selPartial {
	db := c.Shard(i)
	t, err := lookup(db, s.Table)
	if err != nil {
		return selPartial{err: err}
	}
	// Without a WHERE rows stays nil, which the engine reads as every live
	// row; only ORDER BY and a projection need the ids themselves.
	var rows []int
	count := t.Live()
	if len(s.Where) > 0 {
		if rows, err = evalConds(t, s.Where); err != nil {
			return selPartial{err: err}
		}
		count = len(rows)
	}

	ordered := s.OrderBy != "" && s.GroupBy == ""
	var keys map[int]uint64
	if ordered {
		if rows == nil {
			rows = t.LiveRows()
		}
		col, err := resolveColumn(t, s.OrderBy)
		if err != nil {
			return selPartial{err: err}
		}
		_, words, err := t.Schema().FieldOffset(col)
		if err != nil {
			return selPartial{err: err}
		}
		if words != 1 {
			return selPartial{err: fmt.Errorf("sql: ORDER BY on wide field %q", col)}
		}
		keys = make(map[int]uint64, len(rows))
		for _, row := range rows {
			vals, err := t.Field(row, col)
			if err != nil {
				return selPartial{err: err}
			}
			keys[row] = vals[0]
		}
	}

	if s.GroupBy != "" {
		key, aggCol, _, err := groupBySpec(t, s)
		if err != nil {
			return selPartial{err: err}
		}
		groups, err := t.GroupSum(key, aggCol, rows)
		if err != nil {
			return selPartial{err: err}
		}
		return selPartial{groups: groups}
	}

	if hasAggregates(s) {
		cells := make([]aggCell, 0, len(s.Items))
		for _, it := range s.Items {
			switch it.Agg {
			case AggSum:
				col, err := resolveColumn(t, it.Column)
				if err != nil {
					return selPartial{err: err}
				}
				v, err := t.SumField(col, rows)
				if err != nil {
					return selPartial{err: err}
				}
				cells = append(cells, aggCell{kind: AggSum, col: col, sum: v, n: count})
			case AggAvg:
				col, err := resolveColumn(t, it.Column)
				if err != nil {
					return selPartial{err: err}
				}
				// Partial = raw sum + count; the merge divides once, so the
				// float result is the baseline's single division.
				var v uint64
				if count > 0 {
					if v, err = t.SumField(col, rows); err != nil {
						return selPartial{err: err}
					}
				}
				cells = append(cells, aggCell{kind: AggAvg, col: col, sum: v, n: count})
			case AggCount:
				cells = append(cells, aggCell{kind: AggCount, n: count})
			case AggMin, AggMax:
				col, err := resolveColumn(t, it.Column)
				if err != nil {
					return selPartial{err: err}
				}
				// Validate width even when this shard holds no matches: the
				// baseline rejects wide fields before noticing emptiness.
				_, words, err := t.Schema().FieldOffset(col)
				if err != nil {
					return selPartial{err: err}
				}
				if words != 1 {
					return selPartial{err: fmt.Errorf("engine: MIN/MAX over multi-word field %s", col)}
				}
				cell := aggCell{kind: it.Agg, col: col}
				if count > 0 {
					lo, hi, err := t.MinMaxField(col, rows)
					if err != nil {
						return selPartial{err: err}
					}
					cell.lo, cell.hi, cell.n = lo, hi, count
				}
				cells = append(cells, cell)
			default:
				return selPartial{err: fmt.Errorf("sql: cannot mix plain columns with aggregates")}
			}
		}
		return selPartial{aggs: cells}
	}

	// Plain projection: validate the field list here (baseline error
	// position) but project at merge time, in global-row order.
	if _, err := selectFields(t, s); err != nil {
		return selPartial{err: err}
	}
	if rows == nil {
		rows = t.LiveRows()
	}
	refs := make([]rowRef, 0, len(rows))
	for _, row := range rows {
		g, ok := c.Global(s.Table, i, row)
		if !ok {
			return selPartial{err: errUnmanaged(s.Table)}
		}
		r := rowRef{global: g, shard: i, local: row}
		if ordered {
			r.key = keys[row]
		}
		refs = append(refs, r)
	}
	// Unordered LIMIT can truncate per shard: local order is global order
	// within a shard, and the merge keeps the lowest globals.
	if !ordered && s.Limit > 0 && s.Limit < len(refs) {
		refs = refs[:s.Limit]
	}
	return selPartial{refs: refs}
}

// scatterSelect fans a non-join SELECT over every shard and merges.
func scatterSelect(c *shard.Cluster, s *Select) (*Result, error) {
	parts := make([]selPartial, c.N())
	_ = par.RunCells(context.Background(), c.Workers(), c.N(), func(i int) error {
		parts[i] = selectOnShard(c, i, s)
		return nil
	})
	return mergeSelect(c, s, parts)
}

// mergeSelect combines per-shard partials into the final Result (locks
// must still be held: merging projects rows out of shard memory). Shared
// with the batch executor, whose grouped fan-out produces the partials for
// several SELECTs in one round trip. The lowest shard's error wins.
func mergeSelect(c *shard.Cluster, s *Select, parts []selPartial) (*Result, error) {
	for i := range parts {
		if parts[i].err != nil {
			return nil, parts[i].err
		}
	}
	if s.GroupBy != "" {
		return mergeGroups(c, s, parts)
	}
	if hasAggregates(s) {
		return mergeAggregates(parts, s)
	}
	return mergeRows(c, s, parts)
}

// mergeGroups re-merges per-shard GroupSum partials by key.
func mergeGroups(c *shard.Cluster, s *Select, parts []selPartial) (*Result, error) {
	t0, err := lookup(c.Shard(0), s.Table)
	if err != nil {
		return nil, err
	}
	key, aggCol, agg, err := groupBySpec(t0, s)
	if err != nil {
		return nil, err
	}
	acc := make(map[uint64]*engine.GroupRow)
	for _, p := range parts {
		for _, g := range p.groups {
			m, ok := acc[g.Key]
			if !ok {
				m = &engine.GroupRow{Key: g.Key}
				acc[g.Key] = m
			}
			m.Sum += g.Sum
			m.Count += g.Count
		}
	}
	merged := make([]engine.GroupRow, 0, len(acc))
	for _, g := range acc {
		merged = append(merged, *g)
	}
	sort.Slice(merged, func(a, b int) bool { return merged[a].Key < merged[b].Key })
	res, err := renderGroups(merged, key, aggCol, agg)
	if err != nil {
		return nil, err
	}
	return applyOrderLimit(res, s)
}

// mergeAggregates combines per-shard aggregate cells item by item.
func mergeAggregates(parts []selPartial, s *Select) (*Result, error) {
	res := &Result{Rows: [][]uint64{nil}}
	res.Floats = make([]float64, 0, len(s.Items))
	for k := range parts[0].aggs {
		cell := parts[0].aggs[k]
		for _, p := range parts[1:] {
			o := p.aggs[k]
			switch cell.kind {
			case AggSum, AggAvg:
				cell.sum += o.sum
				cell.n += o.n
			case AggCount:
				cell.n += o.n
			case AggMin, AggMax:
				if o.n > 0 {
					if cell.n == 0 {
						cell.lo, cell.hi = o.lo, o.hi
					} else {
						if o.lo < cell.lo {
							cell.lo = o.lo
						}
						if o.hi > cell.hi {
							cell.hi = o.hi
						}
					}
					cell.n += o.n
				}
			}
		}
		switch cell.kind {
		case AggSum:
			res.Columns = append(res.Columns, "SUM("+cell.col+")")
			res.Rows[0] = append(res.Rows[0], cell.sum)
			res.Floats = append(res.Floats, 0)
		case AggAvg:
			res.Columns = append(res.Columns, "AVG("+cell.col+")")
			if cell.n == 0 {
				res.Rows[0] = append(res.Rows[0], 0)
				res.Floats = append(res.Floats, 0)
			} else {
				v := float64(cell.sum) / float64(cell.n)
				res.Rows[0] = append(res.Rows[0], uint64(v))
				res.Floats = append(res.Floats, v)
			}
		case AggCount:
			res.Columns = append(res.Columns, "COUNT(*)")
			res.Rows[0] = append(res.Rows[0], uint64(cell.n))
			res.Floats = append(res.Floats, 0)
		case AggMin, AggMax:
			if cell.n == 0 {
				return nil, fmt.Errorf("engine: MIN/MAX over zero rows")
			}
			if cell.kind == AggMin {
				res.Columns = append(res.Columns, "MIN("+cell.col+")")
				res.Rows[0] = append(res.Rows[0], cell.lo)
			} else {
				res.Columns = append(res.Columns, "MAX("+cell.col+")")
				res.Rows[0] = append(res.Rows[0], cell.hi)
			}
			res.Floats = append(res.Floats, 0)
		}
	}
	return res, nil
}

// mergeRows orders gathered row references like the baseline (sort key
// first when ordering, global id as the stable tiebreak and the storage
// order otherwise), truncates, then projects each row on its owner shard.
func mergeRows(c *shard.Cluster, s *Select, parts []selPartial) (*Result, error) {
	var refs []rowRef
	for _, p := range parts {
		refs = append(refs, p.refs...)
	}
	if s.OrderBy != "" {
		desc := s.Desc
		sort.Slice(refs, func(a, b int) bool {
			ka, kb := refs[a].key, refs[b].key
			if ka != kb {
				if desc {
					return ka > kb
				}
				return ka < kb
			}
			return refs[a].global < refs[b].global
		})
	} else {
		sort.Slice(refs, func(a, b int) bool { return refs[a].global < refs[b].global })
	}
	if s.Limit > 0 && s.Limit < len(refs) {
		refs = refs[:s.Limit]
	}
	t0, err := lookup(c.Shard(0), s.Table)
	if err != nil {
		return nil, err
	}
	fields, err := selectFields(t0, s)
	if err != nil {
		return nil, err
	}
	out := make([][]uint64, 0, len(refs))
	for _, r := range refs {
		t, err := lookup(c.Shard(r.shard), s.Table)
		if err != nil {
			return nil, err
		}
		vals, err := t.Project([]int{r.local}, fields)
		if err != nil {
			return nil, err
		}
		out = append(out, vals[0])
	}
	return &Result{Columns: fields, Rows: out}, nil
}

// keyedRow is one live row of a join side: its key value plus location.
type keyedRow struct {
	global int
	shard  int
	local  int
	key    uint64
}

// joinKeysOnShard gathers (global id, key) for every live row of table on
// shard i, reading the key column in scan orientation like engine.Join.
func joinKeysOnShard(c *shard.Cluster, i int, table, col string) ([]keyedRow, error) {
	t, err := lookup(c.Shard(i), table)
	if err != nil {
		return nil, err
	}
	live := t.LiveRows()
	keys := make([]uint64, 0, len(live))
	// ScanWhere visits exactly the live rows in ascending order; a
	// never-matching predicate turns it into a pure column scan.
	if _, err := t.ScanWhere(col, func(vals []uint64) bool {
		keys = append(keys, vals[0])
		return false
	}); err != nil {
		return nil, err
	}
	out := make([]keyedRow, len(live))
	for j, row := range live {
		g, ok := c.Global(table, i, row)
		if !ok {
			return nil, errUnmanaged(table)
		}
		out[j] = keyedRow{global: g, shard: i, local: row, key: keys[j]}
	}
	return out, nil
}

// gatherJoinKeys fans joinKeysOnShard over the cluster and returns the
// rows merged into ascending global order — the baseline's scan order.
func gatherJoinKeys(c *shard.Cluster, table, col string) ([]keyedRow, error) {
	type slot struct {
		rows []keyedRow
		err  error
	}
	out := make([]slot, c.N())
	_ = par.RunCells(context.Background(), c.Workers(), c.N(), func(i int) error {
		out[i].rows, out[i].err = joinKeysOnShard(c, i, table, col)
		return nil
	})
	var all []keyedRow
	for i := range out {
		if out[i].err != nil {
			return nil, out[i].err
		}
		all = append(all, out[i].rows...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].global < all[b].global })
	return all, nil
}

// scatterJoin gathers both sides' keys shard by shard, then builds and
// probes in global-row order exactly as engine.Join does in storage
// order, projecting each output row from its owner shard.
func scatterJoin(c *shard.Cluster, s *Select) (*Result, error) {
	a0, err := lookup(c.Shard(0), s.Table)
	if err != nil {
		return nil, err
	}
	b0, err := lookup(c.Shard(0), s.JoinTable)
	if err != nil {
		return nil, err
	}
	left, err := resolveColumn(a0, s.JoinLeft)
	if err != nil {
		return nil, err
	}
	right, err := resolveColumn(b0, s.JoinRight)
	if err != nil {
		return nil, err
	}
	_, wa, err := a0.Schema().FieldOffset(left)
	if err != nil {
		return nil, err
	}
	_, wb, err := b0.Schema().FieldOffset(right)
	if err != nil {
		return nil, err
	}
	if wa != 1 || wb != 1 {
		return nil, fmt.Errorf("engine: join keys must be single-word fields")
	}

	as, err := gatherJoinKeys(c, s.Table, left)
	if err != nil {
		return nil, err
	}
	bs, err := gatherJoinKeys(c, s.JoinTable, right)
	if err != nil {
		return nil, err
	}
	build := make(map[uint64][]keyedRow)
	for _, ar := range as {
		build[ar.key] = append(build[ar.key], ar)
	}
	var pairs [][2]keyedRow
	for _, br := range bs {
		for _, ar := range build[br.key] {
			pairs = append(pairs, [2]keyedRow{ar, br})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0].global != pairs[j][0].global {
			return pairs[i][0].global < pairs[j][0].global
		}
		return pairs[i][1].global < pairs[j][1].global
	})

	res := &Result{}
	for _, q := range s.JoinItems {
		res.Columns = append(res.Columns, q.Table+"."+q.Column)
	}
	for _, pr := range pairs {
		var row []uint64
		for _, q := range s.JoinItems {
			var kr keyedRow
			var table string
			switch {
			case strings.EqualFold(q.Table, s.Table):
				kr, table = pr[0], s.Table
			case strings.EqualFold(q.Table, s.JoinTable):
				kr, table = pr[1], s.JoinTable
			default:
				return nil, fmt.Errorf("sql: projection table %q not in FROM/JOIN", q.Table)
			}
			t, err := lookup(c.Shard(kr.shard), table)
			if err != nil {
				return nil, err
			}
			col, err := resolveColumn(t, q.Column)
			if err != nil {
				return nil, err
			}
			vals, err := t.Field(kr.local, col)
			if err != nil {
				return nil, err
			}
			row = append(row, vals...)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// scatterExplain describes the plan once (schemas are identical on every
// shard) under a sharding header. ANALYZE executes the inner statement
// through the sharded path with per-shard tracing, then replays each
// shard's stream on its own simulated channel: the statement finishes
// when its slowest shard does, so the estimate is the max over shards.
func scatterExplain(c *shard.Cluster, ex *Explain) (*Result, []func() error, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "scatter over %d shards\n", c.N())
	describe(c.Shard(0), ex.Stmt, &b)

	if !ex.Analyze {
		return &Result{Message: strings.TrimRight(b.String(), "\n")}, nil, nil
	}

	targets := allShards(c)
	for _, i := range targets {
		c.Shard(i).StartTrace()
	}
	// The inner dispatch logs any mutation under the inner statement's own
	// text, printed from the parsed AST (round-trip property): replay must
	// re-execute the mutation, not re-time it.
	_, waits, runErr := dispatchSharded(c, ex.Stmt, StatementText(ex.Stmt), targets)
	streams := make([]trace.Stream, c.N())
	for _, i := range targets {
		streams[i] = c.Shard(i).StopTrace()
	}
	if runErr != nil {
		return nil, waits, runErr
	}
	total := 0
	memOps := make([]int, len(streams))
	for i, st := range streams {
		memOps[i] = st.MemOps()
		total += memOps[i]
	}
	fmt.Fprintf(&b, "actual: %d memory ops across %d shards", total, c.N())
	if total > 0 {
		var dualMax, rowMax int64
		for i, st := range streams {
			if memOps[i] == 0 {
				continue
			}
			dual, row, err := sim.Replays.Pair(st)
			if err != nil {
				return nil, waits, err
			}
			dualMax, rowMax = max(dualMax, dual.TimePs), max(rowMax, row.TimePs)
		}
		fmt.Fprintf(&b, "; est. %.1f us with column accesses, %.1f us row-only (%.2fx), slowest shard",
			float64(dualMax)/1e6, float64(rowMax)/1e6, float64(rowMax)/float64(dualMax))
	}
	return &Result{Message: b.String()}, waits, nil
}
