package sql

// The SELECT executor, for any number of shards. Every shard the statement
// touches runs the same sub-plan, selectOnShard (WHERE, ORDER BY key
// gathering and sort, then GROUP BY, the aggregate items in order, or
// projection validation), and mergeSelect combines the partials. A 1-shard
// SELECT and a point-routed one are the merge of one partial: its local row
// order already is the global order, so only a fan-out over more than one
// shard maps row ids to globals through the registry.
//
// Errors: a partial stops at its first failing step and the merge reports
// the lowest shard's error — except among aggregate items, where the error
// of the earliest failing item wins, and a MIN/MAX over zero rows before it
// is reported first. That is what one database, stopping at its first
// failure, answers.

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"rcnvm/internal/engine"
	"rcnvm/internal/par"
	"rcnvm/internal/shard"
	"rcnvm/internal/trace"
)

// rowRef locates one row of a fan-out: merges order by global id, the
// row's 1-shard row id. shard indexes the partials of a select merge.
type rowRef struct {
	global int
	shard  int
	local  int
	key    uint64 // ORDER BY or join key
}

// aggCell is one SELECT item's partial aggregate on one shard.
type aggCell struct {
	kind   AggKind
	col    string // resolved column name (output header)
	sum    uint64 // SUM/AVG partial (wraps like a single uint64 sum)
	lo, hi uint64 // MIN/MAX partial
	n      int    // contributing rows (COUNT, AVG divisor, MIN/MAX emptiness)
}

// selPartial is one shard's contribution to a SELECT.
type selPartial struct {
	err    error
	t      *engine.Table // the shard's table handle, which the merge projects through
	fields []string      // a projection's resolved columns
	rows   []int         // its local row ids in output order, LIMIT applied
	keys   []uint64      // their ORDER BY keys
	global []int         // their global ids, set only in a fan-out over several shards
	aggs   []aggCell     // the aggregate items before the failing one, if any
	groups []engine.GroupRow
}

// selectOnShard runs a SELECT's sub-plan on one database. Its accesses, and
// the merge's projections after them, are captured into sink.
func selectOnShard(db *engine.DB, s *Select, sink *trace.Stream) selPartial {
	var p selPartial
	p.err = p.run(db, s, sink)
	return p
}

func (p *selPartial) run(db *engine.DB, s *Select, sink *trace.Stream) error {
	t, err := lookup(db, s.Table, sink)
	if err != nil {
		return err
	}
	p.t = t
	sel, err := evalConds(t, s.Where)
	if err != nil {
		return err
	}
	// Only ORDER BY and a projection need the row ids themselves.
	var rows []int
	ordered := s.OrderBy != "" && s.GroupBy == ""
	if ordered {
		rows = t.RowIDs(sel, 0)
		col, err := resolveColumn(t, s.OrderBy)
		if err != nil {
			return err
		}
		_, words, err := t.Schema().FieldOffset(col)
		if err != nil {
			return err
		}
		if words != 1 {
			return fmt.Errorf("sql: ORDER BY on wide field %q", col)
		}
		keys, err := t.Project(rows, []string{col})
		if err != nil {
			return err
		}
		p.keys = make([]uint64, len(rows))
		for j, k := range keys {
			p.keys[j] = k[0]
		}
		sort.Stable(byKey{rows, p.keys, s.Desc})
	}

	switch {
	case s.GroupBy != "":
		key, aggCol, _, err := groupBySpec(t, s)
		if err != nil {
			return err
		}
		p.groups, err = t.Group(key, aggCol, sel)
		return err
	case hasAggregates(s):
		p.aggs = make([]aggCell, 0, len(s.Items))
		for _, it := range s.Items {
			cell, err := aggregate(t, it, sel)
			if err != nil {
				return err
			}
			p.aggs = append(p.aggs, cell)
		}
		return nil
	}

	// Plain projection: resolve the field list here but project at merge
	// time. LIMIT truncates per shard: local order is global order within
	// a shard, and the merge keeps the first rows.
	if p.fields, err = selectFields(t, s); err != nil {
		return err
	}
	switch {
	case s.Limit == 0:
		rows, p.keys = nil, nil
	case !ordered:
		rows = t.RowIDs(sel, s.Limit)
	case s.Limit != noLimit && s.Limit < len(rows):
		rows, p.keys = rows[:s.Limit], p.keys[:s.Limit]
	}
	p.rows = rows
	return nil
}

// byKey sorts rows by their ORDER BY keys; sort.Stable keeps equal keys in
// row order.
type byKey struct {
	rows []int
	keys []uint64
	desc bool
}

func (b byKey) Len() int { return len(b.rows) }

func (b byKey) Less(i, j int) bool {
	if b.desc {
		return b.keys[i] > b.keys[j]
	}
	return b.keys[i] < b.keys[j]
}

func (b byKey) Swap(i, j int) {
	b.rows[i], b.rows[j] = b.rows[j], b.rows[i]
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
}

// aggregate computes one aggregate item's partial over the selected rows.
func aggregate(t *engine.Table, it SelectItem, sel engine.Sel) (aggCell, error) {
	count := t.Count(sel)
	switch it.Agg {
	case AggNone:
		return aggCell{}, fmt.Errorf("sql: cannot mix plain columns with aggregates")
	case AggCount:
		return aggCell{kind: AggCount, n: count}, nil
	}
	col, err := resolveColumn(t, it.Column)
	if err != nil {
		return aggCell{}, err
	}
	cell := aggCell{kind: it.Agg, col: col, n: count}
	switch {
	case it.Agg == AggSum:
		cell.sum, err = t.Sum(col, sel)
	case it.Agg == AggAvg && count > 0:
		// Partial = raw sum + count; the merge divides once.
		cell.sum, err = t.Sum(col, sel)
	case (it.Agg == AggMin || it.Agg == AggMax) && count > 0:
		cell.lo, cell.hi, err = t.MinMax(col, sel)
	case it.Agg == AggMin || it.Agg == AggMax:
		// Nothing to read, but a wide field is rejected before emptiness,
		// as MinMax does; the merge reports the zero rows.
		if _, words, _ := t.Schema().FieldOffset(col); words != 1 {
			err = fmt.Errorf("engine: MIN/MAX over multi-word field %s", col)
		}
	}
	return cell, err
}

// scatterSelect runs a run of plain SELECTs that share their targets (a
// lone one is a run of one) and merges each. On one target every member is
// the merge of one partial. On several the whole run fans out in one
// par.RunCells, each shard running the members in statement order, and
// then every member merges its partials; a shard-local failure of one
// member stops neither that shard's later members nor the other shards.
func scatterSelect(c *shard.Cluster, run []stmt) {
	targets := run[0].targets
	if len(targets) == 1 {
		db := c.Shard(targets[0])
		for k := range run {
			if s, ok := run[k].st.(*Select); ok {
				run[k].res, run[k].err = mergeSelect(s, []selPartial{selectOnShard(db, s, run[k].streams.sink(targets[0]))})
			}
		}
		return
	}
	members := make([]member, len(run))
	parts := make([][]selPartial, len(run))
	for k := range run {
		if _, ok := run[k].st.(*Select); ok { // a parse error inside a run executes nothing
			members[k], parts[k] = member{run[k].st, run[k].streams}, make([]selPartial, len(targets))
		}
	}
	_ = par.RunCells(context.Background(), c.Workers(), len(targets), func(j int) error {
		for k, m := range members {
			if s, ok := m.st.(*Select); ok {
				parts[k][j] = fanOutPartial(c, targets[j], s, m.streams.sink(targets[j]))
			}
		}
		return nil
	})
	for k, m := range members {
		if s, ok := m.st.(*Select); ok {
			run[k].res, run[k].err = mergeSelect(s, parts[k])
		}
	}
}

// fanOutPartial is shard i's partial in a fan-out over several shards: its
// rows carry their global ids, the merge order.
func fanOutPartial(c *shard.Cluster, i int, s *Select, sink *trace.Stream) selPartial {
	p := selectOnShard(c.Shard(i), s, sink)
	if p.err != nil {
		return p
	}
	p.global = make([]int, len(p.rows))
	for j, row := range p.rows {
		g, ok := c.Global(s.Table, i, row)
		if !ok {
			return selPartial{err: errUnmanaged(s.Table)}
		}
		p.global[j] = g
	}
	return p
}

// mergeSelect combines a SELECT's partials into the final Result (locks
// must still be held: merging projects rows out of shard memory). Every
// member of a run merges here, after the run's one fan-out.
func mergeSelect(s *Select, parts []selPartial) (*Result, error) {
	if s.GroupBy == "" && hasAggregates(s) {
		res, err := mergeAggregates(s, parts)
		if err == nil && s.Limit == 0 { // the one row of aggregates, limited away
			res.Rows = res.Rows[:0]
		}
		return res, err
	}
	for i := range parts {
		if parts[i].err != nil {
			return nil, parts[i].err
		}
	}
	if s.GroupBy != "" {
		return mergeGroups(s, parts)
	}
	return mergeRows(s, parts)
}

// mergeGroups re-merges per-shard GroupSum partials by key; one partial's
// groups are GroupSum's, already ordered by key.
func mergeGroups(s *Select, parts []selPartial) (*Result, error) {
	key, aggCol, agg, err := groupBySpec(parts[0].t, s)
	if err != nil {
		return nil, err
	}
	groups := parts[0].groups
	if len(parts) > 1 {
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
		groups = make([]engine.GroupRow, 0, len(acc))
		for _, g := range acc {
			groups = append(groups, *g)
		}
		sort.Slice(groups, func(a, b int) bool { return groups[a].Key < groups[b].Key })
	}
	res, err := renderGroups(groups, key, aggCol, agg)
	if err != nil {
		return nil, err
	}
	return applyOrderLimit(res, s)
}

// mergeAggregates combines per-shard aggregate cells item by item, up to
// the earliest item a partial failed at (the lowest shard's among equals);
// a partial that failed before its items failed at item 0.
func mergeAggregates(s *Select, parts []selPartial) (*Result, error) {
	var err error
	items := len(s.Items)
	for _, p := range parts {
		if p.err != nil && (err == nil || len(p.aggs) < items) {
			items, err = len(p.aggs), p.err
		}
	}
	res := &Result{Rows: [][]uint64{nil}}
	res.Floats = make([]float64, 0, len(s.Items))
	for k := 0; k < items; k++ {
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
						cell.lo, cell.hi = min(cell.lo, o.lo), max(cell.hi, o.hi)
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
	if err != nil {
		return nil, err
	}
	return res, nil
}

// mergeRows projects the matched rows. One partial's rows are ordered and
// limited already; several are ordered like one database's (sort key first
// when ordering, global id as the stable tiebreak and the storage order
// otherwise), truncated, and each row projected on its owner shard.
func mergeRows(s *Select, parts []selPartial) (*Result, error) {
	fields := parts[0].fields
	if len(parts) == 1 {
		out, err := parts[0].t.Project(parts[0].rows, fields)
		if err != nil {
			return nil, err
		}
		return &Result{Columns: fields, Rows: out}, nil
	}
	var refs []rowRef
	for i, p := range parts {
		for j, row := range p.rows {
			r := rowRef{global: p.global[j], shard: i, local: row}
			if p.keys != nil {
				r.key = p.keys[j]
			}
			refs = append(refs, r)
		}
	}
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
	if s.Limit != noLimit && s.Limit < len(refs) {
		refs = refs[:s.Limit]
	}
	out := make([][]uint64, 0, len(refs))
	for _, r := range refs {
		vals, err := parts[r.shard].t.Project([]int{r.local}, fields)
		if err != nil {
			return nil, err
		}
		out = append(out, vals[0])
	}
	return &Result{Columns: fields, Rows: out}, nil
}

// joinKeysOnShard gathers every live row of table on shard i with its key,
// reading the key column in scan orientation and capturing into sink. Rows
// carry global ids only on a cluster of several shards.
func joinKeysOnShard(c *shard.Cluster, i int, table, col string, sink *trace.Stream) ([]rowRef, error) {
	t, err := lookup(c.Shard(i), table, sink)
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
	out := make([]rowRef, len(live))
	for j, row := range live {
		g, ok := row, true
		if c.N() > 1 {
			g, ok = c.Global(table, i, row)
		}
		if !ok {
			return nil, errUnmanaged(table)
		}
		out[j] = rowRef{global: g, shard: i, local: row, key: keys[j]}
	}
	return out, nil
}

// gatherJoinKeys fans joinKeysOnShard over the cluster and returns the
// rows merged into ascending global order — one database's scan order.
func gatherJoinKeys(c *shard.Cluster, table, col string, streams shardStreams) ([]rowRef, error) {
	type slot struct {
		rows []rowRef
		err  error
	}
	out := make([]slot, c.N())
	_ = par.RunCells(context.Background(), c.Workers(), c.N(), func(i int) error {
		out[i].rows, out[i].err = joinKeysOnShard(c, i, table, col, streams.sink(i))
		return nil
	})
	var all []rowRef
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
// probes in global-row order — both key columns in full, then the fields of
// each (a, b) pair — projecting each output row from its owner shard, which
// records the projection into its stream.
func scatterJoin(c *shard.Cluster, s *Select, streams shardStreams) (*Result, error) {
	a0, err := lookup(c.Shard(0), s.Table, nil)
	if err != nil {
		return nil, err
	}
	b0, err := lookup(c.Shard(0), s.JoinTable, nil)
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

	as, err := gatherJoinKeys(c, s.Table, left, streams)
	if err != nil {
		return nil, err
	}
	bs, err := gatherJoinKeys(c, s.JoinTable, right, streams)
	if err != nil {
		return nil, err
	}
	build := make(map[uint64][]rowRef)
	for _, ar := range as {
		build[ar.key] = append(build[ar.key], ar)
	}
	var pairs [][2]rowRef
	for _, br := range bs {
		for _, ar := range build[br.key] {
			pairs = append(pairs, [2]rowRef{ar, br})
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
			var kr rowRef
			var table string
			switch {
			case strings.EqualFold(q.Table, s.Table):
				kr, table = pr[0], s.Table
			case strings.EqualFold(q.Table, s.JoinTable):
				kr, table = pr[1], s.JoinTable
			default:
				return nil, fmt.Errorf("sql: projection table %q not in FROM/JOIN", q.Table)
			}
			t, err := lookup(c.Shard(kr.shard), table, streams.sink(kr.shard))
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
