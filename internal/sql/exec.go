package sql

import (
	"fmt"
	"strings"

	"rcnvm/internal/engine"
	"rcnvm/internal/imdb"
	"rcnvm/internal/trace"
)

// Result is the outcome of executing one statement.
type Result struct {
	// Columns and Rows are set for SELECTs.
	Columns []string
	Rows    [][]uint64
	// Floats carries AVG results aligned with Columns (nil when the cell
	// is integral); Rows holds the truncated integer value in that case.
	Floats []float64
	// Affected is the row count for INSERT/UPDATE.
	Affected int
	// Message summarizes DDL outcomes.
	Message string
}

// DefaultCapacity is used when CREATE TABLE omits CAPACITY.
const DefaultCapacity = 64 * 1024

// Run executes a write — CREATE TABLE, INSERT, UPDATE or DELETE — on one
// database, capturing its accesses into sink when sink is non-nil. It
// neither locks nor logs: it is the per-shard step of the scatter path's
// writes, which lock and log around it, and of the WAL replay, which
// re-executes logged statements.
func Run(db *engine.DB, st Statement, sink *trace.Stream) (*Result, error) {
	switch s := st.(type) {
	case *CreateTable:
		return runCreate(db, s)
	case *Insert:
		return runInsert(db, s, sink)
	case *Update:
		return runUpdate(db, s, sink)
	case *Delete:
		return runDelete(db, s, sink)
	default:
		return nil, fmt.Errorf("sql: unsupported statement %T", st)
	}
}

// resolveColumn maps a case-insensitive column reference to the schema's
// field name.
func resolveColumn(t *engine.Table, name string) (string, error) {
	for _, f := range t.Schema().Fields {
		if strings.EqualFold(f.Name, name) {
			return f.Name, nil
		}
	}
	return "", fmt.Errorf("sql: table %q has no column %q", t.Schema().Name, name)
}

// lookup returns a handle on db's table name that records into sink.
func lookup(db *engine.DB, name string, sink *trace.Stream) (*engine.Table, error) {
	t, ok := db.Table(name)
	if !ok {
		return nil, fmt.Errorf("sql: no such table %q", name)
	}
	return t.Traced(sink), nil
}

func runCreate(db *engine.DB, s *CreateTable) (*Result, error) {
	schema := imdb.Schema{Name: s.Name}
	for _, c := range s.Columns {
		schema.Fields = append(schema.Fields, imdb.Field{Name: c.Name, Words: c.Words})
	}
	capacity := s.Capacity
	if capacity == 0 {
		capacity = DefaultCapacity
	}
	if _, err := db.CreateTable(s.Name, schema, capacity); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("created table %s (%d columns, capacity %d)",
		s.Name, len(s.Columns), capacity)}, nil
}

func runInsert(db *engine.DB, s *Insert, sink *trace.Stream) (*Result, error) {
	t, err := lookup(db, s.Table, sink)
	if err != nil {
		return nil, err
	}
	if n, err := t.AppendRows(s.Rows); err != nil {
		return nil, fmt.Errorf("sql: row %d: %w", n+1, err)
	}
	return &Result{Affected: len(s.Rows)}, nil
}

// whereOps maps a WHERE comparison's text to the engine's operator.
var whereOps = map[string]engine.Op{
	"=": engine.Eq, "!=": engine.Ne, "<": engine.Lt, "<=": engine.Le, ">": engine.Gt, ">=": engine.Ge,
}

// evalConds selects the rows the WHERE conjunction matches, every live row
// without one: the first condition scans its column, each later one reads
// only the rows the ones before it matched.
func evalConds(t *engine.Table, conds []Cond) (engine.Sel, error) {
	sel := engine.All
	for _, c := range conds {
		col, err := resolveColumn(t, c.Column)
		if err != nil {
			return engine.Sel{}, err
		}
		_, words, err := t.Schema().FieldOffset(col)
		if err != nil {
			return engine.Sel{}, err
		}
		if words != 1 {
			return engine.Sel{}, fmt.Errorf("sql: WHERE on wide field %q", col)
		}
		op, ok := whereOps[c.Op]
		if !ok {
			return engine.Sel{}, fmt.Errorf("sql: unknown operator %q", c.Op)
		}
		if sel, err = t.Where(col, op, c.Value, sel); err != nil {
			return engine.Sel{}, err
		}
	}
	return sel, nil
}

// applyOrderLimit post-sorts a GROUP BY result (only by its key column)
// and applies LIMIT.
func applyOrderLimit(res *Result, s *Select) (*Result, error) {
	if s.OrderBy != "" {
		if !strings.EqualFold(s.OrderBy, s.GroupBy) {
			return nil, fmt.Errorf("sql: GROUP BY results can only be ordered by the group key")
		}
		if s.Desc {
			for i, j := 0, len(res.Rows)-1; i < j; i, j = i+1, j-1 {
				res.Rows[i], res.Rows[j] = res.Rows[j], res.Rows[i]
			}
		}
	}
	if s.Limit != noLimit && s.Limit < len(res.Rows) {
		res.Rows = res.Rows[:s.Limit]
	}
	return res, nil
}

func selectFields(t *engine.Table, s *Select) ([]string, error) {
	if s.Star {
		var fields []string
		for _, f := range t.Schema().Fields {
			fields = append(fields, f.Name)
		}
		return fields, nil
	}
	fields := make([]string, 0, len(s.Items))
	for _, it := range s.Items {
		col, err := resolveColumn(t, it.Column)
		if err != nil {
			return nil, err
		}
		fields = append(fields, col)
	}
	return fields, nil
}

// groupBySpec validates the SELECT key, AGG(x) ... GROUP BY key shape and
// resolves both columns, for the sub-plan and again for the merge.
func groupBySpec(t *engine.Table, s *Select) (key, aggCol string, agg AggKind, err error) {
	key, err = resolveColumn(t, s.GroupBy)
	if err != nil {
		return "", "", AggNone, err
	}
	if len(s.Items) != 2 || s.Items[0].Agg != AggNone ||
		!strings.EqualFold(s.Items[0].Column, s.GroupBy) || s.Items[1].Agg == AggNone {
		return "", "", AggNone, fmt.Errorf("sql: GROUP BY supports SELECT <key>, <aggregate> FROM ... GROUP BY <key>")
	}
	it := s.Items[1]
	aggCol = key // COUNT(*) needs no column; reuse the key for grouping
	if it.Agg != AggCount {
		if aggCol, err = resolveColumn(t, it.Column); err != nil {
			return "", "", AggNone, err
		}
	}
	return key, aggCol, it.Agg, nil
}

// renderGroups materializes GroupSum output (already merged and ordered by
// key) as a Result.
func renderGroups(groups []engine.GroupRow, key, aggCol string, agg AggKind) (*Result, error) {
	res := &Result{}
	switch agg {
	case AggSum:
		res.Columns = []string{key, "SUM(" + aggCol + ")"}
		for _, g := range groups {
			res.Rows = append(res.Rows, []uint64{g.Key, g.Sum})
		}
	case AggCount:
		res.Columns = []string{key, "COUNT(*)"}
		for _, g := range groups {
			res.Rows = append(res.Rows, []uint64{g.Key, uint64(g.Count)})
		}
	case AggAvg:
		res.Columns = []string{key, "AVG(" + aggCol + ")"}
		for _, g := range groups {
			res.Rows = append(res.Rows, []uint64{g.Key, g.Sum / uint64(g.Count)})
		}
	default:
		return nil, fmt.Errorf("sql: GROUP BY supports SUM, AVG and COUNT")
	}
	return res, nil
}

// matching returns a handle on db's table and the rows an UPDATE or DELETE
// writes: those its WHERE matches, or every live row without one.
func matching(db *engine.DB, table string, where []Cond, sink *trace.Stream) (*engine.Table, engine.Sel, error) {
	t, err := lookup(db, table, sink)
	if err != nil {
		return nil, engine.Sel{}, err
	}
	sel, err := evalConds(t, where)
	return t, sel, err
}

func runDelete(db *engine.DB, s *Delete, sink *trace.Stream) (*Result, error) {
	t, sel, err := matching(db, s.Table, s.Where, sink)
	if err != nil {
		return nil, err
	}
	n := t.Count(sel)
	if err := t.Delete(sel); err != nil {
		return nil, err
	}
	return &Result{Affected: n}, nil
}

// runUpdate resolves every SET before it writes anything, so an UPDATE
// that names an unknown or wide column fails with nothing stored.
func runUpdate(db *engine.DB, s *Update, sink *trace.Stream) (*Result, error) {
	t, sel, err := matching(db, s.Table, s.Where, sink)
	if err != nil {
		return nil, err
	}
	var buf [4]string
	cols := buf[:0]
	for _, set := range s.Sets {
		col, err := resolveColumn(t, set.Column)
		if err != nil {
			return nil, err
		}
		if _, words, _ := t.Schema().FieldOffset(col); words != 1 {
			return nil, fmt.Errorf("sql: SET on wide field %q", col)
		}
		cols = append(cols, col)
	}
	for i, set := range s.Sets {
		if err := t.Set(sel, cols[i], set.Value); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: t.Count(sel)}, nil
}

// Format renders a result as an aligned text table.
func (r *Result) Format() string {
	var b strings.Builder
	switch {
	case r.Message != "":
		fmt.Fprintln(&b, r.Message)
	case len(r.Columns) == 0:
		fmt.Fprintf(&b, "%d row(s) affected\n", r.Affected)
	default:
		widths := make([]int, len(r.Columns))
		cells := make([][]string, 0, len(r.Rows))
		for i, c := range r.Columns {
			widths[i] = len(c)
		}
		for ri, row := range r.Rows {
			line := make([]string, len(row))
			for i, v := range row {
				if r.Floats != nil && ri == 0 && i < len(r.Floats) && r.Floats[i] != 0 {
					line[i] = fmt.Sprintf("%.2f", r.Floats[i])
				} else {
					line[i] = fmt.Sprintf("%d", v)
				}
				if i < len(widths) && len(line[i]) > widths[i] {
					widths[i] = len(line[i])
				}
			}
			cells = append(cells, line)
		}
		for i, c := range r.Columns {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
		for _, line := range cells {
			for i, cell := range line {
				if i > 0 {
					b.WriteString("  ")
				}
				w := 0
				if i < len(widths) {
					w = widths[i]
				}
				fmt.Fprintf(&b, "%*s", w, cell)
			}
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "(%d row(s))\n", len(r.Rows))
	}
	return b.String()
}
