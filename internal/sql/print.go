package sql

import (
	"fmt"
	"strings"
)

// String renders the statement back as SQL. Parse(stmt.String()) yields an
// equivalent statement (the printer/parser round-trip property the tests
// enforce). The parser keeps a CAPACITY or LIMIT past MaxInt as the int of
// the same bits, a negative one; the printer gives those bits back.

func (s *CreateTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE TABLE %s (", s.Name)
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		if c.Words > 1 {
			fmt.Fprintf(&b, " WIDE %d", c.Words)
		}
	}
	b.WriteString(")")
	if s.Capacity != 0 {
		fmt.Fprintf(&b, " CAPACITY %d", uint64(s.Capacity))
	}
	return b.String()
}

func (s *Insert) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s VALUES ", s.Table)
	for i, row := range s.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(")
		for j, v := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteString(")")
	}
	return b.String()
}

func (it SelectItem) String() string {
	switch it.Agg {
	case AggSum:
		return "SUM(" + it.Column + ")"
	case AggAvg:
		return "AVG(" + it.Column + ")"
	case AggMin:
		return "MIN(" + it.Column + ")"
	case AggMax:
		return "MAX(" + it.Column + ")"
	case AggCount:
		return "COUNT(*)"
	default:
		return it.Column
	}
}

func condsString(conds []Cond) string {
	parts := make([]string, len(conds))
	for i, c := range conds {
		parts[i] = fmt.Sprintf("%s %s %d", c.Column, c.Op, c.Value)
	}
	return strings.Join(parts, " AND ")
}

func (s *Select) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	switch {
	case s.JoinTable != "":
		for i, q := range s.JoinItems {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s.%s", q.Table, q.Column)
		}
		fmt.Fprintf(&b, " FROM %s JOIN %s ON %s.%s = %s.%s",
			s.Table, s.JoinTable, s.Table, s.JoinLeft, s.JoinTable, s.JoinRight)
		return b.String()
	case s.Star:
		b.WriteString("*")
	default:
		for i, it := range s.Items {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(it.String())
		}
	}
	fmt.Fprintf(&b, " FROM %s", s.Table)
	if len(s.Where) > 0 {
		fmt.Fprintf(&b, " WHERE %s", condsString(s.Where))
	}
	if s.GroupBy != "" {
		fmt.Fprintf(&b, " GROUP BY %s", s.GroupBy)
	}
	if s.OrderBy != "" {
		fmt.Fprintf(&b, " ORDER BY %s", s.OrderBy)
		if s.Desc {
			b.WriteString(" DESC")
		}
	}
	if s.Limit != noLimit {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}

func (s *Update) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "UPDATE %s SET ", s.Table)
	for i, set := range s.Sets {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s = %d", set.Column, set.Value)
	}
	if len(s.Where) > 0 {
		fmt.Fprintf(&b, " WHERE %s", condsString(s.Where))
	}
	return b.String()
}

func (s *Delete) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DELETE FROM %s", s.Table)
	if len(s.Where) > 0 {
		fmt.Fprintf(&b, " WHERE %s", condsString(s.Where))
	}
	return b.String()
}

func (s *Explain) String() string {
	if s.Analyze {
		return "EXPLAIN ANALYZE " + StatementText(s.Stmt)
	}
	return "EXPLAIN " + StatementText(s.Stmt)
}

// StatementText renders a parsed statement back as SQL (every statement
// type implements String with the parser round-trip property). The WAL
// uses it to log an EXPLAIN ANALYZE's inner mutation from the parsed AST
// instead of re-deriving it from the source text.
func StatementText(st Statement) string {
	return st.(interface{ String() string }).String()
}
