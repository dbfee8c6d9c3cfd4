package sql

import (
	"fmt"
	"math"
	"strings"
)

// Statement is a parsed SQL statement.
type Statement interface{ stmt() }

// CreateTable is CREATE TABLE name (col [WIDE n], ...) [CAPACITY n].
type CreateTable struct {
	Name     string
	Columns  []ColumnDef
	Capacity int // 0 = default
}

// ColumnDef is one column: Words > 1 for wide fields.
type ColumnDef struct {
	Name  string
	Words int
}

// Insert is INSERT INTO name VALUES (v, ...), (v, ...).
type Insert struct {
	Table string
	Rows  [][]uint64
}

// AggKind enumerates aggregate functions.
type AggKind uint8

const (
	// AggNone is a plain column reference.
	AggNone AggKind = iota
	// AggSum is SUM(col).
	AggSum
	// AggAvg is AVG(col).
	AggAvg
	// AggCount is COUNT(*).
	AggCount
	// AggMin is MIN(col).
	AggMin
	// AggMax is MAX(col).
	AggMax
)

// SelectItem is one projection item.
type SelectItem struct {
	Agg    AggKind
	Column string // empty for COUNT(*)
}

// Cond is one WHERE conjunct: column op value.
type Cond struct {
	Column string
	Op     string // = < > <= >= !=
	Value  uint64
}

// Select is SELECT items FROM table [WHERE cond AND ...], or
// SELECT a.x, b.y FROM a JOIN b ON a.k = b.k.
type Select struct {
	Items []SelectItem
	Star  bool
	Table string
	Where []Cond
	// GroupBy is the grouping column (empty for plain selects).
	GroupBy string
	// OrderBy is the ordering column (empty = storage order); Desc flips
	// the direction. Limit >= 0 truncates the result to that many rows;
	// noLimit (-1) is a SELECT without LIMIT.
	OrderBy string
	Desc    bool
	Limit   int

	// Join fields (set when JoinTable != "").
	JoinTable           string
	JoinLeft, JoinRight string   // key columns of Table and JoinTable
	JoinItems           []QualID // qualified projections a.x / b.y
}

// QualID is a table-qualified column.
type QualID struct {
	Table, Column string
}

// Delete is DELETE FROM table [WHERE ...].
type Delete struct {
	Table string
	Where []Cond
}

// Update is UPDATE table SET col = v, ... [WHERE ...].
type Update struct {
	Table string
	Sets  []struct {
		Column string
		Value  uint64
	}
	Where []Cond
}

func (*CreateTable) stmt() {}
func (*Insert) stmt()      {}
func (*Select) stmt()      {}
func (*Update) stmt()      {}
func (*Delete) stmt()      {}

// Parse parses one statement (an optional trailing semicolon is allowed).
// A lex error anywhere in src is the error, ahead of any parse error.
func Parse(src string) (Statement, error) {
	p := parser{lex: lexer{src: src}}
	p.tok = p.lex.next()
	st, err := p.statement()
	if err == nil {
		p.accept(tokPunct, ";")
		if !p.at(tokEOF, "") {
			err = p.errf("trailing input %q", p.peek().text)
		}
	}
	if lexErr := p.lex.drain(); lexErr != nil {
		return nil, lexErr
	}
	if err != nil {
		return nil, err
	}
	return st, nil
}

// parser pulls its tokens from the lexer one at a time; tok is the one it
// looks at.
type parser struct {
	lex lexer
	tok token
}

func (p *parser) peek() token { return p.tok }

func (p *parser) next() token {
	t := p.tok
	if t.kind != tokEOF {
		p.tok = p.lex.next()
	}
	return t
}

func (p *parser) at(k tokenKind, text string) bool {
	t := p.peek()
	if t.kind != k {
		return false
	}
	return text == "" || t.text == text || strings.EqualFold(t.text, text)
}

func (p *parser) accept(k tokenKind, text string) bool {
	if p.at(k, text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k tokenKind, text string) (token, error) {
	if !p.at(k, text) {
		return token{}, p.errf("expected %q, found %q", text, p.peek().text)
	}
	return p.next(), nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: %s (at offset %d)", fmt.Sprintf(format, args...), p.peek().pos)
}

func (p *parser) keyword(kw string) bool { return p.accept(tokIdent, kw) }

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, found %q", t.text)
	}
	p.next()
	return t.text, nil
}

func (p *parser) number() (uint64, error) {
	t := p.peek()
	if t.kind != tokNumber {
		return 0, p.errf("expected number, found %q", t.text)
	}
	p.next()
	v, ok := t.value()
	if !ok {
		return 0, fmt.Errorf("sql: bad number %q", t.text)
	}
	return v, nil
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.keyword("CREATE"):
		return p.createTable()
	case p.keyword("INSERT"):
		return p.insert()
	case p.keyword("SELECT"):
		return p.selectStmt()
	case p.keyword("UPDATE"):
		return p.update()
	case p.keyword("DELETE"):
		return p.deleteStmt()
	case p.keyword("EXPLAIN"):
		return p.explain()
	default:
		return nil, p.errf("expected CREATE, INSERT, SELECT, UPDATE, DELETE or EXPLAIN, found %q", p.peek().text)
	}
}

func (p *parser) createTable() (Statement, error) {
	if !p.keyword("TABLE") {
		return nil, p.errf("expected TABLE")
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	st := &CreateTable{Name: name}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		words := 1
		if p.keyword("WIDE") {
			n, err := p.number()
			if err != nil {
				return nil, err
			}
			if n == 0 || n > 64 {
				return nil, fmt.Errorf("sql: WIDE width %d out of range", n)
			}
			words = int(n)
		}
		st.Columns = append(st.Columns, ColumnDef{Name: col, Words: words})
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	if p.keyword("CAPACITY") {
		n, err := p.number()
		if err != nil {
			return nil, err
		}
		st.Capacity = int(n)
	}
	return st, nil
}

func (p *parser) insert() (Statement, error) {
	if !p.keyword("INTO") {
		return nil, p.errf("expected INTO")
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if !p.keyword("VALUES") {
		return nil, p.errf("expected VALUES")
	}
	// The rows are sub-slices of one backing array. Every value but the
	// statement's last is followed by a comma and every row opens with a
	// parenthesis, so counting those in the rest of the source sizes both
	// the array and the row list up front.
	rest := p.lex.src[p.tok.pos:]
	vals := make([]uint64, 0, strings.Count(rest, ",")+1)
	st := &Insert{Table: name, Rows: make([][]uint64, 0, strings.Count(rest, "("))}
	for {
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		start := len(vals)
		for {
			v, err := p.number()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			if p.accept(tokPunct, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, vals[start:len(vals):len(vals)])
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	return st, nil
}

func (p *parser) selectStmt() (Statement, error) {
	st := &Select{Limit: noLimit}
	// Projection list; qualified names are tolerated and resolved after
	// FROM (needed for JOIN).
	var quals []QualID
	if p.accept(tokPunct, "*") {
		st.Star = true
	} else {
		for {
			item, qual, err := p.selectItem()
			if err != nil {
				return nil, err
			}
			if qual != nil {
				quals = append(quals, *qual)
			} else {
				st.Items = append(st.Items, item)
			}
			if p.accept(tokPunct, ",") {
				continue
			}
			break
		}
	}
	if !p.keyword("FROM") {
		return nil, p.errf("expected FROM")
	}
	var err error
	if st.Table, err = p.ident(); err != nil {
		return nil, err
	}

	if p.keyword("JOIN") {
		if st.Star || len(st.Items) > 0 {
			return nil, fmt.Errorf("sql: JOIN projections must be table-qualified (a.x, b.y)")
		}
		if st.JoinTable, err = p.ident(); err != nil {
			return nil, err
		}
		if !p.keyword("ON") {
			return nil, p.errf("expected ON")
		}
		l, err := p.qualIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, "="); err != nil {
			return nil, err
		}
		r, err := p.qualIdent()
		if err != nil {
			return nil, err
		}
		// Normalize sides to (Table, JoinTable).
		switch {
		case strings.EqualFold(l.Table, st.Table) && strings.EqualFold(r.Table, st.JoinTable):
			st.JoinLeft, st.JoinRight = l.Column, r.Column
		case strings.EqualFold(l.Table, st.JoinTable) && strings.EqualFold(r.Table, st.Table):
			st.JoinLeft, st.JoinRight = r.Column, l.Column
		default:
			return nil, fmt.Errorf("sql: ON clause must reference %s and %s", st.Table, st.JoinTable)
		}
		st.JoinItems = quals
		if len(quals) == 0 {
			return nil, fmt.Errorf("sql: JOIN needs qualified projections")
		}
		return st, nil
	}
	if len(quals) > 0 {
		return nil, fmt.Errorf("sql: qualified columns only valid with JOIN")
	}

	if p.keyword("WHERE") {
		if st.Where, err = p.conds(); err != nil {
			return nil, err
		}
	}
	if p.keyword("GROUP") {
		if !p.keyword("BY") {
			return nil, p.errf("expected BY after GROUP")
		}
		if st.GroupBy, err = p.ident(); err != nil {
			return nil, err
		}
	}
	if p.keyword("ORDER") {
		if !p.keyword("BY") {
			return nil, p.errf("expected BY after ORDER")
		}
		if st.OrderBy, err = p.ident(); err != nil {
			return nil, err
		}
		if p.keyword("DESC") {
			st.Desc = true
		} else {
			p.keyword("ASC")
		}
	}
	if p.keyword("LIMIT") {
		n, err := p.number()
		if err != nil {
			return nil, err
		}
		st.Limit = limitOf(n)
	}
	return st, nil
}

// noLimit is Select.Limit without a LIMIT clause.
const noLimit = -1

// limitOf is the Limit of LIMIT n: n, or the largest int when n is larger,
// which no table reaches.
func limitOf(n uint64) int { return int(min(n, math.MaxInt)) }

// selectItem parses one projection entry: col, t.col, SUM(col), AVG(col),
// COUNT(*).
func (p *parser) selectItem() (SelectItem, *QualID, error) {
	name, err := p.ident()
	if err != nil {
		return SelectItem{}, nil, err
	}
	switch {
	case strings.EqualFold(name, "SUM") && p.at(tokPunct, "("):
		col, err := p.parenIdent()
		return SelectItem{Agg: AggSum, Column: col}, nil, err
	case strings.EqualFold(name, "AVG") && p.at(tokPunct, "("):
		col, err := p.parenIdent()
		return SelectItem{Agg: AggAvg, Column: col}, nil, err
	case strings.EqualFold(name, "MIN") && p.at(tokPunct, "("):
		col, err := p.parenIdent()
		return SelectItem{Agg: AggMin, Column: col}, nil, err
	case strings.EqualFold(name, "MAX") && p.at(tokPunct, "("):
		col, err := p.parenIdent()
		return SelectItem{Agg: AggMax, Column: col}, nil, err
	case strings.EqualFold(name, "COUNT") && p.at(tokPunct, "("):
		p.next() // (
		if !p.accept(tokPunct, "*") {
			return SelectItem{}, nil, p.errf("COUNT supports only COUNT(*)")
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return SelectItem{}, nil, err
		}
		return SelectItem{Agg: AggCount}, nil, nil
	case p.accept(tokPunct, "."):
		col, err := p.ident()
		if err != nil {
			return SelectItem{}, nil, err
		}
		return SelectItem{}, &QualID{Table: name, Column: col}, nil
	default:
		return SelectItem{Column: name}, nil, nil
	}
}

func (p *parser) parenIdent() (string, error) {
	if _, err := p.expect(tokPunct, "("); err != nil {
		return "", err
	}
	col, err := p.ident()
	if err != nil {
		return "", err
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return "", err
	}
	return col, nil
}

func (p *parser) qualIdent() (QualID, error) {
	tbl, err := p.ident()
	if err != nil {
		return QualID{}, err
	}
	if _, err := p.expect(tokPunct, "."); err != nil {
		return QualID{}, err
	}
	col, err := p.ident()
	if err != nil {
		return QualID{}, err
	}
	return QualID{Table: tbl, Column: col}, nil
}

func (p *parser) conds() ([]Cond, error) {
	var out []Cond
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		opTok := p.peek()
		if opTok.kind != tokOp {
			return nil, p.errf("expected comparison operator, found %q", opTok.text)
		}
		p.next()
		v, err := p.number()
		if err != nil {
			return nil, err
		}
		out = append(out, Cond{Column: col, Op: opTok.text, Value: v})
		if p.keyword("AND") {
			continue
		}
		break
	}
	return out, nil
}

func (p *parser) deleteStmt() (Statement, error) {
	if !p.keyword("FROM") {
		return nil, p.errf("expected FROM")
	}
	st := &Delete{}
	var err error
	if st.Table, err = p.ident(); err != nil {
		return nil, err
	}
	if p.keyword("WHERE") {
		if st.Where, err = p.conds(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) update() (Statement, error) {
	st := &Update{}
	var err error
	if st.Table, err = p.ident(); err != nil {
		return nil, err
	}
	if !p.keyword("SET") {
		return nil, p.errf("expected SET")
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, "="); err != nil {
			return nil, err
		}
		v, err := p.number()
		if err != nil {
			return nil, err
		}
		st.Sets = append(st.Sets, struct {
			Column string
			Value  uint64
		}{col, v})
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	if p.keyword("WHERE") {
		if st.Where, err = p.conds(); err != nil {
			return nil, err
		}
	}
	return st, nil
}
