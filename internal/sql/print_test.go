package sql

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rcnvm/internal/shard"
)

// TestPrintParseRoundTrip: printing a parsed statement and re-parsing it
// yields an identical AST.
func TestPrintParseRoundTrip(t *testing.T) {
	srcs := []string{
		"CREATE TABLE t (a, b WIDE 4, c) CAPACITY 128",
		"CREATE TABLE t (a)",
		"INSERT INTO t VALUES (1, 2, 3), (4, 5, 6)",
		"SELECT * FROM t",
		"SELECT a, b FROM t WHERE a > 5 AND b <= 9",
		"SELECT SUM(a), COUNT(*), MIN(b), MAX(b), AVG(c) FROM t WHERE a != 0",
		"SELECT a, SUM(b) FROM t GROUP BY a",
		"SELECT a FROM t ORDER BY b DESC LIMIT 10",
		"SELECT a FROM t WHERE a = 1 ORDER BY a LIMIT 3",
		"SELECT x.a, y.b FROM x JOIN y ON x.k = y.k",
		"UPDATE t SET a = 1, b = 2 WHERE c < 7",
		"DELETE FROM t WHERE a >= 3",
		"DELETE FROM t",
	}
	for _, src := range srcs {
		first, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		printed := fmt.Sprintf("%v", first)
		second, err := Parse(printed)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", printed, src, err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("round trip changed AST:\n  src:     %q\n  printed: %q\n  a: %#v\n  b: %#v",
				src, printed, first, second)
		}
	}
}

func TestSelectItemString(t *testing.T) {
	if (SelectItem{Agg: AggCount}).String() != "COUNT(*)" {
		t.Error("count printer")
	}
	if (SelectItem{Column: "x"}).String() != "x" {
		t.Error("plain printer")
	}
}

func TestExplain(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	res := mustExec(t, db, "EXPLAIN SELECT SUM(salary) FROM person WHERE age > 40")
	for _, want := range []string{"filter age > 40", "column scan (cload)", "aggregate SUM(salary)"} {
		if !contains(res.Message, want) {
			t.Errorf("plan missing %q: %q", want, res.Message)
		}
	}
	// EXPLAIN does not execute: counts unchanged by the plan-only form.
	before := db.Mem().Counts()
	mustExec(t, db, "EXPLAIN UPDATE person SET salary = 0")
	if db.Mem().Counts() != before {
		t.Error("plain EXPLAIN touched memory")
	}
}

func TestExplainAnalyze(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	res := mustExec(t, db, "EXPLAIN ANALYZE SELECT SUM(salary) FROM person WHERE age > 40")
	for _, want := range []string{"actual:", "memory ops", "row-only"} {
		if !contains(res.Message, want) {
			t.Errorf("analyze missing %q: %q", want, res.Message)
		}
	}
	// ANALYZE really executed the statement.
	if db.Mem().Counts().ColReads == 0 {
		t.Error("ANALYZE did not execute")
	}
}

func TestExplainErrors(t *testing.T) {
	db := newDB(t)
	if _, _, err := Execute(shard.Wrap(db), "EXPLAIN EXPLAIN SELECT 1 FROM x", ExecOptions{}); err == nil {
		t.Fatal("nested EXPLAIN accepted")
	}
	if _, _, err := Execute(shard.Wrap(db), "EXPLAIN", ExecOptions{}); err == nil {
		t.Fatal("bare EXPLAIN accepted")
	}
}

func contains(s, sub string) bool {
	return strings.Contains(s, sub)
}
