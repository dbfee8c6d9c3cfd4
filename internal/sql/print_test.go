package sql

import (
	"strings"
	"testing"

	"rcnvm/internal/shard"
)

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
