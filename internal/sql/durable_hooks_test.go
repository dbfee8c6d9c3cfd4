package sql

import (
	"fmt"
	"reflect"
	"testing"

	"rcnvm/internal/engine"
	"rcnvm/internal/shard"
)

// TestLogCommitNilPathAllocatesNothing pins the volatile-server
// contract: with no commit log installed (-data-dir unset), the
// durability hook on the write path costs one nil check and zero
// allocations.
func TestLogCommitNilPathAllocatesNothing(t *testing.T) {
	db, err := engine.Open()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if wait := logShard(db, "UPDATE kv SET val = 1 WHERE k = 2", false, false); wait != nil {
			t.Fatal("nil commit log produced a wait func")
		}
	})
	if allocs != 0 {
		t.Fatalf("volatile logShard path allocates %.1f/op, want 0", allocs)
	}
}

// TestExplainAnalyzeLogsInnerStatement: the WAL must log the mutation
// inside EXPLAIN ANALYZE, not the EXPLAIN itself, so replay re-executes
// without re-timing. The logged text is the inner statement's own source,
// as the client spelled it, which the parser recorded as Explain.Src.
func TestExplainAnalyzeLogsInnerStatement(t *testing.T) {
	cases := []struct{ in, want string }{
		{"EXPLAIN ANALYZE INSERT INTO kv VALUES (1)", "INSERT INTO kv VALUES (1)"},
		{"explain analyze delete from kv", "delete from kv"},
		{"  EXPLAIN   ANALYZE  UPDATE kv SET a = 1", "UPDATE kv SET a = 1"},
		{"EXPLAIN ANALYZE UPDATE kv SET a=1 WHERE k>=2", "UPDATE kv SET a=1 WHERE k>=2"},
		{"Explain Analyze Create Table t (a, b WIDE 2) ;\n", "Create Table t (a, b WIDE 2) ;\n"},
	}
	for _, tc := range cases {
		st, err := Parse(tc.in)
		if err != nil {
			t.Fatalf("%s: %v", tc.in, err)
		}
		ex, ok := st.(*Explain)
		if !ok || !ex.Analyze {
			t.Fatalf("%s: not EXPLAIN ANALYZE", tc.in)
		}
		if ex.Src != tc.want {
			t.Fatalf("inner source of %q = %q, want %q", tc.in, ex.Src, tc.want)
		}
		// The logged text must replay to the identical statement.
		back, err := Parse(ex.Src)
		if err != nil {
			t.Fatalf("reparse %q: %v", ex.Src, err)
		}
		if !reflect.DeepEqual(back, ex.Stmt) {
			t.Fatalf("%q reparses to %#v, not %#v", ex.Src, back, ex.Stmt)
		}
	}

	// On one shard the inner dispatch of an analyzed mutation writes exactly
	// one record, the inner text. A plan-only EXPLAIN never executes, an
	// analyzed SELECT changes nothing, and the unlogged Run writes nothing.
	c, err := shard.Open(engine.DualAddress, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Execute(c, "CREATE TABLE kv (k, a)", ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	log := &recLog{}
	c.Shard(0).SetCommitLog(log)
	var executed []Statement
	for _, q := range []string{
		"EXPLAIN INSERT INTO kv VALUES (5, 6)",
		"EXPLAIN ANALYZE SELECT * FROM kv",
		"EXPLAIN ANALYZE INSERT INTO kv VALUES (1, 2)",
		"EXPLAIN DELETE FROM kv",
		"explain analyze delete from kv where k = 9",
	} {
		if _, _, err := Execute(c, q, ExecOptions{}); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if st, _ := Parse(q); analyzes(st) && !ReadOnly(st) {
			executed = append(executed, st.(*Explain).Stmt)
		}
	}
	st, err := Parse("UPDATE kv SET a = 3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(c.Shard(0), st, nil); err != nil {
		t.Fatal(err)
	}
	if want := []string{"INSERT INTO kv VALUES (1, 2)", "delete from kv where k = 9"}; fmt.Sprint(log.srcs) != fmt.Sprint(want) {
		t.Fatalf("logged %q, want %q", log.srcs, want)
	}
	for i, src := range log.srcs {
		if back, err := Parse(src); err != nil || !reflect.DeepEqual(back, executed[i]) {
			t.Fatalf("logged %q parses to %#v, %v; executed %#v", src, back, err, executed[i])
		}
	}
}

// recLog is a commit log that remembers the statement texts appended.
type recLog struct{ srcs []string }

func (l *recLog) LogStatement(src string, _, _ bool) (func() error, error) {
	l.srcs = append(l.srcs, src)
	return nil, nil
}

func (l *recLog) LogInsert(string, [][]uint64, []int) (func() error, error) {
	return nil, fmt.Errorf("recLog: unexpected insert record")
}

// panicLog is a commit log that blows up on every append: the worst place
// for a panic, under the exclusive statement lock with the mutation
// already applied.
type panicLog struct{}

func (panicLog) LogStatement(string, bool, bool) (func() error, error) {
	panic("injected LogStatement panic")
}

func (panicLog) LogInsert(string, [][]uint64, []int) (func() error, error) {
	panic("injected LogInsert panic")
}

// TestPanicUnderStatementLockReleasesIt: a panic under the statement lock
// (server.execute recovers it into internal_error) must leave every shard
// unlocked, on 1 shard exactly as on 4 — otherwise one poisoned statement
// wedges every later one on that database.
func TestPanicUnderStatementLockReleasesIt(t *testing.T) {
	const (
		update = "UPDATE kv SET val = 1 WHERE grp = 2"
		insert = "INSERT INTO kv VALUES (100, 1, 2), (101, 2, 3), (102, 3, 4), (103, 0, 5)"
	)
	for _, shards := range []int{1, 4} {
		c, err := shard.Open(engine.DualAddress, shards, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{"CREATE TABLE kv (k, grp, val) CAPACITY 1024", "INSERT INTO kv VALUES (1, 2, 3), (2, 2, 4)"} {
			if _, _, err := Execute(c, q, ExecOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < shards; i++ {
			c.Shard(i).SetCommitLog(panicLog{})
		}
		runs := map[string]func(){
			"batch": func() { ExecBatchSharded(c, nil, []string{"SELECT COUNT(*) FROM kv", update, insert}) },
		}
		for _, src := range []string{update, insert} {
			runs[src] = func() { Execute(c, src, ExecOptions{}) }
			runs["traced "+src] = func() { Execute(c, src, ExecOptions{Trace: true}) }
		}
		for name, run := range runs {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%d shards, %s: the commit log never panicked", shards, name)
					}
				}()
				run()
			}()
			for i := 0; i < shards; i++ {
				if !c.Shard(i).TryLock() {
					t.Fatalf("%d shards, %s: shard %d is still locked after the panic", shards, name, i)
				}
				c.Shard(i).Unlock()
			}
			if _, _, err := Execute(c, "SELECT SUM(val) FROM kv", ExecOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
}
