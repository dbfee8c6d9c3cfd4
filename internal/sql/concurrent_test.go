package sql_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rcnvm/internal/engine"
	"rcnvm/internal/shard"
	"rcnvm/internal/sql"
)

// TestConcurrentDualVsRowOnly is the -race stress test for the concurrent
// engine: N goroutines mix SELECT, INSERT, UPDATE and DELETE on one DB
// through sql.ExecSharded, and the whole run executes once on a
// DualAddress database and once on a RowOnly database. Every goroutine
// works a disjoint id range of a shared table (plus reads of a shared
// immutable table), so its observed results are deterministic despite the
// races — and must be identical across the two addressing modes, the
// engine's core semantic contract, now under concurrency.
func TestConcurrentDualVsRowOnly(t *testing.T) {
	const goroutines = 16
	const rows = 16

	run := func(mode engine.Mode) [][]string {
		t.Helper()
		db, err := engine.Open(mode)
		if err != nil {
			t.Fatal(err)
		}
		c := shard.Wrap(db)
		for _, q := range []string{
			"CREATE TABLE fixed (id, v) CAPACITY 64",
			"INSERT INTO fixed VALUES (1,100),(2,200),(3,300)",
			"CREATE TABLE mixed (id, grp, v) CAPACITY 4096",
		} {
			if _, err := sql.ExecSharded(c, q); err != nil {
				t.Fatal(err)
			}
		}

		results := make([][]string, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				lo := g * 1000
				record := func(q string) {
					res, err := sql.ExecSharded(c, q)
					if err != nil {
						results[g] = append(results[g], "error: "+err.Error())
						return
					}
					results[g] = append(results[g], res.Format())
				}
				for i := 0; i < rows; i++ {
					record(fmt.Sprintf("INSERT INTO mixed VALUES (%d, %d, %d)", lo+i, g, i*i))
					record("SELECT SUM(v), COUNT(*) FROM fixed")
					record(fmt.Sprintf(
						"SELECT SUM(v) FROM mixed WHERE id >= %d AND id < %d", lo, lo+rows))
				}
				record(fmt.Sprintf(
					"UPDATE mixed SET v = 1 WHERE id >= %d AND id < %d", lo, lo+rows/2))
				record(fmt.Sprintf(
					"DELETE FROM mixed WHERE id >= %d AND id < %d", lo+rows/2, lo+rows))
				record(fmt.Sprintf(
					"SELECT id, grp, v FROM mixed WHERE id >= %d AND id < %d ORDER BY id",
					lo, lo+rows))
				record(fmt.Sprintf("SELECT MIN(v), MAX(v), AVG(v) FROM mixed WHERE grp = %d", g))
			}(g)
		}
		wg.Wait()
		return results
	}

	dual := run(engine.DualAddress)
	row := run(engine.RowOnly)
	for g := range dual {
		if len(dual[g]) != len(row[g]) {
			t.Fatalf("goroutine %d: %d results dual vs %d row-only", g, len(dual[g]), len(row[g]))
		}
		for i := range dual[g] {
			if dual[g][i] != row[g][i] {
				t.Errorf("goroutine %d, statement %d: modes disagree\ndual:\n%s\nrow-only:\n%s",
					g, i, dual[g][i], row[g][i])
			}
		}
	}
}

// TestExecLockedReadOnlyClassification pins the statement classification
// the locking discipline rests on — including every shape the scatter-
// gather executor splits into per-shard sub-plans. A sub-plan inherits the
// whole statement's lock mode, so each of these shapes must classify
// correctly regardless of whether it routes to one shard or broadcasts
// (TestScatterSubPlanLockModes in the sql package additionally checks the
// router's exclusive flag agrees with this classification per statement).
func TestExecLockedReadOnlyClassification(t *testing.T) {
	cases := []struct {
		src string
		ro  bool
	}{
		{"SELECT a FROM t", true},
		{"SELECT SUM(a) FROM t WHERE b > 3", true},
		{"EXPLAIN SELECT a FROM t", true},
		{"EXPLAIN ANALYZE SELECT a FROM t", false}, // records a trace: writer
		{"INSERT INTO t VALUES (1)", false},
		{"UPDATE t SET a = 1", false},
		{"DELETE FROM t", false},
		{"CREATE TABLE t (a)", false},
		// Scatter-gather sub-plan shapes: point-routed reads stay readers,
		// point-routed mutations stay writers (routing narrows the shard
		// set, never the lock mode), and merged fan-out reads stay readers.
		{"SELECT * FROM t WHERE a = 7", true},                // point select
		{"SELECT a, SUM(b) FROM t GROUP BY a", true},         // partial-aggregate merge
		{"SELECT MIN(b), MAX(b), COUNT(*) FROM t", true},     // multi-aggregate merge
		{"SELECT a, b FROM t ORDER BY b DESC LIMIT 5", true}, // ordered merge
		{"SELECT t.a, u.b FROM t JOIN u ON t.k = u.k", true}, // gathered join
		{"UPDATE t SET b = 2 WHERE a = 7", false},            // point update
		{"UPDATE t SET a = 2 WHERE b = 7", false},            // partition-column rewrite
		{"DELETE FROM t WHERE a = 7", false},                 // point delete
	}
	// The classification is the lock mode Execute takes: with a reader
	// already inside the database, read-only statements run alongside it
	// and everything else waits for it to leave.
	db, err := engine.Open(engine.DualAddress)
	if err != nil {
		t.Fatal(err)
	}
	cl := shard.Wrap(db)
	for _, q := range []string{"CREATE TABLE t (a, b, k) CAPACITY 64", "CREATE TABLE u (k, b) CAPACITY 64"} {
		if _, err := sql.ExecSharded(cl, q); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range cases {
		st, err := sql.Parse(c.src)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		if got := sql.ReadOnly(st); got != c.ro {
			t.Errorf("ReadOnly(%q) = %v, want %v", c.src, got, c.ro)
		}
		db.RLock()
		done := make(chan struct{})
		go func() {
			defer close(done)
			sql.Execute(cl, c.src, sql.ExecOptions{}) // statement errors are fine: the lock round is the subject
		}()
		wait := 10 * time.Second // a read-only statement must get through
		if !c.ro {
			wait = 20 * time.Millisecond // a writer must still be parked
		}
		select {
		case <-done:
			if !c.ro {
				t.Errorf("%q ran beside a reader: it did not take the exclusive lock", c.src)
			}
		case <-time.After(wait):
			if c.ro {
				t.Fatalf("%q blocked behind a reader: it did not take the shared lock", c.src)
			}
		}
		db.RUnlock()
		<-done
	}
}

// TestExecTraced checks that a traced statement returns its own accesses
// only, even with concurrent readers hammering the same database.
func TestExecTraced(t *testing.T) {
	db, err := engine.Open(engine.DualAddress)
	if err != nil {
		t.Fatal(err)
	}
	c := shard.Wrap(db)
	for _, q := range []string{
		"CREATE TABLE tr (id, v) CAPACITY 64",
		"INSERT INTO tr VALUES (1,10),(2,20),(3,30),(4,40)",
	} {
		if _, err := sql.ExecSharded(c, q); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := sql.ExecSharded(c, "SELECT SUM(v) FROM tr"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	for i := 0; i < 20; i++ {
		res, streams, err := sql.Execute(c, "SELECT SUM(v) FROM tr", sql.ExecOptions{Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		stream := streams[0]
		if res.Rows[0][0] != 100 {
			t.Fatalf("sum = %d, want 100", res.Rows[0][0])
		}
		// 4 single-word column reads, exactly — concurrent statements
		// must never leak into the exclusive trace.
		if got := stream.MemOps(); got != 4 {
			t.Fatalf("traced %d mem ops, want 4", got)
		}
	}
	close(stop)
	wg.Wait()
}
