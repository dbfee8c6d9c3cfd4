package sql_test

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
	"time"

	"rcnvm/internal/engine"
	"rcnvm/internal/shard"
	"rcnvm/internal/sql"
	"rcnvm/internal/trace"
)

// TestConcurrentMatchesSequential is the -race stress test for the
// concurrent engine: 16 goroutines mix SELECT, INSERT, UPDATE and DELETE on
// one DB through sql.Execute, then the same 16 scripts run one at a
// time on a fresh DB. Every script works a disjoint id range of a shared
// table (plus reads of a shared immutable table), so its transcript is
// deterministic despite the races and must equal its sequential one.
func TestConcurrentMatchesSequential(t *testing.T) {
	const goroutines = 16
	const rows = 16

	script := func(g int) []string {
		lo := g * 1000
		var qs []string
		for i := 0; i < rows; i++ {
			qs = append(qs,
				fmt.Sprintf("INSERT INTO mixed VALUES (%d, %d, %d)", lo+i, g, i*i),
				"SELECT SUM(v), COUNT(*) FROM fixed",
				fmt.Sprintf("SELECT SUM(v) FROM mixed WHERE id >= %d AND id < %d", lo, lo+rows))
		}
		return append(qs,
			fmt.Sprintf("UPDATE mixed SET v = 1 WHERE id >= %d AND id < %d", lo, lo+rows/2),
			fmt.Sprintf("DELETE FROM mixed WHERE id >= %d AND id < %d", lo+rows/2, lo+rows),
			fmt.Sprintf("SELECT id, grp, v FROM mixed WHERE id >= %d AND id < %d ORDER BY id", lo, lo+rows),
			fmt.Sprintf("SELECT MIN(v), MAX(v), AVG(v) FROM mixed WHERE grp = %d", g))
	}
	// run plays every script on a fresh DB, all at once or one after
	// another, and returns each script's transcript.
	run := func(concurrent bool) [][]string {
		t.Helper()
		db, err := engine.Open()
		if err != nil {
			t.Fatal(err)
		}
		c := shard.Wrap(db)
		for _, q := range []string{
			"CREATE TABLE fixed (id, v) CAPACITY 64",
			"INSERT INTO fixed VALUES (1,100),(2,200),(3,300)",
			"CREATE TABLE mixed (id, grp, v) CAPACITY 4096",
		} {
			if _, _, err := sql.Execute(c, q, sql.ExecOptions{}); err != nil {
				t.Fatal(err)
			}
		}

		results := make([][]string, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			play := func() {
				defer wg.Done()
				for _, q := range script(g) {
					res, _, err := sql.Execute(c, q, sql.ExecOptions{})
					if err != nil {
						results[g] = append(results[g], "error: "+err.Error())
						continue
					}
					results[g] = append(results[g], res.Format())
				}
			}
			if concurrent {
				go play()
			} else {
				play()
			}
		}
		wg.Wait()
		return results
	}

	conc, seq := run(true), run(false)
	for g := range seq {
		if len(conc[g]) != len(seq[g]) {
			t.Fatalf("script %d: %d results concurrent vs %d sequential", g, len(conc[g]), len(seq[g]))
		}
		for i := range seq[g] {
			if conc[g][i] != seq[g][i] {
				t.Errorf("script %d, statement %d: runs disagree\nconcurrent:\n%s\nsequential:\n%s",
					g, i, conc[g][i], seq[g][i])
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
		{"EXPLAIN ANALYZE SELECT a FROM t", true}, // its capture is its own
		{"EXPLAIN ANALYZE UPDATE t SET a = 1", false},
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
	db, err := engine.Open()
	if err != nil {
		t.Fatal(err)
	}
	cl := shard.Wrap(db)
	for _, q := range []string{"CREATE TABLE t (a, b, k) CAPACITY 64", "CREATE TABLE u (k, b) CAPACITY 64"} {
		if _, _, err := sql.Execute(cl, q, sql.ExecOptions{}); err != nil {
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

// TestExecTraced checks that a traced statement's streams hold its own
// accesses only. On 1 and 3 shards, goroutines hammer the table with
// untraced reads and traced statements of their own while the test runs
// traced SUMs, and every traced capture hashes to what the same statement
// captures alone.
func TestExecTraced(t *testing.T) {
	traced := []string{
		"SELECT SUM(v) FROM tr",
		"SELECT id, v FROM tr WHERE v > 15 ORDER BY v DESC",
		"SELECT id, COUNT(*) FROM tr GROUP BY id",
	}
	for _, shards := range []int{1, 3} {
		c, err := shard.Open(engine.DualAddress, shards, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{
			"CREATE TABLE tr (id, v) CAPACITY 64",
			"INSERT INTO tr VALUES (1,10),(2,20),(3,30),(4,40)",
		} {
			if _, _, err := sql.Execute(c, q, sql.ExecOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		capture := func(q string) (*sql.Result, []trace.Stream, [32]byte, error) {
			res, streams, err := sql.Execute(c, q, sql.ExecOptions{Trace: true})
			return res, streams, sha256.Sum256([]byte(fmt.Sprint(streams))), err
		}
		alone := make(map[string][32]byte)
		for _, q := range traced {
			_, _, sum, err := capture(q)
			if err != nil {
				t.Fatal(err)
			}
			alone[q] = sum
		}

		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if _, _, err := sql.Execute(c, "SELECT SUM(v) FROM tr", sql.ExecOptions{}); err != nil {
						t.Error(err)
						return
					}
					q := traced[(g+i)%len(traced)]
					if _, _, sum, err := capture(q); err != nil || sum != alone[q] {
						t.Errorf("%d shards, %q beside other sessions: err %v, stream differs from its capture alone: %v", shards, q, err, sum != alone[q])
						return
					}
				}
			}()
		}

		for i := 0; i < 20; i++ {
			res, streams, sum, err := capture(traced[0])
			if err != nil {
				t.Fatal(err)
			}
			if res.Rows[0][0] != 100 {
				t.Fatalf("sum = %d, want 100", res.Rows[0][0])
			}
			// 4 single-word column reads across the shards, exactly —
			// concurrent statements must never leak into a statement's
			// streams.
			ops := 0
			for _, s := range streams {
				ops += s.MemOps()
			}
			if ops != 4 || sum != alone[traced[0]] {
				t.Fatalf("%d shards: traced %d mem ops, want 4; same stream as alone: %v", shards, ops, sum == alone[traced[0]])
			}
		}
		wg.Wait()
	}
}

// TestTracedReadTakesSharedLocks: a traced statement takes the locks it
// takes untraced. On 1 and 3 shards, with another goroutine holding the
// read lock of a shard the statement targets, a traced SELECT and an
// EXPLAIN ANALYZE SELECT complete beside it, and a traced UPDATE waits for
// it to leave.
func TestTracedReadTakesSharedLocks(t *testing.T) {
	for _, shards := range []int{1, 3} {
		c, err := shard.Open(engine.DualAddress, shards, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{
			"CREATE TABLE tr (id, v) CAPACITY 64",
			"INSERT INTO tr VALUES (1,10),(2,20),(3,30),(4,40)",
		} {
			if _, _, err := sql.Execute(c, q, sql.ExecOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		for _, tc := range []struct {
			src    string
			trace  bool
			shared bool
		}{
			{"SELECT SUM(v) FROM tr", true, true},
			{"EXPLAIN ANALYZE SELECT SUM(v) FROM tr", false, true},
			{"UPDATE tr SET v = 5 WHERE v = 99", true, false},
		} {
			held := c.Shard(shards - 1) // every statement here broadcasts
			held.RLock()
			done := make(chan error, 1)
			go func() {
				_, _, err := sql.Execute(c, tc.src, sql.ExecOptions{Trace: tc.trace})
				done <- err
			}()
			wait := 10 * time.Second // a shared-lock statement must get through
			if !tc.shared {
				wait = 20 * time.Millisecond // a writer must still be parked
			}
			select {
			case err := <-done:
				if !tc.shared {
					t.Errorf("%d shards: %q ran beside a reader: it did not take the exclusive lock", shards, tc.src)
				}
				done <- err
			case <-time.After(wait):
				if tc.shared {
					t.Fatalf("%d shards: %q blocked behind a reader: it did not take the shared lock", shards, tc.src)
				}
			}
			held.RUnlock()
			if err := <-done; err != nil {
				t.Fatalf("%d shards: %q: %v", shards, tc.src, err)
			}
		}
	}
}
