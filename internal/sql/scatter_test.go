package sql

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"rcnvm/internal/ecc"
	"rcnvm/internal/engine"
	"rcnvm/internal/fault"
	"rcnvm/internal/shard"
	"rcnvm/internal/workload"
)

// newSuiteCluster builds an n-shard cluster loaded with the workload SQL
// suite's tables and data.
func newSuiteCluster(t *testing.T, n, workers int) *shard.Cluster {
	t.Helper()
	c, err := shard.Open(engine.DualAddress, n, workers)
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range workload.SQLSetup() {
		if _, _, err := Execute(c, stmt, ExecOptions{}); err != nil {
			t.Fatalf("setup %q: %v", stmt[:40], err)
		}
	}
	return c
}

// suiteTranscript executes the ordered query suite and returns one
// formatted result per query.
func suiteTranscript(t *testing.T, c *shard.Cluster) []string {
	t.Helper()
	var out []string
	for _, q := range workload.SQLQueries() {
		res, _, err := Execute(c, q.SQL, ExecOptions{})
		if err != nil {
			t.Fatalf("%s (%d shards): %v", q.ID, c.N(), err)
		}
		out = append(out, q.ID+"\n"+res.Format())
	}
	return out
}

// TestShardEquivalenceWorkloadSuite: the whole ordered suite — scans,
// aggregates, group-bys, ordered selects, joins, point and broadcast
// mutations — must produce byte-identical transcripts on 2-, 3- and
// 4-shard clusters and on the 1-shard baseline.
func TestShardEquivalenceWorkloadSuite(t *testing.T) {
	base := suiteTranscript(t, newSuiteCluster(t, 1, 1))
	for _, n := range []int{2, 3, 4} {
		got := suiteTranscript(t, newSuiteCluster(t, n, 4))
		if len(got) != len(base) {
			t.Fatalf("%d shards: %d results, baseline %d", n, len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Errorf("%d shards: result diverges from baseline:\n--- 1 shard\n%s\n--- %d shards\n%s",
					n, base[i], n, got[i])
			}
		}
	}
}

// TestShardEquivalenceAcrossWorkers: the same cluster size must render the
// same transcript regardless of fan-out width — slotted sub-plan results
// make worker scheduling invisible.
func TestShardEquivalenceAcrossWorkers(t *testing.T) {
	one := suiteTranscript(t, newSuiteCluster(t, 4, 1))
	eight := suiteTranscript(t, newSuiteCluster(t, 4, 8))
	for i := range one {
		if one[i] != eight[i] {
			t.Errorf("workers=1 vs workers=8 diverge:\n--- w=1\n%s\n--- w=8\n%s", one[i], eight[i])
		}
	}
}

// TestShardEquivalenceErrors: statements that fail must fail with the
// same error text on every cluster size (schema errors surface
// identically on every shard; the merge picks the lowest shard's error).
func TestShardEquivalenceErrors(t *testing.T) {
	base := newSuiteCluster(t, 1, 1)
	for _, n := range []int{2, 4} {
		c := newSuiteCluster(t, n, 4)
		for _, q := range workload.SQLErrorQueries() {
			_, _, errBase := Execute(base, q.SQL, ExecOptions{})
			_, _, errN := Execute(c, q.SQL, ExecOptions{})
			if errBase == nil || errN == nil {
				t.Fatalf("%s: expected errors, got base=%v, %d shards=%v", q.ID, errBase, n, errN)
			}
			if errBase.Error() != errN.Error() {
				t.Errorf("%s: error diverges:\n--- 1 shard\n%s\n--- %d shards\n%s",
					q.ID, errBase, n, errN)
			}
		}
	}
}

// TestShardEquivalenceUnderFault targets the *same logical cell* (global
// row 10, word 8 = table_a.f9) on a 1-shard and a 3-shard cluster via the
// registry's owner lookup. One stuck bit is always corrected, so results
// stay byte-identical; two stuck bits are always uncorrectable, and both
// cluster sizes must surface ecc.ErrUncorrectable. (Error *text* embeds
// physical coordinates, which legitimately differ across placements.)
func TestShardEquivalenceUnderFault(t *testing.T) {
	const probe = "SELECT SUM(f9), COUNT(*) FROM table_a"
	for _, bits := range []int{1, 2} {
		base := newSuiteCluster(t, 1, 1)
		clean, _, err := Execute(base, probe, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}

		addStuck := func(c *shard.Cluster) {
			c.EnableFaults(fault.Config{Enabled: true, Seed: 7})
			sh, local := 0, 10
			if c.N() > 1 {
				var ok bool
				sh, local, ok = c.Owner("table_a", 10)
				if !ok {
					t.Fatal("global row 10 has no owner")
				}
			}
			tab, ok := c.Shard(sh).Table("table_a")
			if !ok {
				t.Fatal("table_a missing")
			}
			c.Shard(sh).Faults().AddStuck(tab.CellCoord(local, 8), bits)
		}

		addStuck(base)
		resBase, _, errBase := Execute(base, probe, ExecOptions{})

		sharded := newSuiteCluster(t, 3, 4)
		addStuck(sharded)
		resN, _, errN := Execute(sharded, probe, ExecOptions{})

		switch bits {
		case 1: // always corrected: same answer as the fault-free run
			if errBase != nil || errN != nil {
				t.Fatalf("bits=1: unexpected errors %v / %v", errBase, errN)
			}
			if resBase.Format() != clean.Format() || resN.Format() != clean.Format() {
				t.Errorf("bits=1: corrected results diverge:\nclean\n%scorrupt base\n%scorrupt 3-shard\n%s",
					clean.Format(), resBase.Format(), resN.Format())
			}
		case 2: // always uncorrectable on both cluster sizes
			if !errors.Is(errBase, ecc.ErrUncorrectable) {
				t.Errorf("bits=2: baseline error = %v, want uncorrectable", errBase)
			}
			if !errors.Is(errN, ecc.ErrUncorrectable) {
				t.Errorf("bits=2: 3-shard error = %v, want uncorrectable", errN)
			}
		}
	}
}

// TestScatterPointRouting: an equality on the partitioning column must
// run on exactly one shard, and stop doing so once an UPDATE rewrites
// that column.
func TestScatterPointRouting(t *testing.T) {
	c := newSuiteCluster(t, 4, 2)
	st, err := Parse("SELECT * FROM table_a WHERE f1 = 123")
	if err != nil {
		t.Fatal(err)
	}
	targets, exclusive := route(c, st)
	if len(targets) != 1 || exclusive {
		t.Fatalf("point SELECT routed to %v (exclusive=%v), want one shard shared", targets, exclusive)
	}
	if want := c.Partition(123); targets[0] != want {
		t.Fatalf("point SELECT routed to shard %d, want %d", targets[0], want)
	}
	// Rewriting f1 permanently disables point routing for the table.
	if _, _, err := Execute(c, "UPDATE table_a SET f1 = 5 WHERE f2 = 777", ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	targets, _ = route(c, st)
	if len(targets) != c.N() {
		t.Fatalf("after partition-column rewrite: routed to %v, want broadcast", targets)
	}
}

// TestScatterSubPlanLockModes: the lock mode a fanned-out sub-plan takes
// must agree with the statement's read-only classification — a mutating
// statement may never reach a shard under a read lock, and an EXPLAIN
// ANALYZE takes the mode of the statement it executes.
func TestScatterSubPlanLockModes(t *testing.T) {
	c := newSuiteCluster(t, 2, 2)
	cases := []struct {
		src       string
		exclusive bool
	}{
		{"SELECT COUNT(*) FROM table_a", false},
		{"SELECT f16, SUM(f9) FROM table_a GROUP BY f16", false},
		{"SELECT table_a.f3, table_b.f4 FROM table_a JOIN table_b ON table_a.f9 = table_b.f9", false},
		{"EXPLAIN SELECT * FROM table_a", false},
		{"INSERT INTO table_a VALUES (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)", true},
		{"UPDATE table_a SET f3 = 1", true},
		{"UPDATE table_a SET f3 = 1 WHERE f1 = 9", true},
		{"DELETE FROM table_b WHERE f10 = 1", true},
		{"CREATE TABLE zz (a, b)", true},
		{"EXPLAIN ANALYZE SELECT * FROM table_a", false},
		{"EXPLAIN ANALYZE UPDATE table_a SET f3 = 1", true},
	}
	for _, tc := range cases {
		st, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if _, exclusive := route(c, st); exclusive != tc.exclusive {
			t.Errorf("%s: exclusive=%v, want %v", tc.src, exclusive, tc.exclusive)
		}
		if ro := ReadOnly(st); ro == tc.exclusive {
			t.Errorf("%s: ReadOnly=%v contradicts required lock mode", tc.src, ro)
		}
	}
}

// TestScatterConcurrentPointAndFanout hammers a 2-shard cluster with
// point updates, broadcast updates and fanned-out reads. Run under -race:
// it fails if any sub-plan mutates engine state while holding only a read
// lock.
func TestScatterConcurrentPointAndFanout(t *testing.T) {
	c := newSuiteCluster(t, 2, 4)
	const iters = 120
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for g := 0; g < 4; g++ {
		wg.Add(3)
		go func(g int) { // point updates
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := fmt.Sprintf("UPDATE table_a SET f3 = %d WHERE f1 = %d", i, (g*31+i)%1000)
				if _, _, err := Execute(c, q, ExecOptions{}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
		go func() { // fanned-out aggregate reads
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, _, err := Execute(c, "SELECT SUM(f3), COUNT(*) FROM table_a", ExecOptions{}); err != nil {
					errs <- err
					return
				}
			}
		}()
		go func(g int) { // broadcast updates
			defer wg.Done()
			for i := 0; i < iters/4; i++ {
				q := fmt.Sprintf("UPDATE table_a SET f4 = %d WHERE f2 > 500", g)
				if _, _, err := Execute(c, q, ExecOptions{}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestAggregateEmptyWhereRegression pins the evalConds fix: a WHERE that
// matches nothing must aggregate nothing — before the fix, the nil row
// set from ScanWhere made SUM/MIN/MAX/GROUP BY fall back to "all rows".
func TestAggregateEmptyWhereRegression(t *testing.T) {
	db, err := engine.Open()
	if err != nil {
		t.Fatal(err)
	}
	mustExec := func(q string) *Result {
		res, _, err := Execute(shard.Wrap(db), q, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res
	}
	mustExec("CREATE TABLE t (a, b)")
	mustExec("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")

	if got := mustExec("SELECT SUM(b), COUNT(*) FROM t WHERE a = 99"); got.Rows[0][0] != 0 || got.Rows[0][1] != 0 {
		t.Errorf("no-match SUM/COUNT = %v, want [0 0]", got.Rows[0])
	}
	if got := mustExec("SELECT a, SUM(b) FROM t WHERE a = 99 GROUP BY a"); len(got.Rows) != 0 {
		t.Errorf("no-match GROUP BY returned %d groups, want 0", len(got.Rows))
	}
	if _, _, err := Execute(shard.Wrap(db), "SELECT MIN(b) FROM t WHERE a = 99", ExecOptions{}); err == nil {
		t.Error("no-match MIN succeeded, want zero-rows error")
	}
	// Sanity: matching WHERE still aggregates.
	if got := mustExec("SELECT SUM(b) FROM t WHERE a > 1"); got.Rows[0][0] != 50 {
		t.Errorf("SUM over matches = %d, want 50", got.Rows[0][0])
	}
}

// TestWhereLessSelectSkipsTombstones: a SELECT without a WHERE hands the
// engine "every live row" instead of a row list, so COUNT(*) and the AVG
// divisor come from the table's live count: after a DELETE each WHERE-less
// statement must answer what the same statement answers with a WHERE every
// row passes, on one shard and on three, down to the empty table.
func TestWhereLessSelectSkipsTombstones(t *testing.T) {
	for _, n := range []int{1, 3} {
		c, err := shard.Open(engine.DualAddress, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		exec := func(q string) (string, error) {
			res, _, err := Execute(c, q, ExecOptions{})
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}
		must := func(q string) string {
			out, err := exec(q)
			if err != nil {
				t.Fatalf("%d shards: %s: %v", n, q, err)
			}
			return out
		}
		must("CREATE TABLE t (a, g, b) CAPACITY 2048")
		var sb strings.Builder
		for a := 0; a < 1500; a++ {
			fmt.Fprintf(&sb, "(%d, %d, %d),", a, a%7, 5*a+1)
		}
		must("INSERT INTO t VALUES " + strings.TrimSuffix(sb.String(), ","))
		for _, del := range []string{"DELETE FROM t WHERE g = 3", "DELETE FROM t WHERE a < 600", "DELETE FROM t"} {
			must(del)
			for _, sel := range []string{
				"SELECT COUNT(*), SUM(b), AVG(b) FROM t",
				"SELECT MIN(b), MAX(a) FROM t",
				"SELECT g, COUNT(*) FROM t%s GROUP BY g",
				"SELECT g, AVG(b) FROM t%s GROUP BY g",
				"SELECT a FROM t%s ORDER BY b DESC LIMIT 3",
				"SELECT a, b FROM t%s LIMIT 4",
			} {
				if !strings.Contains(sel, "%s") {
					sel += "%s"
				}
				bare, bareErr := exec(fmt.Sprintf(sel, ""))
				all, allErr := exec(fmt.Sprintf(sel, " WHERE a >= 0"))
				if bare != all || (bareErr == nil) != (allErr == nil) {
					t.Errorf("%d shards, after %q: %q\n without WHERE: %s %v\n with one every row passes: %s %v",
						n, del, fmt.Sprintf(sel, ""), bare, bareErr, all, allErr)
				}
			}
		}
		if got := must("SELECT COUNT(*), AVG(b) FROM t"); !strings.Contains(got, "0") {
			t.Errorf("%d shards: empty table COUNT/AVG = %s", n, got)
		}
	}
}
