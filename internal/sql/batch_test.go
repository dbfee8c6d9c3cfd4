package sql_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"rcnvm/internal/durable"
	"rcnvm/internal/engine"
	"rcnvm/internal/shard"
	"rcnvm/internal/sql"
)

// batchWorkload is the equivalence workload: DDL, multi-row and point
// inserts, point and broadcast selects, aggregates, joins-free grouping,
// updates, deletes, EXPLAIN ANALYZE of a read and of a write (each must
// capture only its own accesses), and error slots in the middle of the
// stream.
func batchWorkload() []string {
	w := []string{
		"CREATE TABLE kv (k, grp, val) CAPACITY 1024",
	}
	for i := 0; i < 24; i++ {
		w = append(w, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d, %d)", i, i%4, i*10))
	}
	w = append(w,
		"SELECT val FROM kv WHERE k = 7",
		"SELECT nope FROM kv",     // error slot mid-batch
		"SELECT val FROM missing", // another error
		"SELECT * FROM kv WHERE grp = 2 LIMIT 3",
		"SELECT SUM(val), COUNT(*) FROM kv WHERE grp = 1",
		"EXPLAIN ANALYZE SELECT SUM(val), COUNT(*) FROM kv WHERE grp = 1", // captures only itself
		"UPDATE kv SET val = 1 WHERE grp = 3",                             // broadcast write
		"EXPLAIN ANALYZE UPDATE kv SET val = 2 WHERE k = 5",               // logs the inner UPDATE
		"UPDATE kv SET val = 5 WHERE k = 4",                               // point write
		"SELECT SUM(val), COUNT(*) FROM kv WHERE grp = 3",
		"DELETE FROM kv WHERE k = 7",     // point delete
		"DELETE FROM kv WHERE val > 150", // broadcast delete
		"SELECT COUNT(*) FROM kv",
		"CREATE TABLE extra (a, b) CAPACITY 64", // DDL mid-batch
		"INSERT INTO extra VALUES (1, 2)",       // uses the table created above
		"SELECT a FROM extra WHERE b = 2",
		"SELECT MIN(val), MAX(val) FROM kv",
	)
	return w
}

// runSequential is the reference schedule: the same statements one at a
// time through the statement pipeline.
func runSequential(c *shard.Cluster, stmts []string) ([]*sql.Result, []error) {
	results := make([]*sql.Result, len(stmts))
	errs := make([]error, len(stmts))
	for i, src := range stmts {
		results[i], _, errs[i] = sql.Execute(c, src, sql.ExecOptions{})
	}
	return results, errs
}

func openCluster(t testing.TB, n int) *shard.Cluster {
	t.Helper()
	c, err := shard.Open(engine.DualAddress, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sameSlots reports the first statement whose result or error text differs
// between two schedules, or "" when every slot agrees.
func sameSlots(stmts []string, wantRes, gotRes []*sql.Result, wantErrs, gotErrs []error) string {
	if len(gotRes) != len(stmts) || len(gotErrs) != len(stmts) {
		return fmt.Sprintf("%d results / %d errs for %d statements", len(gotRes), len(gotErrs), len(stmts))
	}
	for i := range stmts {
		if fmt.Sprint(wantErrs[i]) != fmt.Sprint(gotErrs[i]) || !reflect.DeepEqual(wantRes[i], gotRes[i]) {
			return fmt.Sprintf("stmt %d %q: sequential (%+v, %v), batch (%+v, %v)",
				i, stmts[i], wantRes[i], wantErrs[i], gotRes[i], gotErrs[i])
		}
	}
	return ""
}

// TestBatchMatchesSequential: for 1 and 4 shards, a batch's results and
// error slots must be deeply identical to the sequential schedule's,
// statement by statement.
func TestBatchMatchesSequential(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			stmts := batchWorkload()
			wantRes, wantErrs := runSequential(openCluster(t, shards), stmts)
			gotRes, gotErrs := sql.ExecBatchSharded(openCluster(t, shards), sql.NewPlanCache(0), stmts)
			if diff := sameSlots(stmts, wantRes, gotRes, wantErrs, gotErrs); diff != "" {
				t.Fatal(diff)
			}
		})
	}
}

// TestBatchSplitsMatchSequential: splitting the same workload into many
// smaller batches (amortization group boundaries land in different
// places) must still reproduce the sequential schedule.
func TestBatchSplitsMatchSequential(t *testing.T) {
	stmts := batchWorkload()
	wantRes, wantErrs := runSequential(openCluster(t, 4), stmts)
	for _, size := range []int{1, 3, 7} {
		c := openCluster(t, 4)
		pc := sql.NewPlanCache(0)
		var gotRes []*sql.Result
		var gotErrs []error
		for lo := 0; lo < len(stmts); lo += size {
			rs, es := sql.ExecBatchSharded(c, pc, stmts[lo:min(lo+size, len(stmts))])
			gotRes = append(gotRes, rs...)
			gotErrs = append(gotErrs, es...)
		}
		if diff := sameSlots(stmts, wantRes, gotRes, wantErrs, gotErrs); diff != "" {
			t.Fatalf("split=%d: %s", size, diff)
		}
	}
}

// FuzzBatchSplits: batchWorkload cut into batches at fuzzed points answers
// what the sequential schedule answers, result for result and error for
// error, on one shard and on three. Each input byte is the length of the
// next batch (1 + byte mod the workload's length); the statements left
// when the bytes run out are one last batch.
func FuzzBatchSplits(f *testing.F) {
	stmts := batchWorkload()
	type schedule struct {
		res  []*sql.Result
		errs []error
	}
	want := make(map[int]schedule)
	for _, n := range []int{1, 3} {
		res, errs := runSequential(openCluster(f, n), stmts)
		want[n] = schedule{res, errs}
	}
	f.Add([]byte{})                            // one batch
	f.Add(bytes.Repeat([]byte{0}, len(stmts))) // every statement alone
	f.Add(bytes.Repeat([]byte{2}, 14))         // batches of 3
	f.Add(bytes.Repeat([]byte{6}, 6))          // batches of 7
	f.Add([]byte{24, 2, 5, 1, 6})
	f.Fuzz(func(t *testing.T, cuts []byte) {
		for _, n := range []int{1, 3} {
			c := openCluster(t, n)
			pc := sql.NewPlanCache(0)
			var gotRes []*sql.Result
			var gotErrs []error
			rest := cuts
			for lo := 0; lo < len(stmts); {
				hi := len(stmts)
				if len(rest) > 0 {
					hi = min(lo+1+int(rest[0])%len(stmts), len(stmts))
					rest = rest[1:]
				}
				rs, es := sql.ExecBatchSharded(c, pc, stmts[lo:hi])
				gotRes = append(gotRes, rs...)
				gotErrs = append(gotErrs, es...)
				lo = hi
			}
			if diff := sameSlots(stmts, want[n].res, gotRes, want[n].errs, gotErrs); diff != "" {
				t.Fatalf("%d shards: %s", n, diff)
			}
		}
	})
}

// TestBatchReadOnlyUsesSharedLock: an all-SELECT batch returns the same
// rows as sequential execution and takes only read locks — it completes
// while a reader holds a shard, where a batch with a write parks until the
// reader leaves. And a batch locks only the shards its statements touch:
// point statements on one shard complete while a writer holds another.
func TestBatchReadOnlyUsesSharedLock(t *testing.T) {
	c := openCluster(t, 4)
	if _, _, err := sql.Execute(c, "CREATE TABLE kv (k, grp, val) CAPACITY 256", sql.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if _, _, err := sql.Execute(c, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d, %d)", i, i%2, i), sql.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	reads := []string{
		"SELECT val FROM kv WHERE k = 3",
		"SELECT COUNT(*) FROM kv",
		"SELECT SUM(val), COUNT(*) FROM kv WHERE grp = 1",
		"SELECT * FROM kv WHERE grp = 0 LIMIT 2",
	}
	wantRes, wantErrs := runSequential(c, reads)
	// batch runs stmts in the background; the returned channel delivers its
	// slots once it got through the lock round.
	batch := func(stmts []string) <-chan []*sql.Result {
		done := make(chan []*sql.Result, 1)
		go func() {
			res, errs := sql.ExecBatchSharded(c, nil, stmts)
			for i, err := range errs {
				if err != nil {
					t.Errorf("%q: %v", stmts[i], err)
				}
			}
			done <- res
		}()
		return done
	}

	c.Shard(1).RLock()
	select {
	case gotRes := <-batch(reads):
		if diff := sameSlots(reads, wantRes, gotRes, wantErrs, make([]error, len(reads))); diff != "" {
			t.Error(diff)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("an all-read batch blocked behind a reader: it did not take the shared lock")
	}
	write := batch([]string{reads[1], "UPDATE kv SET val = 0 WHERE grp = 1"})
	select {
	case <-write:
		t.Error("a batch with a write ran beside a reader: it did not take the exclusive lock")
	case <-time.After(20 * time.Millisecond):
	}
	c.Shard(1).RUnlock()
	<-write

	// Point statements on key k's shard a, a writer inside shard b.
	const k = 3
	a := c.Partition(k)
	b := (a + 1) % c.N()
	c.Shard(b).Lock()
	defer c.Shard(b).Unlock()
	select {
	case res := <-batch([]string{
		fmt.Sprintf("SELECT val FROM kv WHERE k = %d", k),
		fmt.Sprintf("UPDATE kv SET val = 77 WHERE k = %d", k),
		fmt.Sprintf("SELECT val FROM kv WHERE k = %d", k),
	}):
		if got := res[2].Rows; len(got) != 1 || got[0][0] != 77 {
			t.Errorf("point batch on shard %d read %v after its update, want [[77]]", a, got)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("a batch routed to shard %d blocked behind a writer on shard %d: it locked more than its targets", a, b)
	}
}

// TestBatchEmptyAndAllErrors: degenerate batches behave.
func TestBatchEmptyAndAllErrors(t *testing.T) {
	c := openCluster(t, 2)
	rs, es := sql.ExecBatchSharded(c, nil, nil)
	if len(rs) != 0 || len(es) != 0 {
		t.Fatalf("empty batch returned %d/%d slots", len(rs), len(es))
	}
	rs, es = sql.ExecBatchSharded(c, nil, []string{"NOT SQL", "ALSO NOT"})
	if len(rs) != 2 || es[0] == nil || es[1] == nil {
		t.Fatalf("all-error batch: %v %v", rs, es)
	}
}

// TestBatchWALRecoversLikeSequential: the WAL records a multi-statement
// batch writes replay to the state the sequential schedule's records
// replay to. On 4 shards under fsync always, batchWorkload runs once as one
// batch and once a statement at a time; both stores close without a
// checkpoint, so recovery replays every record, and each directory
// recovers into a fresh cluster. Per-shard snapshot bytes, the row
// registry and a probe transcript must agree, and the transcript must be
// the never-crashed cluster's.
func TestBatchWALRecoversLikeSequential(t *testing.T) {
	const shards = 4
	stmts := batchWorkload()
	probes := []string{
		"SELECT * FROM kv",
		"SELECT * FROM kv WHERE k = 4",
		"SELECT grp, COUNT(*) FROM kv GROUP BY grp",
		"SELECT k, val FROM kv ORDER BY val DESC LIMIT 5",
		"SELECT * FROM extra",
	}
	transcript := func(c *shard.Cluster) string {
		var b strings.Builder
		for _, q := range probes {
			res, _, err := sql.Execute(c, q, sql.ExecOptions{})
			if err != nil {
				fmt.Fprintf(&b, "%s -> error: %v\n", q, err)
				continue
			}
			fmt.Fprintf(&b, "%s ->\n%s", q, res.Format())
		}
		return b.String()
	}
	open := func(dir string) (*durable.Store, *shard.Cluster, durable.RecoveryStats) {
		s, err := durable.Open(dir, engine.DualAddress, shards, durable.Options{Fsync: durable.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		c := openCluster(t, shards)
		rs, err := s.Recover(c)
		if err != nil {
			t.Fatal(err)
		}
		return s, c, rs
	}
	type run struct {
		res  []*sql.Result
		errs []error
		live string // the never-crashed cluster's transcript
		c    *shard.Cluster
	}
	play := func(batched bool) run {
		dir := t.TempDir()
		s, c, _ := open(dir)
		var r run
		if batched {
			r.res, r.errs = sql.ExecBatchSharded(c, sql.NewPlanCache(0), stmts)
		} else {
			r.res, r.errs = runSequential(c, stmts)
		}
		r.live = transcript(c)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, c, rs := open(dir)
		r.c = c
		t.Cleanup(func() { s.Close() })
		if rs.Checkpoint || rs.Records == 0 {
			t.Fatalf("batched=%v: recovery replayed %d records (checkpoint %v), want the whole WAL", batched, rs.Records, rs.Checkpoint)
		}
		return r
	}
	seq, bat := play(false), play(true)
	if diff := sameSlots(stmts, seq.res, bat.res, seq.errs, bat.errs); diff != "" {
		t.Fatal(diff)
	}
	for i := 0; i < shards; i++ {
		var a, b bytes.Buffer
		if err := seq.c.Shard(i).Save(&a); err != nil {
			t.Fatal(err)
		}
		if err := bat.c.Shard(i).Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("shard %d: recovered snapshots differ (%d vs %d bytes)", i, a.Len(), b.Len())
		}
	}
	if a, b := seq.c.RegistrySnapshot(), bat.c.RegistrySnapshot(); !reflect.DeepEqual(a, b) {
		t.Errorf("recovered registries differ:\nsequential %+v\nbatch      %+v", a, b)
	}
	for name, r := range map[string]run{"sequential": seq, "batch": bat} {
		if got := transcript(r.c); got != seq.live {
			t.Errorf("%s: recovered transcript differs from the never-crashed one:\n%s\nwant:\n%s", name, got, seq.live)
		}
	}
	if bat.live != seq.live {
		t.Errorf("never-crashed transcripts differ:\nbatch:\n%s\nsequential:\n%s", bat.live, seq.live)
	}
}
