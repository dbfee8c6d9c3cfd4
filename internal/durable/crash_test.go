package durable

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"rcnvm/internal/engine"
	"rcnvm/internal/shard"
	"rcnvm/internal/sql"
)

// The crash-torture harness. A seeded workload runs against a durable
// cluster up to a seeded kill point; the "crash" abandons the store and
// cluster without any shutdown path (under SyncAlways every
// acknowledged statement is already on disk, exactly the kill -9
// contract), optionally tears the WAL tail, then recovery rebuilds a
// fresh cluster from the directory. The probe transcript of the
// recovered cluster must be byte-identical to a volatile cluster that
// ran the same statement prefix — and after recovery the workload must
// be able to continue as if the crash never happened (same global row
// ids, same registry state, same unstable marks).

const tortureSeed = 20260809

// workload builds the deterministic statement list: inserts (the only
// key source), predicate updates, partition-column rewrites (the
// unstable-routing path), point and range deletes, and statements that
// fail identically everywhere (logged with the failed flag; replay must
// tolerate them failing again).
func workload(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	stmts := []string{"CREATE TABLE kv (k, grp, val) CAPACITY 4096"}
	key := 1
	for len(stmts) < n {
		switch r := rng.Intn(12); {
		case r < 5:
			rows := make([]string, 1+rng.Intn(3))
			for j := range rows {
				rows[j] = fmt.Sprintf("(%d, %d, %d)", key, rng.Intn(8), rng.Intn(1000))
				key++
			}
			stmts = append(stmts, "INSERT INTO kv VALUES "+strings.Join(rows, ", "))
		case r < 8:
			stmts = append(stmts, fmt.Sprintf("UPDATE kv SET val = %d WHERE grp = %d", rng.Intn(1000), rng.Intn(8)))
		case r < 9:
			// Rewrites the partitioning column: rows stop matching their
			// hash placement and the cluster marks the table unstable.
			// Recovery must preserve that mark or point routing diverges.
			stmts = append(stmts, fmt.Sprintf("UPDATE kv SET k = %d WHERE k = %d", 100000+key, 1+rng.Intn(key)))
		case r < 10:
			stmts = append(stmts, fmt.Sprintf("DELETE FROM kv WHERE k = %d", 1+rng.Intn(key)))
		case r < 11:
			stmts = append(stmts, fmt.Sprintf("DELETE FROM kv WHERE val > %d", 970+rng.Intn(29)))
		default:
			stmts = append(stmts, "INSERT INTO missing VALUES (1, 2, 3)")
		}
	}
	return stmts
}

// probes are the read-only queries whose results define state equality.
var probes = []string{
	"SELECT COUNT(*) FROM kv",
	"SELECT SUM(val) FROM kv",
	"SELECT MIN(val), MAX(val) FROM kv",
	"SELECT grp, SUM(val), COUNT(*) FROM kv GROUP BY grp",
	"SELECT * FROM kv WHERE grp = 3 ORDER BY k",
	"SELECT * FROM kv WHERE k < 40 ORDER BY val LIMIT 10",
}

func transcript(t *testing.T, c *shard.Cluster) string {
	t.Helper()
	var b strings.Builder
	for _, q := range probes {
		res, _, err := sql.Execute(c, q, sql.ExecOptions{})
		if err != nil {
			fmt.Fprintf(&b, "%s -> error: %v\n", q, err)
			continue
		}
		fmt.Fprintf(&b, "%s -> cols=%v rows=%v affected=%d msg=%q\n",
			q, res.Columns, res.Rows, res.Affected, res.Message)
	}
	return b.String()
}

// applyAll executes the statements in order, ignoring per-statement
// errors: failures are part of the workload and must reproduce
// identically on every cluster that runs the same prefix.
func applyAll(c *shard.Cluster, stmts []string) {
	for _, s := range stmts {
		_, _, _ = sql.Execute(c, s, sql.ExecOptions{})
	}
}

// baselineCache memoizes volatile-cluster transcripts per (shard count,
// statement prefix).
type baselineCache struct {
	stmts []string
	m     map[[2]int]string
}

func (b *baselineCache) get(t *testing.T, n, i int) string {
	t.Helper()
	k := [2]int{n, i}
	if s, ok := b.m[k]; ok {
		return s
	}
	c, err := shard.Open(engine.DualAddress, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	applyAll(c, b.stmts[:i])
	s := transcript(t, c)
	b.m[k] = s
	return s
}

func newBaselineCache(stmts []string) *baselineCache {
	return &baselineCache{stmts: stmts, m: map[[2]int]string{}}
}

func TestCrashTorture(t *testing.T) {
	stmts := workload(tortureSeed, 90)
	base := newBaselineCache(stmts)
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(tortureSeed + int64(n)))
			points := []int{1, 2, len(stmts)}
			for len(points) < 9 {
				points = append(points, 2+rng.Intn(len(stmts)-1))
			}
			for _, i := range points {
				// A kill point past the midpoint sometimes checkpoints
				// mid-run, so recovery exercises checkpoint + WAL tail.
				withCkpt := i > len(stmts)/2 && rng.Intn(2) == 0
				dir := t.TempDir()
				s, c, _ := openRecovered(t, dir, n)
				if withCkpt {
					applyAll(c, stmts[:i/2])
					if err := s.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					applyAll(c, stmts[i/2:i])
				} else {
					applyAll(c, stmts[:i])
				}
				// Crash: walk away. No Close, no sync, no checkpoint.
				_, c2, rs := openRecovered(t, dir, n)
				if withCkpt && !rs.Checkpoint {
					t.Fatalf("kill point %d: checkpoint written but not recovered (%+v)", i, rs)
				}
				if got, want := transcript(t, c2), base.get(t, n, i); got != want {
					t.Fatalf("kill point %d (ckpt=%v): recovered transcript diverged\n got:\n%s\nwant:\n%s",
						i, withCkpt, got, want)
				}
				// The recovered cluster must continue seamlessly: same
				// global row ids, registry, and unstable marks as a run
				// that never crashed.
				end := min(i+8, len(stmts))
				applyAll(c2, stmts[i:end])
				if got, want := transcript(t, c2), base.get(t, n, end); got != want {
					t.Fatalf("kill point %d: post-recovery workload diverged\n got:\n%s\nwant:\n%s",
						i, got, want)
				}
			}
		})
	}
}

// TestCrashTornTail simulates dying mid-write: a partial frame lands at
// the end of every shard's final segment. Recovery must truncate the
// torn bytes and come back with exactly the acknowledged prefix.
func TestCrashTornTail(t *testing.T) {
	stmts := workload(tortureSeed, 40)
	base := newBaselineCache(stmts)
	partial := appendFrame(nil, encodeStatement(nil, "INSERT INTO kv VALUES (9, 9, 9)", false, false))
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			s, c, _ := openRecovered(t, dir, n)
			applyAll(c, stmts)
			for i := 0; i < n; i++ {
				paths, _, err := s.sortedSegments(i)
				if err != nil {
					t.Fatal(err)
				}
				f, err := os.OpenFile(paths[len(paths)-1], os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(partial[:len(partial)-4]); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}
			_, c2, rs := openRecovered(t, dir, n)
			if rs.TornBytes != int64(n*(len(partial)-4)) {
				t.Fatalf("recovered %d torn bytes, want %d", rs.TornBytes, n*(len(partial)-4))
			}
			if got, want := transcript(t, c2), base.get(t, n, len(stmts)); got != want {
				t.Fatalf("recovered transcript diverged after torn tail\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestCrashMidFinalRecord tears the last acknowledged record itself (a
// crash can leave any prefix of the final write). With one shard the
// recovered state must be exactly one statement shorter.
func TestCrashMidFinalRecord(t *testing.T) {
	stmts := workload(tortureSeed, 30)
	base := newBaselineCache(stmts)
	dir := t.TempDir()
	s, c, _ := openRecovered(t, dir, 1)
	applyAll(c, stmts)
	paths, _, err := s.sortedSegments(0)
	if err != nil {
		t.Fatal(err)
	}
	last := paths[len(paths)-1]
	b, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	// Find where the final frame starts, then cut into it.
	var lastStart int
	for off := 0; off < len(b); {
		payload, _, err := DecodeFrame(b[off:])
		if err != nil {
			t.Fatal(err)
		}
		lastStart = off
		off += frameHeader + len(payload)
	}
	if err := os.Truncate(last, int64(lastStart+5)); err != nil {
		t.Fatal(err)
	}
	_, c2, rs := openRecovered(t, dir, 1)
	if rs.TornBytes != 5 {
		t.Fatalf("recovered %d torn bytes, want 5", rs.TornBytes)
	}
	if got, want := transcript(t, c2), base.get(t, 1, len(stmts)-1); got != want {
		t.Fatalf("recovered transcript diverged after mid-record tear\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestShardCountTranscriptsMatch pins the scatter-gather determinism
// contract the WAL leans on: the same workload prefix produces
// byte-identical transcripts on 1 and 4 shards, so one shard count's
// recovery can be checked against the other's baseline.
func TestShardCountTranscriptsMatch(t *testing.T) {
	stmts := workload(tortureSeed, 60)
	base := newBaselineCache(stmts)
	for _, i := range []int{1, 17, 42, len(stmts)} {
		if one, four := base.get(t, 1, i), base.get(t, 4, i); one != four {
			t.Fatalf("prefix %d: 1-shard and 4-shard transcripts differ\n1:\n%s\n4:\n%s", i, one, four)
		}
	}
}
