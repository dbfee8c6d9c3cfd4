package sql

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"rcnvm/internal/engine"
	"rcnvm/internal/shard"
)

// openKV returns a fresh single DB with a populated kv(k, grp, val) table.
func openKV(t testing.TB) *engine.DB {
	t.Helper()
	db, err := engine.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Execute(shard.Wrap(db), "CREATE TABLE kv (k, grp, val) CAPACITY 1024", ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, _, err := Execute(shard.Wrap(db), fmt.Sprintf("INSERT INTO kv VALUES (%d, %d, %d)", i, i%4, i*10), ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestPlanCacheShapeKey pins the normalization contract: statements that
// differ only in integer literals share one cache entry; statements that
// differ in structure, identifiers or operators do not.
func TestPlanCacheShapeKey(t *testing.T) {
	sameShape := [][2]string{
		{"SELECT val FROM kv WHERE k = 1", "SELECT val FROM kv WHERE k = 2"},
		{"SELECT val FROM kv WHERE k = 1 LIMIT 5", "SELECT val FROM kv WHERE k = 9 LIMIT 100"},
		{"INSERT INTO kv VALUES (1, 2, 3)", "INSERT INTO kv VALUES (7, 8, 9)"},
		{"UPDATE kv SET val = 5 WHERE k = 1", "UPDATE kv SET val = 50 WHERE k = 10"},
		{"DELETE FROM kv WHERE val > 100", "DELETE FROM kv WHERE val > 5"},
	}
	for _, pair := range sameShape {
		pc := NewPlanCache(0)
		if _, err := pc.Parse(pair[0]); err != nil {
			t.Fatalf("%s: %v", pair[0], err)
		}
		if _, err := pc.Parse(pair[1]); err != nil {
			t.Fatalf("%s: %v", pair[1], err)
		}
		hits, misses, _ := pc.Counters()
		if hits != 1 || misses != 1 {
			t.Errorf("%q vs %q: want 1 hit / 1 miss (shared shape), got %d/%d",
				pair[0], pair[1], hits, misses)
		}
	}
	differentShape := [][2]string{
		{"SELECT val FROM kv WHERE k = 1", "SELECT grp FROM kv WHERE k = 1"},
		{"SELECT val FROM kv WHERE k = 1", "SELECT val FROM kv WHERE k > 1"},
		{"SELECT val FROM kv WHERE k = 1", "SELECT val FROM kv WHERE grp = 1"},
		{"SELECT val FROM kv", "SELECT val FROM kv LIMIT 5"},
		{"INSERT INTO kv VALUES (1, 2, 3)", "INSERT INTO kv VALUES (1, 2, 3), (4, 5, 6)"},
	}
	for _, pair := range differentShape {
		pc := NewPlanCache(0)
		if _, err := pc.Parse(pair[0]); err != nil {
			t.Fatalf("%s: %v", pair[0], err)
		}
		if _, err := pc.Parse(pair[1]); err != nil {
			t.Fatalf("%s: %v", pair[1], err)
		}
		hits, _, _ := pc.Counters()
		if hits != 0 {
			t.Errorf("%q vs %q: distinct shapes must not share an entry (got %d hits)",
				pair[0], pair[1], hits)
		}
	}
}

// TestPlanCacheParseEquivalence: for a spread of statements, the cached
// parse (template hit, literal rebind) must produce an AST deeply equal to
// a fresh parse — including the parameterization edge cases (LIMIT 0,
// repeated literals, operators).
func TestPlanCacheParseEquivalence(t *testing.T) {
	srcs := []string{
		"SELECT val FROM kv WHERE k = 1",
		"SELECT val FROM kv WHERE k = 2",
		"SELECT * FROM kv WHERE grp = 3 AND val >= 10 LIMIT 7",
		"SELECT * FROM kv WHERE grp = 3 AND val >= 99 LIMIT 1",
		"SELECT * FROM kv LIMIT 0",
		"SELECT SUM(val), COUNT(*) FROM kv WHERE grp = 2",
		"INSERT INTO kv VALUES (100, 1, 2)",
		"INSERT INTO kv VALUES (101, 1, 1)",
		"UPDATE kv SET val = 7, grp = 7 WHERE k = 7",
		"UPDATE kv SET val = 8, grp = 0 WHERE k = 9",
		"DELETE FROM kv WHERE val < 5",
		"DELETE FROM kv WHERE val < 500",
	}
	pc := NewPlanCache(0)
	for round := 0; round < 2; round++ { // second round exercises hits
		for _, src := range srcs {
			want, err := Parse(src)
			if err != nil {
				t.Fatalf("Parse(%q): %v", src, err)
			}
			got, err := pc.Parse(src)
			if err != nil {
				t.Fatalf("cached Parse(%q): %v", src, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("round %d: cached Parse(%q) = %#v, want %#v", round, src, got, want)
			}
		}
	}
	if hits, _, _ := pc.Counters(); hits == 0 {
		t.Fatal("second round produced no cache hits")
	}
}

// TestPlanCacheCachedResultsIdentical runs the same mutation+query
// workload on two identical databases — one through the plan cache, one
// through plain parses — and requires deeply equal results statement by
// statement.
func TestPlanCacheCachedResultsIdentical(t *testing.T) {
	workload := []string{
		"INSERT INTO kv VALUES (200, 5, 1)",
		"INSERT INTO kv VALUES (201, 5, 2)",
		"SELECT val FROM kv WHERE k = 200",
		"SELECT val FROM kv WHERE k = 201",
		"UPDATE kv SET val = 99 WHERE k = 200",
		// DDL between cached statements: templates are parse-level, so no
		// schema change can make one stale (round 2: duplicate-table error).
		"CREATE TABLE other (a, b) CAPACITY 64",
		"SELECT SUM(val), COUNT(*) FROM kv WHERE grp = 5",
		"DELETE FROM kv WHERE k = 201",
		"SELECT COUNT(*) FROM kv WHERE grp = 5",
		"SELECT * FROM kv WHERE grp = 1 LIMIT 3",
		"SELECT * FROM kv WHERE grp = 1 LIMIT 0",
		"SELECT bogus FROM nowhere", // error slot: must fail identically
	}
	plain, cached := openKV(t), openKV(t)
	pc := NewPlanCache(0)
	for round := 0; round < 2; round++ {
		for _, src := range workload {
			wantRes, _, wantErr := Execute(shard.Wrap(plain), src, ExecOptions{})
			gotRes, _, gotErr := Execute(shard.Wrap(cached), src, ExecOptions{Plans: pc})
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("round %d %q: err %v vs cached %v", round, src, wantErr, gotErr)
			}
			if wantErr != nil && wantErr.Error() != gotErr.Error() {
				t.Fatalf("round %d %q: err %q vs cached %q", round, src, wantErr, gotErr)
			}
			if !reflect.DeepEqual(wantRes, gotRes) {
				t.Fatalf("round %d %q: result %+v vs cached %+v", round, src, wantRes, gotRes)
			}
		}
	}
}

// TestPlanCacheShardedScatter: the cached scatter path on a 4-shard
// cluster must return exactly what the uncached path returns, statement
// by statement, across repeated shapes.
func TestPlanCacheShardedScatter(t *testing.T) {
	open := func() *shard.Cluster {
		c, err := shard.Open(engine.DualAddress, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := Execute(c, "CREATE TABLE kv (k, grp, val) CAPACITY 1024", ExecOptions{}); err != nil {
			t.Fatal(err)
		}
		return c
	}
	plain, cached := open(), open()
	pc := NewPlanCache(0)
	workload := []string{}
	for i := 0; i < 32; i++ {
		workload = append(workload, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d, %d)", i, i%4, i*10))
	}
	workload = append(workload,
		"SELECT val FROM kv WHERE k = 3",
		"SELECT val FROM kv WHERE k = 17",
		"SELECT SUM(val), COUNT(*) FROM kv WHERE grp = 1",
		"UPDATE kv SET val = 1 WHERE grp = 2",
		"CREATE TABLE other (a, b) CAPACITY 64", // DDL between cached statements
		"SELECT SUM(val), COUNT(*) FROM kv WHERE grp = 2",
		"DELETE FROM kv WHERE k = 3",
		"SELECT COUNT(*) FROM kv",
	)
	for round := 0; round < 2; round++ {
		for _, src := range workload {
			wantRes, _, wantErr := Execute(plain, src, ExecOptions{})
			gotRes, _, gotErr := Execute(cached, src, ExecOptions{Plans: pc})
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("round %d %q: err %v vs cached %v", round, src, wantErr, gotErr)
			}
			if !reflect.DeepEqual(wantRes, gotRes) {
				t.Fatalf("round %d %q: result %+v vs cached %+v", round, src, wantRes, gotRes)
			}
		}
	}
	if hits, _, _ := pc.Counters(); hits == 0 {
		t.Fatal("repeated sharded workload produced no cache hits")
	}
}

// TestPlanCacheEviction: a tiny cache under a rotating set of shapes
// evicts but never corrupts results.
func TestPlanCacheEviction(t *testing.T) {
	pc := NewPlanCache(16) // cleared whenever a 17th shape arrives
	for i := 0; i < 200; i++ {
		// Vary the shape (column name) so entries compete for slots.
		src := fmt.Sprintf("SELECT c%d FROM kv WHERE c%d = %d", i%40, i%40, i)
		want, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pc.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("evicting cache corrupted parse of %q", src)
		}
	}
	if _, _, ev := pc.Counters(); ev == 0 {
		t.Fatal("200 shapes through a 16-entry cache produced no evictions")
	}
}

// TestPlanCacheConcurrent hammers one cache from many goroutines (run
// under -race) mixing hits, misses, rebinds and evictions.
func TestPlanCacheConcurrent(t *testing.T) {
	pc := NewPlanCache(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				src := fmt.Sprintf("SELECT val FROM t%d WHERE k = %d", i%10, i)
				if _, err := pc.Parse(src); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPlanCacheNil: a nil cache is the uncached path.
func TestPlanCacheNil(t *testing.T) {
	var pc *PlanCache
	st, err := pc.Parse("SELECT val FROM kv WHERE k = 1")
	if err != nil || st == nil {
		t.Fatalf("nil cache Parse = %v, %v", st, err)
	}
	if h, m, e := pc.Counters(); h != 0 || m != 0 || e != 0 {
		t.Fatal("nil cache counters must read zero")
	}
}

// BenchmarkPlanCacheHit pins the hot path's allocation contract: a cache
// hit whose literals match the cached template returns the shared
// statement with ZERO allocations (CI's zero-alloc gate greps this).
func BenchmarkPlanCacheHit(b *testing.B) {
	pc := NewPlanCache(0)
	const src = "SELECT val FROM kv WHERE k = 42"
	if _, err := pc.Parse(src); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pc.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCacheRebind measures the hit-with-different-literals path
// (template clone + literal bind), the common OLTP case.
func BenchmarkPlanCacheRebind(b *testing.B) {
	pc := NewPlanCache(0)
	srcs := [2]string{
		"SELECT val FROM kv WHERE k = 42",
		"SELECT val FROM kv WHERE k = 43",
	}
	if _, err := pc.Parse(srcs[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pc.Parse(srcs[1]); err != nil {
			b.Fatal(err)
		}
	}
}
