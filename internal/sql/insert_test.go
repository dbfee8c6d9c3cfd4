package sql

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"rcnvm/internal/engine"
	"rcnvm/internal/fault"
	"rcnvm/internal/shard"
)

// insertSrc is an INSERT of n rows of table t (id, w WIDE 2, v) from id
// first on; a row at bad (0-based, -1 for none) is one value short.
func insertSrc(first, n, bad int) string {
	var b strings.Builder
	b.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		id := first + i
		if i == bad {
			fmt.Fprintf(&b, "(%d, %d, %d)", id, 7*id, 11*id)
			continue
		}
		fmt.Fprintf(&b, "(%d, %d, %d, %d)", id, 7*id, 1<<40|id, 11*id)
	}
	return b.String()
}

// TestInsertTracePinned pins what an INSERT writes, as recorded from the
// per-cell append before the block append replaced it: the result or error
// text, the SHA-256 of every shard's recorded stream, each shard's memory
// counters afterwards (row reads/col reads/row writes/col writes) and the
// fault injector's write count. The table's 563-tuple chunks hold their
// first 512 tuples in one page of a column, so the 600-row INSERT after the
// 1-row one crosses a page and then a chunk boundary. The last two INSERTs
// fail midway: a short row, then a full table; the rows before the bad one
// stay stored and recorded. On three shards every row takes the scatter
// path, one append per row on its owner.
func TestInsertTracePinned(t *testing.T) {
	got := make(map[string]string)
	for _, n := range []int{1, 3} {
		c, err := shard.Open(engine.DualAddress, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := Execute(c, "CREATE TABLE t (id, w WIDE 2, v) CAPACITY 9000", ExecOptions{}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			c.Shard(i).EnableFaults(fault.Config{Enabled: true, Seed: 7})
		}
		steps := []struct{ name, src string }{
			{"one", insertSrc(0, 1, -1)},
			{"600", insertSrc(1, 600, -1)},
			{"short", insertSrc(601, 300, 250)},
			{"full", insertSrc(851, 9000*n, -1)}, // past every shard's 9 000 tuples
		}
		for _, st := range steps {
			one := []stmt{{src: st.src}}
			execute(c, one, ExecOptions{Trace: true})
			streams := one[0].streams
			line := "err=" + fmt.Sprint(one[0].err)
			if one[0].err == nil {
				line = fmt.Sprintf("affected=%d", one[0].res.Affected)
			}
			for i, s := range streams {
				db := c.Shard(i)
				m := db.Mem().Counts()
				ops, sum := streamSum(s)
				line += fmt.Sprintf(" tr=%d:%x n=%d/%d/%d/%d f=%d", ops, sum,
					m.RowReads, m.ColReads, m.RowWrites, m.ColWrites, db.Faults().Counts().Writes)
			}
			got[fmt.Sprintf("%d/%s", n, st.name)] = line
		}
	}
	bad := len(goldenInsert) != len(got)
	for name, g := range got {
		if goldenInsert[name] != g {
			bad = true
			t.Errorf("%s:\n got  %q\n want %q", name, g, goldenInsert[name])
		}
	}
	if bad {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			t.Logf("\t%q: %q,", name, got[name])
		}
	}
}

var goldenInsert = map[string]string{
	"1/600":   "affected=600 tr=2400:c88e1b2f0313bd75fdc78c6004f87d51ec680eaef8a81ae03d30d2156a81dc19 n=0/0/2404/0 f=2404",
	"1/full":  "err=sql: row 8150: engine: table full (9000 rows) tr=32596:5621f098619c1054ed3253826e79a9636697f1b502b70d781f92dad317ecc790 n=0/0/36000/0 f=36000",
	"1/one":   "affected=1 tr=4:0c08c245be66e44349b06b6bca9824cda55f3465dc6bffe3dfd17d3e0673853e n=0/0/4/0 f=4",
	"1/short": "err=sql: row 251: engine: tuple needs 4 words, got 3 tr=1000:f476cd32445efd72b8c9cda28b128f208ac553494743730cb4939f420c37eebe n=0/0/3404/0 f=3404",
	"3/600":   "affected=600 tr=832:d93a3de5934ff3b9706ae26ac32ea67ff94fe2723627998c2d4a473c525baecd n=0/0/832/0 f=832 tr=832:d1c8f41f9f783f5f0a8e09d60177251bc76d9723e32771ffc84061d05140db39 n=0/0/836/0 f=836 tr=736:b05e6d447e121bd2232a118d8072ddd8a92ff7b558d5076f96b59537993a6d54 n=0/0/736/0 f=736",
	"3/full":  "err=sql: row 25941: engine: table full (9000 rows) tr=34240:3c5077bf1cec27fded2c2b1c7d1b09975d3377efdb22464e742a1ba6eca72d9b n=0/0/35392/0 f=35392 tr=34620:ceecfb7b43f97703bd674cb772668217a87ddd5213bb174fd8f2b5d6a294461a n=0/0/35772/0 f=35772 tr=34900:ed2439ba74a9b48eb23448638ddcb6637ff812bbbf4eeb76cb774613847bc051 n=0/0/36000/0 f=36000",
	"3/one":   "affected=1 tr=0:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 n=0/0/0/0 f=0 tr=4:0c08c245be66e44349b06b6bca9824cda55f3465dc6bffe3dfd17d3e0673853e n=0/0/4/0 f=4 tr=0:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 n=0/0/0/0 f=0",
	"3/short": "err=sql: row 251: engine: tuple needs 4 words, got 3 tr=320:169dbdb4fcffa743cd2fd2a2708a5f3c192b36026152b58daa059134319d9d07 n=0/0/1152/0 f=1152 tr=316:63f1481612750d6cb48e34bba8da998c95e0834be0dd79b5d5444d9066bb1b45 n=0/0/1152/0 f=1152 tr=364:199fd74254e8300bf30de22a4f344927799cfa2847c57c06c5d3b8d701a41349 n=0/0/1100/0 f=1100",
}

// loadSrc is one of olap_scan's load statements: INSERT rows first …
// first+n-1 of (id, grp = id mod 8, val = 3·id) into t.
func loadSrc(first, n int) string {
	var b strings.Builder
	b.WriteString("INSERT INTO t VALUES ")
	for id := first; id < first+n; id++ {
		if id > first {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, %d)", id, id%8, 3*id)
	}
	return b.String()
}

// TestParseInsertAllocs: a 256-row INSERT parses into one statement, one
// row list and one backing array of values, whatever its length.
func TestParseInsertAllocs(t *testing.T) {
	src := loadSrc(0, 256)
	n := testing.AllocsPerRun(20, func() {
		if _, err := Parse(src); err != nil {
			t.Fatal(err)
		}
	})
	if n > 8 {
		t.Fatalf("Parse of a 256-row INSERT: %v allocations, want <= 8", n)
	}
}

// BenchmarkParse: the parser alone on olap_scan's load statement, and on
// oltp_point's point read without and through a plan cache, whose every
// statement is a hit with a new literal (the rebind the server does).
func BenchmarkParse(b *testing.B) {
	srcs := [2]string{"SELECT val FROM t WHERE id = 41", "SELECT val FROM t WHERE id = 42"}
	b.Run("point/nocache", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Parse(srcs[i%2]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("point/cache", func(b *testing.B) {
		pc := NewPlanCache(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pc.Parse(srcs[i%2]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("insert256", func(b *testing.B) {
		src := loadSrc(0, 256)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkInsert is the ingest path through Execute: rows256 is one of the
// 64 statements that load olap_scan's 16 384-row table, cached1 the 1-row
// INSERT of durable_write through a plan cache, a new literal vector each
// time. A full table is replaced by a fresh one off the clock.
func BenchmarkInsert(b *testing.B) {
	fresh := func(b *testing.B, capacity int) *shard.Cluster {
		b.StopTimer()
		defer b.StartTimer()
		db, err := engine.Open()
		if err != nil {
			b.Fatal(err)
		}
		c := shard.Wrap(db)
		if _, _, err := Execute(c, fmt.Sprintf("CREATE TABLE t (id, grp, val) CAPACITY %d", capacity), ExecOptions{}); err != nil {
			b.Fatal(err)
		}
		return c
	}
	b.Run("rows256", func(b *testing.B) {
		const stmts = 16384 / 256
		srcs := make([]string, stmts)
		for i := range srcs {
			srcs[i] = loadSrc(256*i, 256)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var c *shard.Cluster
		for i := 0; i < b.N; i++ {
			if i%stmts == 0 {
				c = fresh(b, 16384)
			}
			if _, _, err := Execute(c, srcs[i%stmts], ExecOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached1", func(b *testing.B) {
		const capacity = 1 << 16
		srcs := make([]string, 4096)
		for i := range srcs {
			srcs[i] = loadSrc(i, 1)
		}
		pc := NewPlanCache(0)
		b.ReportAllocs()
		b.ResetTimer()
		var c *shard.Cluster
		for i := 0; i < b.N; i++ {
			if i%capacity == 0 {
				c = fresh(b, capacity)
			}
			if _, _, err := Execute(c, srcs[i%len(srcs)], ExecOptions{Plans: pc}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
