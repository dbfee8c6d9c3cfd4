package sql

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"rcnvm/internal/engine"
	"rcnvm/internal/fault"
	"rcnvm/internal/funcmem"
	"rcnvm/internal/shard"
)

// fetchCluster is TestFetchTracePinned's database on n shards: t (id, grp,
// w WIDE 2, v) of 1 000 rows with grp 3 deleted, and u (uid, x) of 300,
// each shard with an injector drawing transient errors.
func fetchCluster(t *testing.T, n int) *shard.Cluster {
	t.Helper()
	c, err := shard.Open(engine.DualAddress, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES ")
	for id := 0; id < 1000; id++ {
		if id > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d, %d, %d)", id, id%8, 7*id, 1<<40|id, id*37%1000)
	}
	var ub strings.Builder
	ub.WriteString("INSERT INTO u VALUES ")
	for id := 0; id < 300; id++ {
		if id > 0 {
			ub.WriteString(", ")
		}
		fmt.Fprintf(&ub, "(%d, %d)", 3*id, id*id%997)
	}
	for _, src := range []string{
		"CREATE TABLE t (id, grp, w WIDE 2, v) CAPACITY 1200",
		"CREATE TABLE u (uid, x) CAPACITY 400",
		sb.String(), ub.String(),
		"DELETE FROM t WHERE grp = 3",
	} {
		if _, _, err := Execute(c, src, ExecOptions{}); err != nil {
			t.Fatalf("%.40s: %v", src, err)
		}
	}
	for i := 0; i < n; i++ {
		c.Shard(i).EnableFaults(fault.Config{Enabled: true, Seed: uint64(0xf0 + i), RBER: 2e-5})
	}
	return c
}

// TestFetchTracePinned pins what the statements that read tuples show the
// memory: ORDER BY's key gather, a plain projection and a join's, traced
// on one shard and on three. Each line holds the result's SHA-256 or the
// error text and, per shard, the recorded stream's SHA-256, the Counts
// delta (row reads/col reads/row writes/col writes) and the injector's
// counters. The /unc lines rerun a statement with a double stuck bit in a
// cell it reads on shard 0. The constants were recorded from the per-cell
// reads before the scanner became the only reader.
func TestFetchTracePinned(t *testing.T) {
	steps := []struct {
		name, src string
		table     string // with rows and word: the stuck cell on shard 0, "" for none
		rows      [2]int // the cell's local row on one shard and on three
		word      int
	}{
		{"order", "SELECT id, w, v FROM t WHERE grp < 4 ORDER BY v DESC LIMIT 25", "", [2]int{}, 0},
		{"order/all", "SELECT id FROM t ORDER BY v", "", [2]int{}, 0},
		{"order/where2", "SELECT v, id FROM t WHERE grp = 2 AND v > 500 ORDER BY id DESC", "", [2]int{}, 0},
		{"point", "SELECT v FROM t WHERE id = 77", "", [2]int{}, 0},
		{"project", "SELECT * FROM t WHERE grp = 4", "", [2]int{}, 0},
		{"join", "SELECT t.id, t.w, u.x FROM t JOIN u ON t.id = u.uid", "", [2]int{}, 0},
		// The key of id 81 and of id 25, the first word of w of id 100 and of
		// id 12, x of uid 120 and of uid 72.
		{"order/unc", "SELECT id, w, v FROM t WHERE grp < 4 ORDER BY v DESC LIMIT 25", "t", [2]int{81, 8}, 4},
		{"project/unc", "SELECT * FROM t WHERE grp = 4", "t", [2]int{100, 3}, 2},
		{"join/unc", "SELECT t.id, t.w, u.x FROM t JOIN u ON t.id = u.uid", "u", [2]int{40, 8}, 1},
	}
	got := make(map[string]string)
	for side, n := range []int{1, 3} {
		for _, st := range steps {
			c := fetchCluster(t, n)
			if st.table != "" {
				tbl, _ := c.Shard(0).Table(st.table)
				c.Shard(0).Faults().AddStuck(tbl.CellCoord(st.rows[side], st.word), 2)
			}
			c0 := make([]funcmem.Counts, n)
			for i := range c0 {
				c0[i] = c.Shard(i).Mem().Counts()
			}
			one := []stmt{{src: st.src}}
			execute(c, one, ExecOptions{Trace: true})
			line := "err=" + fmt.Sprint(one[0].err)
			if one[0].err == nil {
				line = fmt.Sprintf("res=%x", sha256.Sum256([]byte(fmt.Sprint(one[0].res.Columns, one[0].res.Rows))))[:20]
			}
			for i, s := range one[0].streams {
				db := c.Shard(i)
				m := db.Mem().Counts()
				ops, sum := streamSum(s)
				f := db.Faults().Counts()
				line += fmt.Sprintf(" tr=%d:%x n=%d/%d/%d/%d f=%d/%d/%d/%d", ops, sum,
					m.RowReads-c0[i].RowReads, m.ColReads-c0[i].ColReads, m.RowWrites-c0[i].RowWrites, m.ColWrites-c0[i].ColWrites,
					f.TransientBits, f.StuckBits, f.Corrected, f.Uncorrectable)
			}
			got[fmt.Sprintf("%d/%s", n, st.name)] = line
		}
	}
	bad := len(goldenFetch) != len(got)
	for name, g := range got {
		if goldenFetch[name] != g {
			bad = true
			t.Errorf("%s:\n got  %q\n want %q", name, g, goldenFetch[name])
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

var goldenFetch = map[string]string{
	"1/join":         "res=ced8a48848da95c9 tr=2223:5159d40cda512fedd2572f578e0b72953b1d5d64522dda786dbf9ddb1236b8aa n=1048/1175/0/0 f=5/0/5/0",
	"1/join/unc":     "err=fault: uncorrectable memory error at ch1 rk0 bk2 sa0 row15 col1 (row read) tr=1319:adf09bae4662929706502e2f3634e5db98a61b8b1004dedfa9f7431e4d478e30 n=144/1175/0/0 f=3/2/3/1",
	"1/order":        "res=90ad60c3b52dbef9 tr=1350:2c93590b45599854736c102774a6eda46d2104f7b6048b8bb988b6889b393433 n=475/875/0/0 f=3/0/3/0",
	"1/order/all":    "res=e1db7bcd226d476b tr=1750:da49dc1e99c51621db050cc9374a97be852bbee55314fc13549ee4789bbc0f3c n=1750/0/0/0 f=0/0/0/0",
	"1/order/unc":    "err=fault: uncorrectable memory error at ch1 rk0 bk0 sa0 row6 col4 (row read) tr=907:19ab2a04ccebe4475fa9ce72980a6c09d7db104af1a619c0c41344db8ff78a4c n=32/875/0/0 f=1/2/1/1",
	"1/order/where2": "res=2f7a5f2e5159afcd tr=1186:fa9a61dd05a4213a6fafc8ed52c90a32df9a5cc8a44bec7fc2be9b571133f08b n=311/875/0/0 f=2/0/2/0",
	"1/point":        "res=6438e03d36c2ee9f tr=876:37c35f44ee106adfbb94ea97aaefdbc4709aac1dac4ea1643955a52f491d16c7 n=1/875/0/0 f=2/0/2/0",
	"1/project":      "res=dd1d70cbf709375d tr=1500:897af6482bc2fe4eb84382b202a257a7a3a20415a08daceb0d37582ffe48f55a n=625/875/0/0 f=2/0/2/0",
	"1/project/unc":  "err=fault: uncorrectable memory error at ch1 rk0 bk0 sa0 row25 col2 (row read) tr=938:6cba14045d2fe9763a41fc8f5910ef80fa94534d1199f441c9b5ed195ceb27d6 n=63/875/0/0 f=1/2/1/1",
	"3/join":         "res=ced8a48848da95c9 tr=783:7d670d530230ac65280de51db995e7fc3a301784f213ff84048b9ba0d547df85 n=384/399/0/0 f=2/0/2/0 tr=712:294da524628229505b83e044e75d9dfec4f45cfa0c004033954eab3ffac52e24 n=320/392/0/0 f=4/0/4/0 tr=728:edde6f74ea48eef2c03ddc83203b815d74246a9b424c95cbf515b12e54682ea7 n=344/384/0/0 f=2/0/2/0",
	"3/join/unc":     "err=fault: uncorrectable memory error at ch0 rk0 bk2 sa0 row8 col1 (row read) tr=431:43f70d164fd3d04751edbed7b970118d717300bb56805adcbbf304db31b49474 n=32/399/0/0 f=2/2/2/1 tr=424:1b0838da98631e653e72de27ebb9d81b8144cccfd1e405370e586dadcbb2d986 n=32/392/0/0 f=3/0/3/0 tr=408:ffec976e2019aea67d60ff05a0e8e7b8850f0fdc394660984f1640728940b9f5 n=24/384/0/0 f=1/0/1/0",
	"3/order":        "res=90ad60c3b52dbef9 tr=435:ba0f2550bc978283ff9be781b874efa43a2e0199bd2ed34a3edd4a87783e6b36 n=148/287/0/0 f=0/0/0/0 tr=477:d96670189055eaf9b5b84a32ffd1877803180159724bebb5b0b16f2e7310fbd2 n=176/301/0/0 f=0/0/0/0 tr=438:51be5091c3a84c92a162ed3d62e67ddafb3dc74448c786d4553c45aeb6a55636 n=151/287/0/0 f=2/0/2/0",
	"3/order/all":    "res=e1db7bcd226d476b tr=574:c758ff0bb2852c4a6d2cbac7fc41117e2a3503ce23faea2204cb97c6b5c98187 n=574/0/0/0 f=2/0/2/0 tr=602:73e7e1a43ee043dd2a27372d826f99fe59d314b6c67950c9979775ce7f9b5ae5 n=602/0/0/0 f=0/0/0/0 tr=574:65d9f45b7ec058c016a2c07c70be57590e0115cf2258563d73508ab7dabb2223 n=574/0/0/0 f=2/0/2/0",
	"3/order/unc":    "err=fault: uncorrectable memory error at ch0 rk0 bk0 sa0 row8 col4 (row read) tr=290:d7b9b9d98550aa85e8160fe12b2fa389f98a81ae40f340bfe7b055d337e839b2 n=3/287/0/0 f=0/2/0/1 tr=433:1ec13b024e224c6ea41ceb9ecd783c3690b28fc244e7a08c12c1320c6bfc9569 n=132/301/0/0 f=0/0/0/0 tr=410:32760c3b78bbaccf65a2d6e22f1c31f7588c9f3fa6983f111495f5df25870f69 n=123/287/0/0 f=1/0/1/0",
	"3/order/where2": "res=2f7a5f2e5159afcd tr=379:6c84b54a1aff5d85aee440267d6e4e550b2aa08f65e0fe32ba893200abd4e60b n=92/287/0/0 f=0/0/0/0 tr=420:fb9b430dd09f8e531dee8db73e17b6bc0a8d3a7b9c75f5d803b1fd029be1909e n=119/301/0/0 f=0/0/0/0 tr=387:7215ef6524f9f61ad89fe9e2ccc1dec88f170af60776bd3056e96fc287c89966 n=100/287/0/0 f=3/0/3/0",
	"3/point":        "res=6438e03d36c2ee9f tr=288:6e603a8511396b3e2414464c8f09fa3d65c9b068d083c52d8229fbba4aa59b52 n=1/287/0/0 f=2/0/2/0 tr=0:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 n=0/0/0/0 f=0/0/0/0 tr=0:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 n=0/0/0/0 f=0/0/0/0",
	"3/project":      "res=dd1d70cbf709375d tr=527:6d7f26fb5430ac490718cb8f446db627ac0e7ec1accd6558678ab27ca311ea5b n=240/287/0/0 f=2/0/2/0 tr=496:2e9e4b5df4fd0d74594f83c0ac5644a79e9cf5ddacfed387e03e9ae6fcf31a35 n=195/301/0/0 f=1/0/1/0 tr=477:d885a091eeb22475f3e34d613fb895f28f026dfc0a97ed743b6b8bd713781163 n=190/287/0/0 f=1/0/1/0",
	"3/project/unc":  "err=fault: uncorrectable memory error at ch0 rk0 bk0 sa0 row3 col2 (row read) tr=290:a42240bf044bf7664c758a5844ca15a624886b25ed36ee83e02246e1297e576d n=3/287/0/0 f=0/2/0/1 tr=306:eef153bbc0daab2dc8fbb6a7f48db8d31307f6325ca8dd3ea834e85a9a17caba n=5/301/0/0 f=0/0/0/0 tr=287:1b79cddb71b3113d941f65fe5bd5419010be7d6249e810f0c6180074f08456dd n=0/287/0/0 f=1/0/1/0",
}
