package sql

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"rcnvm/internal/engine"
	"rcnvm/internal/shard"
)

// TestLimitZero: LIMIT 0 answers no rows in every SELECT shape, on one
// shard and on three, under the header the statement has without it; it
// parses to Limit 0, apart from no LIMIT (-1) and a LIMIT past MaxInt
// (MaxInt); and the plan cache binds it like any other literal, both into
// a template cached from another LIMIT and as a template of its own.
func TestLimitZero(t *testing.T) {
	var vals []string
	for i := 0; i < 40; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d, %d)", i, i%4, 3*i))
	}
	for _, shards := range []int{1, 3} {
		c, err := shard.Open(engine.DualAddress, shards, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{
			"CREATE TABLE t (id, grp, val) CAPACITY 64",
			"INSERT INTO t VALUES " + strings.Join(vals, ", "),
			"DELETE FROM t WHERE id = 7",
		} {
			if _, _, err := Execute(c, q, ExecOptions{}); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
		for _, src := range []string{
			"SELECT val FROM t",
			"SELECT * FROM t WHERE grp = 1",
			"SELECT id, val FROM t ORDER BY val DESC",
			"SELECT grp, SUM(val) FROM t GROUP BY grp",
			"SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp DESC",
			"SELECT SUM(val), COUNT(*), MIN(id) FROM t WHERE grp < 3",
		} {
			all, _, err := Execute(c, src, ExecOptions{})
			if err != nil || len(all.Rows) == 0 {
				t.Fatalf("%d shards, %s: %d rows, err %v", shards, src, len(all.Rows), err)
			}
			for _, limit := range []int{0, 1} {
				q := fmt.Sprintf("%s LIMIT %d", src, limit)
				res, _, err := Execute(c, q, ExecOptions{})
				if err != nil {
					t.Fatalf("%d shards, %s: %v", shards, q, err)
				}
				if len(res.Rows) != limit || !reflect.DeepEqual(res.Columns, all.Columns) {
					t.Fatalf("%d shards, %s: columns %v, %d rows; want %v, %d rows", shards, q, res.Columns, len(res.Rows), all.Columns, limit)
				}
			}
		}
	}

	for src, want := range map[string]int{
		"SELECT val FROM t LIMIT 0":                    0,
		"SELECT val FROM t":                            noLimit,
		"SELECT val FROM t LIMIT 18446744073709551615": math.MaxInt,
	} {
		st, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.(*Select).Limit; got != want {
			t.Errorf("Parse(%q).Limit = %d, want %d", src, got, want)
		}
	}

	pc := NewPlanCache(0)
	for _, src := range []string{
		"SELECT val FROM t WHERE grp = 1 LIMIT 5",
		"SELECT val FROM t WHERE grp = 1 LIMIT 0", // binds into the LIMIT 5 template
		"SELECT id FROM t LIMIT 0",                // a template of its own
		"SELECT id FROM t LIMIT 0",
		"SELECT id FROM t LIMIT 2",
	} {
		want, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pc.Parse(src)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("cached Parse(%q) = %#v, %v; want %#v", src, got, err, want)
		}
	}
	if hits, misses, _ := pc.Counters(); hits != 3 || misses != 2 {
		t.Fatalf("plan cache: %d hits, %d misses; want 3 and 2", hits, misses)
	}
}
