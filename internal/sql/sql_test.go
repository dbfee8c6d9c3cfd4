package sql

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rcnvm/internal/engine"
	"rcnvm/internal/shard"
)

func newDB(t *testing.T) *engine.DB {
	t.Helper()
	db, err := engine.Open()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func mustExec(t *testing.T, db *engine.DB, src string) *Result {
	t.Helper()
	res, _, err := Execute(shard.Wrap(db), src, ExecOptions{})
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return res
}

func seed(t *testing.T, db *engine.DB) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE person (id, age, salary, dept) CAPACITY 1024")
	mustExec(t, db, `INSERT INTO person VALUES
		(1, 30, 1000, 1),
		(2, 55, 2500, 2),
		(3, 41, 1800, 1),
		(4, 25,  900, 3),
		(5, 60, 3000, 2)`)
}

func TestCreateInsertSelectStar(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	res := mustExec(t, db, "SELECT * FROM person")
	if len(res.Rows) != 5 || len(res.Columns) != 4 {
		t.Fatalf("select * = %dx%d", len(res.Rows), len(res.Columns))
	}
	if !reflect.DeepEqual(res.Rows[1], []uint64{2, 55, 2500, 2}) {
		t.Fatalf("row 1 = %v", res.Rows[1])
	}
}

func TestSelectWhere(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	res := mustExec(t, db, "SELECT id, salary FROM person WHERE age > 30 AND dept = 2")
	want := [][]uint64{{2, 2500}, {5, 3000}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows = %v, want %v", res.Rows, want)
	}
}

func TestOperators(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	for src, want := range map[string]int{
		"SELECT id FROM person WHERE age = 41":  1,
		"SELECT id FROM person WHERE age != 41": 4,
		"SELECT id FROM person WHERE age <= 30": 2,
		"SELECT id FROM person WHERE age >= 55": 2,
		"SELECT id FROM person WHERE age < 25":  0,
	} {
		if got := len(mustExec(t, db, src).Rows); got != want {
			t.Errorf("%s -> %d rows, want %d", src, got, want)
		}
	}
}

func TestAggregates(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	res := mustExec(t, db, "SELECT SUM(salary), COUNT(*) FROM person WHERE dept = 1")
	if res.Rows[0][0] != 2800 || res.Rows[0][1] != 2 {
		t.Fatalf("aggregates = %v", res.Rows[0])
	}
	res = mustExec(t, db, "SELECT AVG(age) FROM person")
	if res.Floats[0] != (30+55+41+25+60)/5.0 {
		t.Fatalf("avg = %v", res.Floats[0])
	}
	// Formatting shows the float.
	if !strings.Contains(res.Format(), "42.20") {
		t.Fatalf("format missing avg: %q", res.Format())
	}
}

func TestUpdate(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	res := mustExec(t, db, "UPDATE person SET salary = 5000, dept = 9 WHERE age >= 55")
	if res.Affected != 2 {
		t.Fatalf("affected = %d", res.Affected)
	}
	check := mustExec(t, db, "SELECT salary, dept FROM person WHERE dept = 9")
	if len(check.Rows) != 2 || check.Rows[0][0] != 5000 {
		t.Fatalf("post-update rows = %v", check.Rows)
	}
}

func TestJoin(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	mustExec(t, db, "CREATE TABLE dept (did, budget) CAPACITY 16")
	mustExec(t, db, "INSERT INTO dept VALUES (1, 11), (2, 22), (3, 33)")
	res := mustExec(t, db, "SELECT person.id, dept.budget FROM person JOIN dept ON person.dept = dept.did")
	if len(res.Rows) != 5 {
		t.Fatalf("join rows = %d", len(res.Rows))
	}
	// person 4 (dept 3) pairs with budget 33.
	found := false
	for _, r := range res.Rows {
		if r[0] == 4 && r[1] == 33 {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing pair in %v", res.Rows)
	}
	// Reversed ON order also parses.
	res2 := mustExec(t, db, "SELECT dept.budget, person.id FROM person JOIN dept ON dept.did = person.dept")
	if len(res2.Rows) != 5 || res2.Columns[0] != "dept.budget" {
		t.Fatalf("reversed join = %v %v", res2.Columns, res2.Rows)
	}
}

func TestWideColumn(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, "CREATE TABLE c (id, email WIDE 4) CAPACITY 64")
	mustExec(t, db, "INSERT INTO c VALUES (1, 100, 101, 102, 103)")
	res := mustExec(t, db, "SELECT email FROM c")
	if !reflect.DeepEqual(res.Rows[0], []uint64{100, 101, 102, 103}) {
		t.Fatalf("wide select = %v", res.Rows[0])
	}
	if _, _, err := Execute(shard.Wrap(db), "SELECT SUM(email) FROM c", ExecOptions{}); err == nil {
		t.Fatal("SUM over wide field accepted")
	}
	if _, _, err := Execute(shard.Wrap(db), "SELECT id FROM c WHERE email > 5", ExecOptions{}); err == nil {
		t.Fatal("WHERE over wide field accepted")
	}
}

func TestParseErrors(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	for _, src := range []string{
		"",
		"DROP TABLE person",
		"SELECT FROM person",
		"SELECT id FROM",
		"SELECT id FROM person WHERE",
		"SELECT id FROM person WHERE age ! 3",
		"INSERT INTO person (1,2)",
		"CREATE TABLE t (a WIDE 0)",
		"SELECT id FROM person trailing",
		"SELECT person.id FROM person",
		"SELECT COUNT(id) FROM person",
	} {
		if _, _, err := Execute(shard.Wrap(db), src, ExecOptions{}); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

func TestExecErrors(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	for _, src := range []string{
		"SELECT id FROM missing",
		"SELECT nope FROM person",
		"INSERT INTO person VALUES (1, 2)", // wrong arity
		"CREATE TABLE person (x)",          // duplicate
		"UPDATE person SET nope = 1",
		"SELECT a.id, b.x FROM person JOIN missing ON person.id = missing.x",
	} {
		if _, _, err := Execute(shard.Wrap(db), src, ExecOptions{}); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

func TestSemicolonAndCase(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, "create table T (A, B) capacity 8;")
	mustExec(t, db, "insert into T values (7, 8);")
	res := mustExec(t, db, "select a from T where b = 8;")
	if len(res.Rows) != 1 || res.Rows[0][0] != 7 {
		t.Fatalf("case-insensitive query failed: %v", res.Rows)
	}
}

func TestFormat(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	out := mustExec(t, db, "SELECT id, age FROM person WHERE id = 1").Format()
	if !strings.Contains(out, "id") || !strings.Contains(out, "30") || !strings.Contains(out, "(1 row(s))") {
		t.Fatalf("format = %q", out)
	}
	if out := mustExec(t, db, "UPDATE person SET age = 1 WHERE id = 1").Format(); !strings.Contains(out, "1 row(s) affected") {
		t.Fatalf("update format = %q", out)
	}
	if out := mustExec(t, db, "CREATE TABLE z (a)").Format(); !strings.Contains(out, "created table z") {
		t.Fatalf("create format = %q", out)
	}
}

// TestTable2QueriesParse: every Table 2 query shape of the paper is
// expressible.
func TestTable2QueriesParse(t *testing.T) {
	for _, src := range []string{
		"SELECT f3, f4 FROM tablea WHERE f10 > 5",
		"SELECT * FROM tableb WHERE f10 > 5",
		"SELECT SUM(f9) FROM tablea WHERE f10 > 5",
		"SELECT AVG(f1) FROM tableb WHERE f10 > 5",
		"SELECT tablea.f3, tableb.f4 FROM tablea JOIN tableb ON tablea.f9 = tableb.f9",
		"SELECT f3, f4 FROM tablea WHERE f1 > 5 AND f9 < 9",
		"UPDATE tableb SET f3 = 1, f4 = 2 WHERE f10 = 3",
		"SELECT SUM(f2_wide) FROM tablec",
		"SELECT f3, f6, f10 FROM tablea",
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}

func TestDelete(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	res := mustExec(t, db, "DELETE FROM person WHERE dept = 1")
	if res.Affected != 2 {
		t.Fatalf("deleted %d, want 2", res.Affected)
	}
	// Deleted rows vanish from scans and aggregates.
	if got := mustExec(t, db, "SELECT COUNT(*) FROM person WHERE id > 0").Rows[0][0]; got != 3 {
		t.Fatalf("count after delete = %d", got)
	}
	// Full-table delete clears the rest.
	res = mustExec(t, db, "DELETE FROM person")
	if res.Affected != 3 {
		t.Fatalf("full delete affected %d", res.Affected)
	}
	if got := len(mustExec(t, db, "SELECT * FROM person").Rows); got != 0 {
		t.Fatalf("%d rows after full delete", got)
	}
	// Double full-delete affects zero rows.
	if res := mustExec(t, db, "DELETE FROM person"); res.Affected != 0 {
		t.Fatalf("re-delete affected %d", res.Affected)
	}
}

func TestMinMax(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	res := mustExec(t, db, "SELECT MIN(age), MAX(age) FROM person")
	if res.Rows[0][0] != 25 || res.Rows[0][1] != 60 {
		t.Fatalf("min/max = %v", res.Rows[0])
	}
	res = mustExec(t, db, "SELECT MIN(salary) FROM person WHERE dept = 2")
	if res.Rows[0][0] != 2500 {
		t.Fatalf("filtered min = %v", res.Rows[0])
	}
}

func TestGroupBy(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	res := mustExec(t, db, "SELECT dept, SUM(salary) FROM person GROUP BY dept")
	want := [][]uint64{{1, 2800}, {2, 5500}, {3, 900}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("group by = %v, want %v", res.Rows, want)
	}
	res = mustExec(t, db, "SELECT dept, COUNT(*) FROM person WHERE age > 26 GROUP BY dept")
	if !reflect.DeepEqual(res.Rows, [][]uint64{{1, 2}, {2, 2}}) {
		t.Fatalf("filtered group count = %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT dept, AVG(salary) FROM person GROUP BY dept")
	if res.Rows[1][1] != 2750 {
		t.Fatalf("group avg = %v", res.Rows)
	}
	// Malformed GROUP BY shapes are rejected.
	for _, bad := range []string{
		"SELECT SUM(salary) FROM person GROUP BY dept",
		"SELECT age, SUM(salary) FROM person GROUP BY dept",
		"SELECT dept, salary FROM person GROUP BY dept",
		"SELECT dept, MIN(salary) FROM person GROUP BY dept",
	} {
		if _, _, err := Execute(shard.Wrap(db), bad, ExecOptions{}); err == nil {
			t.Errorf("%q: expected error", bad)
		}
	}
}

func TestDeletedRowsExcludedFromJoin(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	mustExec(t, db, "CREATE TABLE dept (did, budget) CAPACITY 16")
	mustExec(t, db, "INSERT INTO dept VALUES (1, 11), (2, 22), (3, 33)")
	mustExec(t, db, "DELETE FROM person WHERE dept = 2")
	res := mustExec(t, db, "SELECT person.id, dept.budget FROM person JOIN dept ON person.dept = dept.did")
	if len(res.Rows) != 3 {
		t.Fatalf("join after delete = %d rows, want 3", len(res.Rows))
	}
}

func TestOrderByAndLimit(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	res := mustExec(t, db, "SELECT id, age FROM person ORDER BY age")
	if res.Rows[0][0] != 4 || res.Rows[4][0] != 5 {
		t.Fatalf("asc order = %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT id FROM person ORDER BY salary DESC LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0] != 5 || res.Rows[1][0] != 2 {
		t.Fatalf("desc limit = %v", res.Rows)
	}
	// ORDER BY a column not in the projection.
	res = mustExec(t, db, "SELECT id FROM person WHERE dept != 3 ORDER BY age ASC")
	if res.Rows[0][0] != 1 {
		t.Fatalf("order by unprojected column = %v", res.Rows)
	}
	// LIMIT without ORDER BY truncates storage order.
	if got := len(mustExec(t, db, "SELECT id FROM person LIMIT 3").Rows); got != 3 {
		t.Fatalf("limit = %d rows", got)
	}
}

func TestGroupByOrderLimit(t *testing.T) {
	db := newDB(t)
	seed(t, db)
	res := mustExec(t, db, "SELECT dept, COUNT(*) FROM person GROUP BY dept ORDER BY dept DESC LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0] != 3 || res.Rows[1][0] != 2 {
		t.Fatalf("group order desc = %v", res.Rows)
	}
	if _, _, err := Execute(shard.Wrap(db), "SELECT dept, COUNT(*) FROM person GROUP BY dept ORDER BY salary", ExecOptions{}); err == nil {
		t.Fatal("ordering a grouped result by non-key accepted")
	}
}

// TestUpdateFailsWhole: an UPDATE whose SET list names an unknown or a wide
// column fails before it writes, so no SET before the bad one is stored,
// on one shard and on three. Every shard's state hashes as it did before
// (its /checksum).
func TestUpdateFailsWhole(t *testing.T) {
	for _, n := range []int{1, 3} {
		c, err := shard.Open(engine.DualAddress, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []string{
			"CREATE TABLE t (id, val, w WIDE 2) CAPACITY 64",
			"INSERT INTO t VALUES (1, 10, 1, 1), (2, 20, 2, 2), (3, 30, 3, 3)",
		} {
			if _, _, err := Execute(c, src, ExecOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		checksums := func() []string {
			var out []string
			for i := 0; i < c.N(); i++ {
				h := sha256.New()
				if err := c.Shard(i).Save(h); err != nil {
					t.Fatal(err)
				}
				out = append(out, fmt.Sprintf("%x", h.Sum(nil)))
			}
			return out
		}
		before := checksums()
		for _, c2 := range []struct{ src, want string }{
			{"UPDATE t SET val = 7, nope = 2 WHERE id = 1", `sql: table "t" has no column "nope"`},
			{"UPDATE t SET val = 7, w = 2", `sql: SET on wide field "w"`},
			{"UPDATE t SET val = 7, w = 2 WHERE id = 99", `sql: SET on wide field "w"`},
		} {
			if _, _, err := Execute(c, c2.src, ExecOptions{}); err == nil || err.Error() != c2.want {
				t.Fatalf("%d shards: %s: err %v, want %q", n, c2.src, err, c2.want)
			}
		}
		if after := checksums(); !slices.Equal(after, before) {
			t.Fatalf("%d shards: a failed UPDATE changed the stored state", n)
		}
		res, _, err := Execute(c, "SELECT id, val FROM t", ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(res.Rows); got != "[[1 10] [2 20] [3 30]]" {
			t.Fatalf("%d shards: rows %s after failed UPDATEs", n, got)
		}
	}
}
