package sql

import (
	"fmt"
	"strings"
	"testing"

	"rcnvm/internal/engine"
	"rcnvm/internal/shard"
)

// fuzzCols are the columns a fuzzed SELECT draws from: t's own, a wide one,
// and now and then one t does not have.
var fuzzCols = []string{"a", "g", "b", "a", "g", "b", "w", "nope"}

// fuzzCluster is an n-shard cluster holding t (a, g, b, w WIDE 2): 60 rows,
// a tombstone in every fifth row and after row 50.
func fuzzCluster(f *testing.F, n int) *shard.Cluster {
	c, err := shard.Open(engine.DualAddress, n, 1)
	if err != nil {
		f.Fatal(err)
	}
	var sb strings.Builder
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&sb, "(%d, %d, %d, %d, %d),", i, i%5, i*37%50, i, 3*i)
	}
	for _, q := range []string{
		"CREATE TABLE t (a, g, b, w WIDE 2) CAPACITY 256",
		"INSERT INTO t VALUES " + strings.TrimSuffix(sb.String(), ","),
		"DELETE FROM t WHERE g = 2",
		"DELETE FROM t WHERE a > 50",
	} {
		if _, _, err := Execute(c, q, ExecOptions{}); err != nil {
			f.Fatalf("%s: %v", q, err)
		}
	}
	return c
}

// decodeSelect turns fuzz bytes into a SELECT over t: a GROUP BY shape,
// SELECT *, or one to three items among a column, SUM, AVG, COUNT, MIN and
// MAX; zero to two WHERE conditions; ORDER BY with or without DESC; LIMIT 0
// to 12. Bytes past the end read as zero.
func decodeSelect(data []byte) string {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	col := func() string { return fuzzCols[next()%len(fuzzCols)] }
	item := func(kind int) string {
		switch kind % 6 {
		case 0:
			return col()
		case 3:
			return "COUNT(*)"
		}
		return [...]string{"", "SUM", "AVG", "", "MIN", "MAX"}[kind%6] + "(" + col() + ")"
	}
	var sb strings.Builder
	var group string
	switch shape := next() % 4; shape {
	case 1:
		group = col()
		fmt.Fprintf(&sb, "SELECT %s, %s FROM t", group, item(1+next()%5))
	case 2:
		sb.WriteString("SELECT * FROM t")
	default:
		items := make([]string, 1+next()%3)
		for i := range items {
			items[i] = item(next())
		}
		fmt.Fprintf(&sb, "SELECT %s FROM t", strings.Join(items, ", "))
	}
	for i, n := 0, next()%3; i < n; i++ {
		word := " AND"
		if i == 0 {
			word = " WHERE"
		}
		c, op, v := col(), []string{"=", "!=", "<", "<=", ">", ">="}[next()%6], next()
		if v == 255 {
			v = 1000001
		} else {
			v %= 64
		}
		fmt.Fprintf(&sb, "%s %s %s %d", word, c, op, v)
	}
	if group != "" {
		fmt.Fprintf(&sb, " GROUP BY %s", group)
	}
	if o := next() % 3; o > 0 {
		fmt.Fprintf(&sb, " ORDER BY %s", col())
		if o == 2 {
			sb.WriteString(" DESC")
		}
	}
	if l := next(); l%4 == 0 {
		fmt.Fprintf(&sb, " LIMIT %d", (1+l/4)%13)
	}
	return sb.String()
}

// FuzzSelectShards: a SELECT over a table with tombstones answers the same
// Format() or error text on one shard and on three.
func FuzzSelectShards(f *testing.F) {
	one, three := fuzzCluster(f, 1), fuzzCluster(f, 3)
	e11 := []byte{0, 1, 4, 2, 1, 7, 1, 2, 0, 255, 0, 1}
	if got, want := decodeSelect(e11), "SELECT MIN(b), SUM(nope) FROM t WHERE b = 1000001"; got != want {
		f.Fatalf("E11 seed decodes to %q, want %q", got, want)
	}
	f.Add(e11)
	f.Add([]byte{1, 1, 1, 2, 4, 40, 2, 8})
	f.Add([]byte{2, 1, 0, 3, 20, 2, 2, 4})
	f.Add([]byte{3, 2, 5, 2, 3, 0, 1, 0, 4, 30})
	// LIMIT 0 over a projection, a GROUP BY and an aggregate.
	limit0 := []byte{0, 1, 0, 0, 0, 2, 0, 1, 1, 48}
	if got, want := decodeSelect(limit0), "SELECT a, b FROM t ORDER BY g LIMIT 0"; got != want {
		f.Fatalf("LIMIT 0 seed decodes to %q, want %q", got, want)
	}
	f.Add(limit0)
	f.Add([]byte{1, 1, 0, 2, 0, 0, 100})
	f.Add([]byte{3, 0, 3, 1, 0, 2, 30, 0, 152})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := decodeSelect(data)
		render := func(c *shard.Cluster) string {
			res, _, err := Execute(c, src, ExecOptions{})
			if err != nil {
				return "error: " + err.Error() + "\n"
			}
			return res.Format()
		}
		if a, b := render(one), render(three); a != b {
			t.Fatalf("%s\n--- 1 shard\n%s--- 3 shards\n%s", src, a, b)
		}
	})
}
