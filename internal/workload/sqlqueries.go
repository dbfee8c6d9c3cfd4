package workload

import "fmt"

// This file is the *executable* counterpart of queries.go: where Queries()
// builds access-stream plans for the timing model, SQLQueries() states the
// same Q1..Q15 shapes as real SQL the engine executes end to end. The
// cross-shard equivalence suite and the shard-scaling sweep run these
// statements on clusters of different sizes and demand byte-identical
// results, so both the data and the statement order are fixed and fully
// deterministic.

// SQLQuery is one executable statement of the end-to-end SQL suite.
type SQLQuery struct {
	ID  string
	SQL string
}

// sqlmix is the suite's value generator (splitmix64): field k of row r in
// table t is a pure function of (t, r, k).
func sqlmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sqlVal is field k of row r in table t. Most fields are uniform in
// [0,1000); f16 of table_a is a low-cardinality group key in [0,8).
func sqlVal(table uint64, row, k int) uint64 {
	v := sqlmix(table*0x10001 + uint64(row)*64 + uint64(k))
	if table == 1 && k == 15 { // table_a.f16: GROUP BY key
		return v % 8
	}
	return v % 1000
}

// SQLSetup returns the DDL and load statements for the default suite
// sizes.
func SQLSetup() []string { return SQLSetupRows(240, 180, 60) }

// SQLSetupRows builds the suite's three tables: table_a (16 narrow
// fields), table_b (20 narrow fields) and table_c (a 4-word wide field
// between two narrow ones), loading deterministic values in batched
// INSERTs.
func SQLSetupRows(rowsA, rowsB, rowsC int) []string {
	out := []string{
		"CREATE TABLE table_a (f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12, f13, f14, f15, f16) CAPACITY 4096",
		"CREATE TABLE table_b (f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12, f13, f14, f15, f16, f17, f18, f19, f20) CAPACITY 4096",
		"CREATE TABLE table_c (f1, f2_wide WIDE 4, f3) CAPACITY 1024",
	}
	out = append(out, insertBatches("table_a", 1, rowsA, 16)...)
	out = append(out, insertBatches("table_b", 2, rowsB, 20)...)
	out = append(out, insertBatches("table_c", 3, rowsC, 6)...)
	return out
}

// insertBatches emits INSERTs of up to 24 rows each.
func insertBatches(table string, tid uint64, rows, words int) []string {
	const batch = 24
	var out []string
	for start := 0; start < rows; start += batch {
		end := start + batch
		if end > rows {
			end = rows
		}
		stmt := "INSERT INTO " + table + " VALUES "
		for r := start; r < end; r++ {
			if r > start {
				stmt += ", "
			}
			stmt += "("
			for k := 0; k < words; k++ {
				if k > 0 {
					stmt += ", "
				}
				stmt += fmt.Sprintf("%d", sqlVal(tid, r, k))
			}
			stmt += ")"
		}
		out = append(out, stmt)
	}
	return out
}

// SQLQueries returns the executable suite in its fixed run order.
// Mutations (Q12/Q13, X11, X12, X14) are part of the sequence: later
// statements observe their effects, so the whole ordered transcript must
// match across shard counts, not just individual statements.
func SQLQueries() []SQLQuery {
	return []SQLQuery{
		// The Table 2 shapes, stated as executable SQL.
		{ID: "Q1", SQL: "SELECT f3, f4 FROM table_a WHERE f10 > 800"},
		{ID: "Q2", SQL: "SELECT * FROM table_b WHERE f10 > 980"},
		{ID: "Q3", SQL: "SELECT * FROM table_b WHERE f10 > 100 LIMIT 50"},
		{ID: "Q4", SQL: "SELECT SUM(f9) FROM table_a WHERE f10 > 700"},
		{ID: "Q5", SQL: "SELECT SUM(f9) FROM table_b WHERE f10 > 700"},
		{ID: "Q6", SQL: "SELECT AVG(f1) FROM table_a WHERE f10 > 700"},
		{ID: "Q7", SQL: "SELECT AVG(f1) FROM table_b WHERE f10 > 700"},
		{ID: "Q8", SQL: "SELECT table_a.f3, table_b.f4 FROM table_a JOIN table_b ON table_a.f9 = table_b.f9"},
		{ID: "Q9", SQL: "SELECT table_a.f1, table_b.f1 FROM table_a JOIN table_b ON table_a.f9 = table_b.f9"},
		{ID: "Q10", SQL: "SELECT f3, f4 FROM table_a WHERE f1 > 500 AND f9 < 300"},
		{ID: "Q11", SQL: "SELECT f3, f4 FROM table_a WHERE f1 > 500 AND f2 < 300"},
		{ID: "Q12", SQL: "UPDATE table_b SET f3 = 11, f4 = 22 WHERE f10 = 5"},
		{ID: "Q13", SQL: "UPDATE table_b SET f9 = 7 WHERE f10 = 6"},
		{ID: "Q14", SQL: "SELECT * FROM table_c WHERE f1 > 500 LIMIT 20"},
		{ID: "Q15", SQL: "SELECT f3, f6, f10 FROM table_a"},

		// Extra coverage beyond Table 2.
		{ID: "X1", SQL: "SELECT COUNT(*) FROM table_a"},
		{ID: "X2", SQL: "SELECT MIN(f2), MAX(f2), COUNT(*) FROM table_a WHERE f1 > 200"},
		// X3 regresses the empty-WHERE aggregate bug: a predicate matching
		// nothing must sum nothing, not the whole table.
		{ID: "X3", SQL: "SELECT SUM(f9), COUNT(*) FROM table_a WHERE f1 = 1000001"},
		{ID: "X5", SQL: "SELECT f16, SUM(f9) FROM table_a GROUP BY f16"},
		{ID: "X6", SQL: "SELECT f16, COUNT(*) FROM table_a GROUP BY f16 ORDER BY f16 DESC LIMIT 5"},
		{ID: "X7", SQL: "SELECT f16, AVG(f9) FROM table_a WHERE f1 > 300 GROUP BY f16"},
		{ID: "X8", SQL: "SELECT f1, f2 FROM table_a WHERE f10 < 200 ORDER BY f2 DESC LIMIT 10"},
		{ID: "X9", SQL: "SELECT f1, f16 FROM table_a WHERE f9 < 500 ORDER BY f16 LIMIT 20"},
		{ID: "X10", SQL: "SELECT * FROM table_a WHERE f1 = 123"},
		{ID: "X11", SQL: "UPDATE table_a SET f3 = 999 WHERE f1 = 123"},
		{ID: "X12", SQL: "DELETE FROM table_b WHERE f10 = 999"},
		{ID: "X13", SQL: "SELECT COUNT(*), MIN(f10), MAX(f10) FROM table_b"},
		// X14 rewrites table_a's partitioning column: point routing for
		// table_a is disabled from here on, and X15 must still match the
		// baseline through the broadcast path.
		{ID: "X14", SQL: "UPDATE table_a SET f1 = 5 WHERE f2 = 777"},
		{ID: "X15", SQL: "SELECT f1, f2, f3 FROM table_a WHERE f1 = 5"},
		{ID: "X16", SQL: "SELECT f16, SUM(f2) FROM table_a WHERE f10 >= 500 GROUP BY f16 ORDER BY f16 LIMIT 4"},
	}
}

// SQLErrorQueries returns statements whose *error values* (not results)
// must also match across shard counts.
func SQLErrorQueries() []SQLQuery {
	return []SQLQuery{
		// MIN over an empty match errors in the engine.
		{ID: "E1", SQL: "SELECT MIN(f2) FROM table_a WHERE f1 = 1000001"},
		// Unknown column, unknown table, aggregate mixing.
		{ID: "E2", SQL: "SELECT SUM(nope) FROM table_a"},
		{ID: "E3", SQL: "SELECT * FROM no_such_table"},
		{ID: "E4", SQL: "SELECT f1, SUM(f2) FROM table_a"},
		// GROUP BY shape violations.
		{ID: "E5", SQL: "SELECT f2, SUM(f9) FROM table_a GROUP BY f16"},
		{ID: "E6", SQL: "SELECT f16, MIN(f9) FROM table_a GROUP BY f16"},
		// Wide-field misuse.
		{ID: "E7", SQL: "SELECT SUM(f2_wide) FROM table_c"},
		{ID: "E8", SQL: "SELECT f1 FROM table_c WHERE f2_wide = 3"},
		{ID: "E9", SQL: "SELECT f1 FROM table_c ORDER BY f2_wide"},
		// Join key must be single-word.
		{ID: "E10", SQL: "SELECT table_c.f1, table_c.f3 FROM table_c JOIN table_c ON table_c.f2_wide = table_c.f2_wide"},
		// The earliest failing item's error wins: a MIN/MAX over zero rows
		// before an unknown column reports the empty MIN/MAX.
		{ID: "E11", SQL: "SELECT MIN(f2), SUM(nope) FROM table_a WHERE f10 = 1000001"},
		{ID: "E12", SQL: "SELECT MAX(f2), AVG(nope) FROM table_a WHERE f10 = 1000001"},
	}
}
