// Command rcnvm-db is an interactive SQL shell over the functional
// dual-addressable database engine: a thin front to sql.Execute over the
// database as a 1-shard cluster. Statements execute against real data;
// with tracing on, each statement also reports its estimated memory time
// on the RC-NVM timing simulator, both as issued (column accesses) and
// downgraded to conventional row-only accesses.
//
//	$ go run ./cmd/rcnvm-db
//	rcnvm-db> CREATE TABLE person (id, age, salary)
//	rcnvm-db> INSERT INTO person VALUES (1, 30, 1000), (2, 55, 2500)
//	rcnvm-db> .trace on
//	rcnvm-db> SELECT SUM(salary) FROM person WHERE age > 40
//
// Meta commands: .help, .tables, .trace on|off, .counts, .save FILE,
// .demo, .quit (snapshots reload with: rcnvm-db -load FILE)
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"rcnvm/internal/engine"
	"rcnvm/internal/shard"
	"rcnvm/internal/sim"
	"rcnvm/internal/sql"
)

func main() {
	loadFlag := flag.String("load", "", "snapshot file to load at startup")
	flag.Parse()
	db, err := engine.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rcnvm-db:", err)
		os.Exit(1)
	}
	if *loadFlag != "" {
		f, err := os.Open(*loadFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rcnvm-db:", err)
			os.Exit(1)
		}
		err = db.Load(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "rcnvm-db:", err)
			os.Exit(1)
		}
		fmt.Printf("loaded snapshot %s\n", *loadFlag)
	}
	c := shard.Wrap(db)
	tables := []string{}
	tracing := false

	fmt.Println("rcnvm-db — SQL on a dual-addressable (RC-NVM) memory model")
	fmt.Println("type .help for commands, .quit to exit")

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(nil, 1<<20)
	for {
		fmt.Print("rcnvm-db> ")
		if !sc.Scan() {
			// A scanner stops on real read errors (e.g. a line over the
			// 1 MiB buffer) as well as on EOF; only EOF is a clean exit.
			if err := sc.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "rcnvm-db: reading input:", err)
				os.Exit(1)
			}
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "."):
			if quit := meta(c, line, &tracing, tables); quit {
				return
			}
			continue
		}

		// EXPLAIN times itself, so it runs untraced.
		st, _ := sql.Parse(line)
		_, explain := st.(*sql.Explain)
		res, streams, err := sql.Execute(c, line, sql.ExecOptions{Trace: tracing && !explain})
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		if ct, ok := st.(*sql.CreateTable); ok {
			tables = append(tables, ct.Name)
		}
		fmt.Print(res.Format())
		// Untraced, or touching no memory, the statement replays nothing.
		if t, err := sim.Replays.Time(streams, nil, nil, 0); err != nil {
			fmt.Println("trace replay failed:", err)
		} else if t.MemOps > 0 {
			fmt.Printf("-- timing: %.1f us with column accesses, %.1f us row-only (%.1fx)\n",
				float64(t.DualPs)/1e6, float64(t.RowPs)/1e6, t.Speedup)
		}
	}
}

func meta(c *shard.Cluster, line string, tracing *bool, tables []string) bool {
	db := c.Shard(0)
	fields := strings.Fields(line)
	switch fields[0] {
	case ".quit", ".exit":
		return true
	case ".help":
		fmt.Println(`statements: CREATE TABLE t (a, b WIDE 4, ...) [CAPACITY n]
            INSERT INTO t VALUES (1,2,...), ...
            SELECT cols | * | SUM/AVG/MIN/MAX(a) | COUNT(*) FROM t
                   [WHERE a > 5 AND b = 2] [GROUP BY a]
                   [ORDER BY a [DESC]] [LIMIT n]
            SELECT a.x, b.y FROM a JOIN b ON a.k = b.k
            UPDATE t SET a = 1 [WHERE ...] / DELETE FROM t [WHERE ...]
            EXPLAIN [ANALYZE] <statement>
meta:       .tables  .trace on|off  .counts  .save FILE
            .import FILE TABLE  .export TABLE FILE  .demo  .quit`)
	case ".tables":
		if len(tables) == 0 {
			fmt.Println("(no tables)")
		}
		for _, t := range tables {
			fmt.Println(" ", t)
		}
	case ".trace":
		*tracing = len(fields) > 1 && fields[1] == "on"
		fmt.Printf("tracing %v\n", *tracing)
	case ".import":
		if len(fields) < 3 {
			fmt.Println("usage: .import FILE TABLE")
			return false
		}
		tbl, ok := db.Table(fields[2])
		if !ok {
			fmt.Printf("no such table %q\n", fields[2])
			return false
		}
		f, err := os.Open(fields[1])
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		n, err := tbl.ImportCSV(f)
		f.Close()
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Printf("imported %d row(s)\n", n)
	case ".export":
		if len(fields) < 3 {
			fmt.Println("usage: .export TABLE FILE")
			return false
		}
		tbl, ok := db.Table(fields[1])
		if !ok {
			fmt.Printf("no such table %q\n", fields[1])
			return false
		}
		f, err := os.Create(fields[2])
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		err = tbl.ExportCSV(f)
		f.Close()
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Printf("exported to %s\n", fields[2])
	case ".save":
		if len(fields) < 2 {
			fmt.Println("usage: .save FILE")
			return false
		}
		f, err := os.Create(fields[1])
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		err = db.Save(f)
		f.Close()
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Printf("saved snapshot to %s\n", fields[1])
	case ".counts":
		c := db.Mem().Counts()
		fmt.Printf("row reads %d, col reads %d, row writes %d, col writes %d\n",
			c.RowReads, c.ColReads, c.RowWrites, c.ColWrites)
	case ".demo":
		for _, stmt := range []string{
			"CREATE TABLE person (id, age, salary, dept) CAPACITY 4096",
			"INSERT INTO person VALUES (1,30,1000,1),(2,55,2500,2),(3,41,1800,1),(4,25,900,3)",
			"SELECT AVG(salary), COUNT(*) FROM person WHERE age > 28",
		} {
			fmt.Println("rcnvm-db>", stmt)
			res, _, err := sql.Execute(c, stmt, sql.ExecOptions{})
			if err != nil {
				fmt.Println("error:", err)
				return false
			}
			fmt.Print(res.Format())
		}
	default:
		fmt.Println("unknown meta command; try .help")
	}
	return false
}
