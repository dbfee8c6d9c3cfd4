package server

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"rcnvm/internal/engine"
	"rcnvm/internal/fault"
	"rcnvm/internal/shard"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenCase is one request line sent as a TCP line to one server and as
// a POST /query body to its twin. around, when set, is called with the
// server about to answer and returns the undo: it puts the server into the
// state the case needs (overloaded, draining, not ready, a statement held
// at its shard lock).
type goldenCase struct {
	name   string
	line   string
	around func(s *Server) (undo func())
}

// goldenRig is one server configuration: each case runs against two
// servers built alike, one over TCP and one over HTTP, so both see the
// same statements in the same order.
type goldenRig struct {
	name  string
	opts  Options
	setup func(t *testing.T, s *Server, db *engine.DB) // seed data, arm faults
	cases []goldenCase
}

// goldenSeed creates t (id, grp, val) with 16 rows, grp = id mod 4, on
// the cluster directly, as a replica gets its data.
func goldenSeed(t *testing.T, s *Server, _ *engine.DB) {
	var ins strings.Builder
	ins.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < 16; i++ {
		if i > 0 {
			ins.WriteByte(',')
		}
		fmt.Fprintf(&ins, "(%d,%d,%d)", i, i%4, 5*i+1)
	}
	for _, src := range []string{"CREATE TABLE t (id, grp, val) CAPACITY 64", ins.String()} {
		if _, err := execOnCluster(s, src); err != nil {
			t.Fatal(err)
		}
	}
}

func q(id int, query string) string { return fmt.Sprintf(`{"id":%d,"query":%q}`, id, query) }

func goldenRigs() []goldenRig {
	return []goldenRig{
		{name: "main", setup: goldenSeed, cases: []goldenCase{
			{name: "point", line: q(1, "SELECT val FROM t WHERE id = 7")},
			{name: "point, no id", line: `{"query":"SELECT val FROM t WHERE id = 3"}`},
			{name: "point, every column", line: q(2, "SELECT * FROM t WHERE id = 5")},
			{name: "sum count", line: q(3, "SELECT SUM(val), COUNT(*) FROM t WHERE grp = 1")},
			{name: "avg", line: q(4, "SELECT AVG(val) FROM t WHERE val > 20")},
			{name: "avg, fraction", line: q(5, "SELECT AVG(val), COUNT(*) FROM t WHERE grp = 3")},
			{name: "group by", line: q(6, "SELECT grp, SUM(val) FROM t GROUP BY grp")},
			{name: "order by limit", line: q(7, "SELECT id, val FROM t WHERE grp = 2 ORDER BY val DESC LIMIT 3")},
			{name: "no rows", line: q(8, "SELECT val FROM t WHERE id = 99")},
			{name: "insert", line: q(9, "INSERT INTO t VALUES (16, 0, 81), (17, 1, 86)")},
			{name: "update", line: q(10, "UPDATE t SET val = 7 WHERE id = 2")},
			{name: "update, none", line: q(11, "UPDATE t SET val = 7 WHERE id = 1000")},
			{name: "delete", line: q(12, "DELETE FROM t WHERE id = 17")},
			{name: "create", line: q(13, "CREATE TABLE u (a, b) CAPACITY 16")},
			{name: "explain", line: q(14, "EXPLAIN SELECT SUM(val) FROM t WHERE grp = 2")},
			{name: "explain analyze", line: q(15, "EXPLAIN ANALYZE SELECT SUM(val) FROM t WHERE grp = 2")},
			{name: "batch, a failing slot", line: `{"id":16,"batch":["SELECT val FROM t WHERE id = 4","SELECT nope FROM t","UPDATE t SET val = 9 WHERE id = 4","SELECT AVG(val) FROM t WHERE id < 4"]}`},
			{name: "timed", line: `{"id":17,"query":"SELECT SUM(val), COUNT(*) FROM t WHERE grp = 1","timing":true}`},
			{name: "timed update", line: `{"id":18,"query":"UPDATE t SET val = 3 WHERE grp = 3","timing":true}`},
			{name: "traced", line: `{"id":19,"query":"SELECT val FROM t WHERE id = 9","trace":true}`},
			{name: "sql_error", line: q(20, "SELECT val FROM missing")},
			{name: "sql_error, html", line: q(21, "SELECT val FROM <b>")},
			{name: "sql_error, html ampersand", line: q(21, "SELECT val FROM t WHERE id < &")},
			{name: "sql_error, non-ASCII", line: `{"id":22,"query":"SELECT caf\u00e9 FROM t"}`},
			{name: "sql_error, control bytes", line: `{"id":22,"query":"SELECT \"x\"\t\u0001\u2028 FROM t"}`},
			{name: "sql_error, invalid UTF-8", line: "{\"id\":22,\"query\":\"SELECT \xff\xfe FROM t\"}"},
			{name: "empty query", line: `{"id":23,"query":""}`},
			{name: "null", line: `null`},
			{name: "batch with query", line: `{"id":24,"batch":["SELECT val FROM t"],"query":"SELECT val FROM t"}`},
			{name: "batch with timing", line: `{"id":25,"batch":["SELECT val FROM t"],"timing":true}`},
			{name: "bad json", line: `not json`},
			{name: "bad json, truncated", line: `{"id":26,"query":"SELECT val FROM t`},
			{name: "bad json, white space", line: `   `},
			{name: "bad json, trailing bytes", line: `{"id":27,"query":"SELECT COUNT(*) FROM t"} {}`},
			{name: "bad json, query not a string", line: `{"id":28,"query":7}`},
			{name: "bad json, negative id", line: `{"id":-1,"query":"SELECT COUNT(*) FROM t"}`},
			{name: "bad json, id exponent", line: `{"id":1e2,"query":"SELECT COUNT(*) FROM t"}`},
			{name: "differently-cased keys", line: `{"ID":29,"Query":"SELECT COUNT(*) FROM t","TIMING":false}`},
			{name: "duplicate keys", line: `{"id":30,"query":"SELECT COUNT(*) FROM t","id":31,"query":"SELECT SUM(id) FROM t"}`},
			{name: "unknown key", line: `{"id":32,"query":"SELECT COUNT(*) FROM t","extra":[1,{"a":null}]}`},
			{name: "escaped query", line: `{"id":33,"query":"SELECT\u0020val FROM t WHERE id = \u0031"}`},
			{name: "white space", line: " { \"id\" : 34 ,\t\"query\" : \"SELECT val FROM t WHERE id = 6\" , \"timing\" : false } "},
			{name: "overloaded", line: q(35, "SELECT COUNT(*) FROM t"), around: func(s *Server) func() {
				n := int64(s.opts.Workers + s.opts.Queue)
				s.admitted.Add(n)
				return func() { s.admitted.Add(-n) }
			}},
			{name: "shutting_down", line: q(36, "SELECT COUNT(*) FROM t"), around: func(s *Server) func() {
				s.front.mu.Lock()
				s.front.shutting = true
				s.front.mu.Unlock()
				return func() {
					s.front.mu.Lock()
					s.front.shutting = false
					s.front.mu.Unlock()
				}
			}},
			{name: "not_ready", line: q(37, "SELECT COUNT(*) FROM t"), around: func(s *Server) func() {
				s.SetNotReady("wal recovery")
				return s.SetReady
			}},
			{name: "after the rejections", line: q(38, "SELECT COUNT(*), SUM(val) FROM t")},
			// Last: over TCP it ends the session.
			{name: "over-long line", line: `{"id":39,"query":"SELECT COUNT(*) FROM t` + strings.Repeat(" ", maxLineBytes) + `"}`},
		}},
		{name: "deadline", cases: []goldenCase{
			{name: "deadline_exceeded", line: `{"id":1,"query":"SELECT COUNT(*) FROM t","timeout_ms":5}`, around: holdShards},
		}},
		{name: "replica", opts: Options{ReadOnly: true}, setup: goldenSeed, cases: []goldenCase{
			{name: "read", line: q(1, "SELECT val FROM t WHERE id = 7")},
			{name: "read_only_replica", line: q(2, "INSERT INTO t VALUES (20, 0, 0)")},
			{name: "read_only_replica, batch", line: `{"id":3,"batch":["SELECT val FROM t","DELETE FROM t"]}`},
		}},
		{name: "faulty", setup: func(t *testing.T, s *Server, db *engine.DB) {
			goldenSeed(t, s, db)
			db.EnableFaults(fault.Config{Enabled: true, Seed: 42})
			tbl, _ := db.Table("t")
			db.Faults().AddStuck(tbl.CellCoord(3, 2), 2)
		}, cases: []goldenCase{
			{name: "clean read", line: q(1, "SELECT SUM(id) FROM t")},
			{name: "memory_error", line: q(2, "SELECT SUM(val) FROM t")},
		}},
	}
}

// traceTimes matches the wall-clock numbers of a Chrome trace document.
var traceTimes = regexp.MustCompile(`"(ts|dur)":[0-9.e+-]+`)

// TestRepliesGolden pins the bytes a client receives for every statement
// kind and every error code a server raises in process: each reply line of
// a TCP session and each POST /query status, content type and body. Only a
// trace document's wall-clock times are masked.
func TestRepliesGolden(t *testing.T) {
	var out bytes.Buffer
	for _, rig := range goldenRigs() {
		tcpSrv, tcpAddr, _ := goldenServer(t, rig)
		httpSrv, _, httpAddr := goldenServer(t, rig)
		conn, err := net.Dial("tcp", tcpAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		for _, c := range rig.cases {
			fmt.Fprintf(&out, "## %s: %s\n", rig.name, c.name)
			if len(c.line) < 256 {
				fmt.Fprintf(&out, "> %s\n", c.line)
			} else {
				fmt.Fprintf(&out, "> %.64s... (%d bytes)\n", c.line, len(c.line))
			}

			undo := func() {}
			if c.around != nil {
				undo = c.around(tcpSrv)
			}
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := conn.Write([]byte(c.line + "\n")); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			reply, err := r.ReadBytes('\n')
			if err != nil {
				t.Fatalf("%s: tcp reply: %v", c.name, err)
			}
			undo()
			out.WriteString("tcp ")
			out.Write(traceTimes.ReplaceAll(reply, []byte(`"$1":T`)))

			if c.around != nil {
				undo = c.around(httpSrv)
			}
			resp, err := http.Post("http://"+httpAddr+"/query", "application/json", strings.NewReader(c.line))
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s: http body: %v", c.name, err)
			}
			undo()
			fmt.Fprintf(&out, "http %d %s ", resp.StatusCode, resp.Header.Get("Content-Type"))
			out.Write(traceTimes.ReplaceAll(body, []byte(`"$1":T`)))
		}
	}
	golden := filepath.Join("testdata", "replies.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(got) || i < len(wantLines); i++ {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("replies differ from %s at line %d:\ngot  %q\nwant %q", golden, i+1, g, w)
			}
		}
	}
}

// goldenServer builds one server of rig on a fresh single-shard engine,
// listening on TCP and HTTP.
func goldenServer(t *testing.T, rig goldenRig) (*Server, string, string) {
	t.Helper()
	db, err := engine.Open()
	if err != nil {
		t.Fatal(err)
	}
	s := NewCluster(shard.Wrap(db), rig.opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	if rig.setup != nil {
		rig.setup(t, s, db)
	}
	tcp, err := s.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpAddr, err := s.ListenHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return s, tcp.String(), httpAddr.String()
}
