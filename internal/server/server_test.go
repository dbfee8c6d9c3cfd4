package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"rcnvm/internal/engine"
	"rcnvm/internal/shard"
)

// newTestServer starts a server with a TCP front end on a loopback port.
func newTestServer(t testing.TB, opts Options) (*Server, string) {
	t.Helper()
	db, err := engine.Open()
	if err != nil {
		t.Fatal(err)
	}
	s := NewCluster(shard.Wrap(db), opts)
	addr, err := s.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, addr.String()
}

func mustQuery(t *testing.T, c *Client, q string) *Response {
	t.Helper()
	resp, err := c.Query(q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return resp
}

func TestTCPQueryRoundTrip(t *testing.T) {
	_, addr := newTestServer(t, Options{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	mustQuery(t, c, "CREATE TABLE person (id, age, salary) CAPACITY 1024")
	r := mustQuery(t, c, "INSERT INTO person VALUES (1,30,1000),(2,55,2500),(3,41,1800)")
	if r.Affected != 3 {
		t.Fatalf("affected = %d, want 3", r.Affected)
	}
	r = mustQuery(t, c, "SELECT SUM(salary) FROM person WHERE age > 35")
	if len(r.Rows) != 1 || r.Rows[0][0] != 4300 {
		t.Fatalf("sum = %v, want [[4300]]", r.Rows)
	}

	// SQL errors arrive as typed wire errors, and the session survives.
	if _, err := c.Query("SELECT nope FROM missing"); err == nil {
		t.Fatal("want sql error for missing table")
	} else {
		var we *WireError
		if !errors.As(err, &we) || we.Code != CodeSQL {
			t.Fatalf("got %v, want WireError with code %q", err, CodeSQL)
		}
	}
	r = mustQuery(t, c, "SELECT COUNT(*) FROM person")
	if r.Rows[0][0] != 3 {
		t.Fatalf("count = %v, want 3", r.Rows[0][0])
	}
}

func TestTimingAttribution(t *testing.T) {
	_, addr := newTestServer(t, Options{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	mustQuery(t, c, "CREATE TABLE w (id, v) CAPACITY 4096")
	var ins bytes.Buffer
	ins.WriteString("INSERT INTO w VALUES ")
	for i := 0; i < 256; i++ {
		if i > 0 {
			ins.WriteByte(',')
		}
		fmt.Fprintf(&ins, "(%d,%d)", i, i%7)
	}
	mustQuery(t, c, ins.String())

	resp, err := c.QueryTimed("SELECT SUM(v) FROM w")
	if err != nil {
		t.Fatal(err)
	}
	tm := resp.Timing
	if tm == nil {
		t.Fatal("timed query returned no timing")
	}
	if tm.MemOps == 0 || tm.DualPs <= 0 || tm.RowPs <= 0 || tm.Speedup <= 0 {
		t.Fatalf("implausible timing: %+v", tm)
	}
	// A pure column scan is the case RC-NVM exists for: the dual-address
	// replay must not be slower than the row-only downgrade.
	if tm.RowPs < tm.DualPs {
		t.Fatalf("row-only replay faster than dual (%d < %d ps)", tm.RowPs, tm.DualPs)
	}
	// An untimed query reports no timing.
	if resp := mustQuery(t, c, "SELECT SUM(v) FROM w"); resp.Timing != nil {
		t.Fatal("untimed query returned timing")
	}
}

func TestHTTPQueryAndStats(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	haddr, err := s.ListenHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + haddr.String()

	post := func(q string) *Response {
		t.Helper()
		body, _ := json.Marshal(Request{Query: q})
		hr, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		resp := new(Response)
		if err := json.NewDecoder(hr.Body).Decode(resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if r := post("CREATE TABLE h (a, b)"); r.Error != nil {
		t.Fatalf("create: %v", r.Error)
	}
	if r := post("INSERT INTO h VALUES (1,2),(3,4)"); r.Affected != 2 {
		t.Fatalf("insert affected = %d", r.Affected)
	}
	if r := post("SELECT a, b FROM h"); len(r.Rows) != 2 {
		t.Fatalf("select rows = %v", r.Rows)
	}
	if r := post("DROP TABLE h"); r.Error == nil || r.Error.Code != CodeSQL {
		t.Fatalf("unsupported statement: got %+v, want %s", r.Error, CodeSQL)
	}

	m := parseMetrics(t, getBody(t, base+"/metrics"))
	if m["rcnvm_server_queries_total"] < 4 {
		t.Fatalf("queries_total = %v, want >= 4", m["rcnvm_server_queries_total"])
	}
	if m["rcnvm_server_query_errors_total"] < 1 {
		t.Fatalf("query_errors_total = %v, want >= 1", m["rcnvm_server_query_errors_total"])
	}
	if n, p99 := m["rcnvm_server_query_latency_seconds_count"], m[`rcnvm_server_query_latency_seconds_quantile{quantile="0.99"}`]; n < 4 || p99 <= 0 {
		t.Fatalf("latency implausible: count %v, p99 %v s", n, p99)
	}
	if m["rcnvm_server_pool_workers"] < 1 {
		t.Fatalf("pool_workers = %v", m["rcnvm_server_pool_workers"])
	}
	if m["rcnvm_server_rows_returned_total"] < 2 {
		t.Fatalf("rows_returned_total = %v, want >= 2", m["rcnvm_server_rows_returned_total"])
	}
}

// TestOverloadRejection saturates a 1-worker/1-slot pool and checks that
// excess requests get the typed overloaded error instead of queueing.
func TestOverloadRejection(t *testing.T) {
	s, addr := newTestServer(t, Options{Workers: 1, Queue: 1})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustQuery(t, c, "CREATE TABLE o (x)")
	release := holdShards(s)
	defer release()

	const n = 8
	var wg sync.WaitGroup
	var ok, overloaded int64
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := s.Do(&Request{Query: "SELECT COUNT(*) FROM o"})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case resp.Error == nil:
				ok++
			case resp.Error.Code == CodeOverloaded:
				overloaded++
			default:
				t.Errorf("unexpected error: %+v", resp.Error)
			}
		}()
	}
	// One statement runs and one waits at the held lock; the rest are
	// turned away without waiting.
	waitFor(t, "the requests past Workers+Queue rejected", func() bool {
		return s.Metrics().Counters.Snapshot()[Rejected] == n-2
	})
	release()
	wg.Wait()
	if ok == 0 || overloaded == 0 {
		t.Fatalf("ok=%d overloaded=%d: want both nonzero", ok, overloaded)
	}
	if got := s.Metrics().Counters.Snapshot()[Rejected]; got != overloaded {
		t.Fatalf("rejected counter = %d, want %d", got, overloaded)
	}
}

// TestGracefulShutdownDrains verifies the drain guarantee: a query in
// flight when Shutdown begins still gets its full response, while new
// queries are refused with the shutdown code.
func TestGracefulShutdownDrains(t *testing.T) {
	s, addr := newTestServer(t, Options{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustQuery(t, c, "CREATE TABLE d (x)")
	if _, err := c.Query("INSERT INTO d VALUES (7)"); err != nil {
		t.Fatal(err)
	}
	release := holdShards(s)
	defer release()

	type outcome struct {
		resp *Response
		err  error
	}
	inflight := make(chan outcome, 1)
	go func() {
		r, err := c.Query("SELECT x FROM d")
		inflight <- outcome{r, err}
	}()
	waitFor(t, "the query admitted", func() bool { return s.admitted.Load() == 1 })

	if err := shutdownReleasing(t, s, release); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	got := <-inflight
	if got.err != nil {
		t.Fatalf("in-flight query dropped during shutdown: %v", got.err)
	}
	if len(got.resp.Rows) != 1 || got.resp.Rows[0][0] != 7 {
		t.Fatalf("in-flight query result = %v, want [[7]]", got.resp.Rows)
	}

	// After shutdown: no new admissions.
	resp := s.Do(&Request{Query: "SELECT x FROM d"})
	if resp.Error == nil || resp.Error.Code != CodeShutdown {
		t.Fatalf("post-shutdown query: got %+v, want %s", resp.Error, CodeShutdown)
	}
	if s.Metrics().Counters.Snapshot()[RejectedDrain] == 0 {
		t.Fatal("rejected_drain counter not incremented")
	}
}

// TestServerStress64 is the acceptance stress test: 64 concurrent
// sessions mixing INSERT, UPDATE, DELETE and SELECT on one shared
// database. Every session works a disjoint id range of one shared table,
// so its own results are deterministic even though all sessions race on
// the same relation; a shared read-only table exercises many parallel
// readers on common data.
func TestServerStress64(t *testing.T) {
	// Queue sized for 64 sessions with one outstanding statement each,
	// so admission control never sheds and the counters are exact.
	s, addr := newTestServer(t, Options{Workers: 4, Queue: 128})
	setup, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	mustQuery(t, setup, "CREATE TABLE shared (id, v) CAPACITY 1024")
	mustQuery(t, setup, "INSERT INTO shared VALUES (1,10),(2,20),(3,30),(4,40)")
	mustQuery(t, setup, "CREATE TABLE stress (id, v) CAPACITY 8192")
	setup.Close()

	const sessions = 64
	const rows = 24
	var wg sync.WaitGroup
	errc := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				errc <- fmt.Errorf("session %d: "+format, append([]any{g}, args...)...)
			}
			c, err := Dial(addr)
			if err != nil {
				fail("dial: %v", err)
				return
			}
			defer c.Close()
			// This session's id range: [lo, lo+rows).
			lo := g * 100
			mine := fmt.Sprintf("id >= %d AND id < %d", lo, lo+rows)
			sum := uint64(0)
			for i := 0; i < rows; i++ {
				v := uint64(g*1000 + i)
				sum += v
				if _, err := c.Query(fmt.Sprintf("INSERT INTO stress VALUES (%d, %d)", lo+i, v)); err != nil {
					fail("insert %d: %v", i, err)
					return
				}
				// Interleave reads of the shared table: many sessions
				// under the read lock at once.
				if r, err := c.Query("SELECT SUM(v) FROM shared"); err != nil {
					fail("shared read: %v", err)
					return
				} else if r.Rows[0][0] != 100 {
					fail("shared sum = %d, want 100", r.Rows[0][0])
					return
				}
			}
			r, err := c.Query(fmt.Sprintf("SELECT SUM(v), COUNT(*) FROM stress WHERE %s", mine))
			if err != nil {
				fail("sum: %v", err)
				return
			}
			if r.Rows[0][0] != sum || r.Rows[0][1] != rows {
				fail("sum/count = %v, want [%d %d]", r.Rows[0], sum, rows)
				return
			}
			if _, err := c.Query(fmt.Sprintf(
				"UPDATE stress SET v = 5 WHERE id >= %d AND id < %d", lo, lo+rows/2)); err != nil {
				fail("update: %v", err)
				return
			}
			if _, err := c.Query(fmt.Sprintf(
				"DELETE FROM stress WHERE id >= %d AND id < %d", lo+rows/2, lo+rows)); err != nil {
				fail("delete: %v", err)
				return
			}
			r, err = c.Query(fmt.Sprintf("SELECT SUM(v), COUNT(*) FROM stress WHERE %s", mine))
			if err != nil {
				fail("final sum: %v", err)
				return
			}
			want := uint64(rows / 2 * 5)
			if r.Rows[0][0] != want || r.Rows[0][1] != uint64(rows/2) {
				fail("final sum/count = %v, want [%d %d]", r.Rows[0], want, rows/2)
				return
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	snap := s.Stats()
	wantQueries := int64(sessions*(2*rows+4) + 3)
	if snap.Counters[Queries] != wantQueries {
		t.Errorf("queries counter = %d, want %d", snap.Counters[Queries], wantQueries)
	}
	if snap.Counters[SessionsOpened] != sessions+1 {
		t.Errorf("sessions_opened = %d, want %d", snap.Counters[SessionsOpened], sessions+1)
	}
	// Session teardown is asynchronous after the client closes; give the
	// gauge a moment to drain to zero.
	deadline := time.Now().Add(2 * time.Second)
	for s.Metrics().Counters.Snapshot()[SessionsActive] != 0 {
		if time.Now().After(deadline) {
			t.Errorf("sessions_active = %d, want 0", s.Metrics().Counters.Snapshot()[SessionsActive])
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
}
