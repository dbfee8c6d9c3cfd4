package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"rcnvm/internal/engine"
	"rcnvm/internal/shard"
)

// newShardedTestServer starts a server over an n-shard cluster with TCP
// and HTTP front ends.
func newShardedTestServer(t *testing.T, n int, opts Options) (*Server, string, string) {
	t.Helper()
	cl, err := shard.Open(engine.DualAddress, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := NewCluster(cl, opts)
	tcp, err := s.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpAddr, err := s.ListenHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, tcp.String(), httpAddr.String()
}

func TestShardedServerEndToEnd(t *testing.T) {
	s, tcp, httpAddr := newShardedTestServer(t, 3, Options{})
	c, err := Dial(tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	mustQuery(t, c, "CREATE TABLE person (id, age, salary) CAPACITY 1024")
	var ins bytes.Buffer
	ins.WriteString("INSERT INTO person VALUES ")
	for i := 0; i < 300; i++ {
		if i > 0 {
			ins.WriteByte(',')
		}
		fmt.Fprintf(&ins, "(%d,%d,%d)", i, 20+i%50, 1000+i)
	}
	if r := mustQuery(t, c, ins.String()); r.Affected != 300 {
		t.Fatalf("affected = %d, want 300", r.Affected)
	}
	if r := mustQuery(t, c, "SELECT COUNT(*) FROM person"); r.Rows[0][0] != 300 {
		t.Fatalf("count = %v, want 300", r.Rows[0][0])
	}
	// Point query on the partitioning column routes to one shard but must
	// still see the row.
	if r := mustQuery(t, c, "SELECT id, age FROM person WHERE id = 123"); len(r.Rows) != 1 || r.Rows[0][1] != 20+123%50 {
		t.Fatalf("point select = %v", r.Rows)
	}

	// A timed fan-out query attributes its replay to the shards it touched:
	// total mem ops across shards, statement time = slowest shard.
	resp, err := c.QueryTimed("SELECT SUM(salary) FROM person")
	if err != nil {
		t.Fatal(err)
	}
	tm := resp.Timing
	if tm == nil || tm.MemOps == 0 {
		t.Fatalf("timed query returned no timing: %+v", tm)
	}
	if len(tm.Shards) == 0 {
		t.Fatal("sharded timing has no per-shard attribution")
	}
	sumOps, maxDual, maxRow := 0, int64(0), int64(0)
	for _, st := range tm.Shards {
		sumOps += st.MemOps
		if st.DualPs > maxDual {
			maxDual = st.DualPs
		}
		if st.RowPs > maxRow {
			maxRow = st.RowPs
		}
	}
	if sumOps != tm.MemOps {
		t.Errorf("shard mem ops sum to %d, total says %d", sumOps, tm.MemOps)
	}
	if maxDual != tm.DualPs || maxRow != tm.RowPs {
		t.Errorf("statement time (%d/%d ps) != slowest shard (%d/%d ps)",
			tm.DualPs, tm.RowPs, maxDual, maxRow)
	}

	// /stats/banks: aggregate by default, one shard's series with ?shard=i,
	// reject out-of-range indices.
	var agg struct {
		Banks []json.RawMessage `json:"banks"`
	}
	getJSON(t, "http://"+httpAddr+"/stats/banks", &agg)
	if len(agg.Banks) == 0 {
		t.Fatal("/stats/banks aggregate has no banks")
	}
	for i := 0; i < s.Cluster().N(); i++ {
		var per struct {
			Banks []json.RawMessage `json:"banks"`
		}
		getJSON(t, fmt.Sprintf("http://%s/stats/banks?shard=%d", httpAddr, i), &per)
		if len(per.Banks) == 0 {
			t.Fatalf("/stats/banks?shard=%d has no banks", i)
		}
	}
	if code := getStatus(t, "http://"+httpAddr+"/stats/banks?shard=9"); code != http.StatusBadRequest {
		t.Fatalf("?shard=9 returned %d, want 400", code)
	}

	// /metrics carries the shard count and the shard-labeled bank series
	// alongside the unchanged aggregate families.
	body := getBody(t, "http://"+httpAddr+"/metrics")
	for _, want := range []string{
		"rcnvm_server_shards 3",
		`rcnvm_bank_reads_total{bank="0"}`,
		`rcnvm_shard_bank_reads_total{shard="0",bank="0"}`,
		"rcnvm_server_encode_errors_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestEncodeErrorCounter: a client that hangs up before its response is
// written must show up in server.encode_errors (and not as a silent drop).
func TestEncodeErrorCounter(t *testing.T) {
	s, addr := newTestServer(t, Options{})
	release := holdShards(s)
	defer release()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte(`{"query":"CREATE TABLE gone (a) CAPACITY 64"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	// RST the connection while the statement is still executing, so the
	// server's response encode hits a dead socket.
	waitFor(t, "the statement admitted", func() bool { return s.admitted.Load() == 1 })
	conn.(*net.TCPConn).SetLinger(0)
	conn.Close()
	release()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.Metrics().Counters.Snapshot()[EncodeErrors] >= 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("encode_errors still %d after client hangup",
				s.Metrics().Counters.Snapshot()[EncodeErrors])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
