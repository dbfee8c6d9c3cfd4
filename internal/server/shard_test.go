package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"rcnvm/internal/engine"
	"rcnvm/internal/obs"
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

	// Each shard's bank series carry its reads: the shard-labeled
	// rcnvm_shard_bank_* families beside the aggregate rcnvm_bank_*.
	m := parseMetrics(t, getBody(t, "http://"+httpAddr+"/metrics"))
	perShard := make([]float64, s.Cluster().N())
	var agg float64
	for key, v := range m {
		if strings.HasPrefix(key, "rcnvm_bank_reads_total{") {
			agg += v
		}
		for i := range perShard {
			if strings.HasPrefix(key, fmt.Sprintf(`rcnvm_shard_bank_reads_total{shard="%d",`, i)) {
				perShard[i] += v
			}
		}
	}
	if agg == 0 {
		t.Fatal("aggregate bank series carry no reads")
	}
	var sum float64
	for i, v := range perShard {
		if v == 0 {
			t.Fatalf("shard %d's bank series carry no reads", i)
		}
		sum += v
	}
	if sum != agg {
		t.Errorf("shard bank reads sum to %v, the aggregate says %v", sum, agg)
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

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// parseMetrics reads an exposition with obs.Parse into its sample values,
// keyed by name{labels} as they render.
func parseMetrics(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, f := range obs.Parse([]byte(body)) {
		for _, s := range f.Samples {
			key := s.Name
			if len(s.Labels) > 0 {
				pairs := make([]string, len(s.Labels))
				for i, l := range s.Labels {
					pairs[i] = l.Name + `="` + l.Value + `"`
				}
				key += "{" + strings.Join(pairs, ",") + "}"
			}
			v, err := strconv.ParseFloat(s.Value, 64)
			if err != nil {
				t.Fatalf("sample %s: %v", key, err)
			}
			out[key] = v
		}
	}
	return out
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
