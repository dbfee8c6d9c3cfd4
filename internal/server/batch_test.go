package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"
)

// batchTestWorkload mixes DDL, point and broadcast reads and writes, and
// error statements — every slot class a batch can produce.
func batchTestWorkload() []string {
	w := []string{"CREATE TABLE acct (id, grp, bal) CAPACITY 1024"}
	for i := 0; i < 12; i++ {
		w = append(w, fmt.Sprintf("INSERT INTO acct VALUES (%d, %d, %d)", i, i%3, i*100))
	}
	w = append(w,
		"SELECT bal FROM acct WHERE id = 5",
		"SELECT nope FROM acct",   // sql error slot
		"SELECT bal FROM missing", // another error slot
		"UPDATE acct SET bal = 1 WHERE grp = 2",
		"UPDATE acct SET bal = 777 WHERE id = 3",
		"SELECT SUM(bal), COUNT(*) FROM acct WHERE grp = 0",
		"DELETE FROM acct WHERE id = 9",
		"SELECT COUNT(*) FROM acct",
	)
	return w
}

// transcript renders responses with IDs zeroed so batched (slot IDs are
// zero) and unbatched (IDs count up) runs can be compared byte for byte.
func transcript(t *testing.T, resps []*Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range resps {
		cp := *r
		cp.ID = 0
		b, err := json.Marshal(&cp)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// singleTranscript runs stmts one at a time over TCP and returns the
// normalized response transcript.
func singleTranscript(t *testing.T, addr string, stmts []string) []byte {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resps := make([]*Response, len(stmts))
	for i, q := range stmts {
		resp, err := c.Query(q)
		if resp == nil {
			t.Fatalf("stmt %q: no response (%v)", q, err)
		}
		resps[i] = resp
	}
	return transcript(t, resps)
}

// batchTranscript runs stmts as one batch over TCP and returns the
// normalized per-slot transcript.
func batchTranscript(t *testing.T, addr string, stmts []string) []byte {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	results, err := c.Batch(stmts)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(results) != len(stmts) {
		t.Fatalf("batch returned %d slots for %d statements", len(results), len(stmts))
	}
	return transcript(t, results)
}

// TestBatchTranscriptIdentical: the batched run's per-slot responses must
// be byte-identical to an unbatched session's responses, on 1-shard and
// 4-shard servers alike.
func TestBatchTranscriptIdentical(t *testing.T) {
	stmts := batchTestWorkload()

	t.Run("unsharded", func(t *testing.T) {
		_, single := newTestServer(t, Options{})
		_, batched := newTestServer(t, Options{})
		want := singleTranscript(t, single, stmts)
		got := batchTranscript(t, batched, stmts)
		if !bytes.Equal(want, got) {
			t.Fatalf("transcripts differ:\nsingle:\n%s\nbatch:\n%s", want, got)
		}
	})

	t.Run("4-shard", func(t *testing.T) {
		_, single, _ := newShardedTestServer(t, 4, Options{})
		_, batched, _ := newShardedTestServer(t, 4, Options{})
		want := singleTranscript(t, single, stmts)
		got := batchTranscript(t, batched, stmts)
		if !bytes.Equal(want, got) {
			t.Fatalf("transcripts differ:\nsingle:\n%s\nbatch:\n%s", want, got)
		}
	})
}

// TestBatchDurableFsyncAlways: with per-statement fsync durability the
// batched transcript still matches the unbatched one (the group-commit
// wait must not change results), and a batch of mutations survives a
// clean restart.
func TestBatchDurableFsyncAlways(t *testing.T) {
	stmts := batchTestWorkload()

	singleDir, batchDir := t.TempDir(), t.TempDir()
	s1, store1, addr1 := newDurableServer(t, singleDir, 2)
	want := singleTranscript(t, addr1, stmts)
	shutdownServer(t, s1)
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, store2, addr2 := newDurableServer(t, batchDir, 2)
	got := batchTranscript(t, addr2, stmts)
	if !bytes.Equal(want, got) {
		t.Fatalf("durable transcripts differ:\nsingle:\n%s\nbatch:\n%s", want, got)
	}
	shutdownServer(t, s2)
	if err := store2.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen the batched server's directory: the batch's surviving
	// mutations must be there.
	s3, store3, addr3 := newDurableServer(t, batchDir, 2)
	defer func() {
		shutdownServer(t, s3)
		store3.Close()
	}()
	c, err := Dial(addr3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := mustQuery(t, c, "SELECT COUNT(*) FROM acct")
	if len(r.Rows) != 1 || r.Rows[0][0] != 11 {
		t.Fatalf("recovered count = %v, want 11", r.Rows)
	}
	r = mustQuery(t, c, "SELECT bal FROM acct WHERE id = 3")
	if len(r.Rows) != 1 || r.Rows[0][0] != 777 {
		t.Fatalf("recovered bal = %v, want 777", r.Rows)
	}
}

func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestBatchValidation: malformed batch requests are rejected whole with
// bad_request before execution.
func TestBatchValidation(t *testing.T) {
	s, _ := newTestServer(t, Options{})

	tooMany := make([]string, MaxBatchStatements+1)
	for i := range tooMany {
		tooMany[i] = "SELECT COUNT(*) FROM t"
	}
	cases := []struct {
		name string
		req  Request
	}{
		{"batch and query", Request{Query: "SELECT 1 FROM t", Batch: []string{"SELECT 1 FROM t"}}},
		{"batch with timing", Request{Batch: []string{"SELECT 1 FROM t"}, Timing: true}},
		{"batch with trace", Request{Batch: []string{"SELECT 1 FROM t"}, Trace: true}},
		{"oversized batch", Request{Batch: tooMany}},
		{"empty query", Request{}},
	}
	for _, tc := range cases {
		resp := s.Do(&tc.req)
		if resp.Error == nil || resp.Error.Code != CodeBadRequest {
			t.Errorf("%s: got %+v, want %s", tc.name, resp.Error, CodeBadRequest)
		}
		if resp.Error != nil && resp.Error.Retryable {
			t.Errorf("%s: bad_request must not be retryable", tc.name)
		}
	}

	// An empty batch with no query is just an empty query.
	resp := s.Do(&Request{Batch: []string{}})
	if resp.Error == nil || resp.Error.Code != CodeBadRequest {
		t.Errorf("empty batch: got %+v, want %s", resp.Error, CodeBadRequest)
	}
}

// TestBatchHTTP: the HTTP front end accepts batch requests on POST /query
// and returns per-slot results.
func TestBatchHTTP(t *testing.T) {
	_, _, httpAddr := newShardedTestServer(t, 2, Options{})

	body, _ := json.Marshal(Request{Batch: []string{
		"CREATE TABLE t (a, b) CAPACITY 64",
		"INSERT INTO t VALUES (1, 10), (2, 20)",
		"SELECT nope FROM t",
		"SELECT SUM(b), COUNT(*) FROM t",
	}})
	resp, err := http.Post("http://"+httpAddr+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Error != nil {
		t.Fatalf("whole-batch error: %v", out.Error)
	}
	if len(out.Results) != 4 {
		t.Fatalf("got %d result slots, want 4", len(out.Results))
	}
	if out.Results[1].Affected != 2 {
		t.Errorf("insert slot affected = %d, want 2", out.Results[1].Affected)
	}
	if out.Results[2].Error == nil || out.Results[2].Error.Code != CodeSQL {
		t.Errorf("error slot = %+v, want %s", out.Results[2].Error, CodeSQL)
	}
	if out.Results[3].Error != nil || len(out.Results[3].Rows) != 1 || out.Results[3].Rows[0][0] != 30 {
		t.Errorf("aggregate slot = %+v, want sum 30", out.Results[3])
	}
}

// TestBatchCounters: batch requests feed the batch and plan-cache
// counters visible in Stats.
func TestBatchCounters(t *testing.T) {
	s, addr := newTestServer(t, Options{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stmts := []string{
		"CREATE TABLE t (a, b) CAPACITY 64",
		"INSERT INTO t VALUES (1, 10)",
		"SELECT b FROM t WHERE a = 1",
		"SELECT b FROM t WHERE a = 1", // plan-cache hit
		"SELECT nope FROM t",          // error slot
	}
	results, err := c.Batch(stmts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(stmts) {
		t.Fatalf("got %d slots, want %d", len(results), len(stmts))
	}

	snap := s.Stats()
	if got := snap.Counters[Batches]; got != 1 {
		t.Errorf("%s = %d, want 1", Batches, got)
	}
	if got := snap.Counters[BatchStatements]; got != int64(len(stmts)) {
		t.Errorf("%s = %d, want %d", BatchStatements, got, len(stmts))
	}
	if got := snap.Counters[Queries]; got != int64(len(stmts)) {
		t.Errorf("%s = %d, want %d (batch statements count as queries)", Queries, got, len(stmts))
	}
	if got := snap.Counters[QueryErrors]; got != 1 {
		t.Errorf("%s = %d, want 1", QueryErrors, got)
	}
	if got := snap.Counters[PlanCacheHits]; got < 1 {
		t.Errorf("%s = %d, want >= 1", PlanCacheHits, got)
	}
	if got := snap.Counters[PlanCacheMisses]; got < 1 {
		t.Errorf("%s = %d, want >= 1", PlanCacheMisses, got)
	}
}

// TestBatchRetryable: the retry classification table for failed batches.
func TestBatchRetryable(t *testing.T) {
	deadline := &WireError{Code: CodeTimeout, Message: "deadline", Retryable: true}
	cases := []struct {
		name     string
		err      error
		readOnly bool
		want     bool
	}{
		{"overloaded mutating", ErrOverloaded, false, true},
		{"overloaded read-only", ErrOverloaded, true, true},
		{"shutdown read-only", ErrShuttingDown, true, false},
		{"shutdown mutating", ErrShuttingDown, false, false},
		{"deadline read-only", deadline, true, true},
		{"deadline mutating", deadline, false, false},
		{"broken session read-only", ErrSessionBroken, true, true},
		{"broken session mutating", ErrSessionBroken, false, false},
		{"sql error", &WireError{Code: CodeSQL, Message: "x"}, true, false},
	}
	for _, tc := range cases {
		if got := batchRetryable(tc.err, tc.readOnly); got != tc.want {
			t.Errorf("%s: batchRetryable = %v, want %v", tc.name, got, tc.want)
		}
	}

	if allReadOnly([]string{"SELECT COUNT(*) FROM t", "SELECT a FROM t WHERE a = 1"}) != true {
		t.Error("all-select batch should be read-only")
	}
	if allReadOnly([]string{"SELECT COUNT(*) FROM t", "DELETE FROM t WHERE a = 1"}) {
		t.Error("batch with a mutation is not read-only")
	}
	if allReadOnly([]string{"NOT SQL AT ALL"}) {
		t.Error("unparseable statements must count as mutations")
	}
}

// TestRetryClientBatch: the retrying client delivers per-slot results and
// surfaces per-slot errors without retrying them (a slot error is not a
// batch failure).
func TestRetryClientBatch(t *testing.T) {
	_, addr := newTestServer(t, Options{})
	rc := DialRetry(addr, RetryPolicy{MaxAttempts: 3})
	defer rc.Close()

	results, err := rc.Batch([]string{
		"CREATE TABLE t (a) CAPACITY 16",
		"INSERT INTO t VALUES (1)",
		"SELECT nope FROM t",
		"SELECT COUNT(*) FROM t",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d slots, want 4", len(results))
	}
	if results[2].Error == nil {
		t.Error("error slot came back clean")
	}
	if results[3].Error != nil || results[3].Rows[0][0] != 1 {
		t.Errorf("count slot = %+v, want 1", results[3])
	}

	// A batch with a mutation against a dead server fails fast instead of
	// blindly retrying (execution state unknown).
	dead := DialRetry("127.0.0.1:1", RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond})
	defer dead.Close()
	if _, err := dead.Batch([]string{"DELETE FROM t WHERE a = 1"}); err == nil {
		t.Fatal("batch against dead server succeeded")
	}
}

// TestBatchOversizedOverTCP: the cap error arrives as a typed wire error
// and the session survives.
func TestBatchOversizedOverTCP(t *testing.T) {
	_, addr := newTestServer(t, Options{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := make([]string, MaxBatchStatements+1)
	for i := range big {
		big[i] = "SELECT COUNT(*) FROM t"
	}
	_, err = c.Batch(big)
	var we *WireError
	if !errors.As(err, &we) || we.Code != CodeBadRequest {
		t.Fatalf("got %v, want %s", err, CodeBadRequest)
	}
	mustQuery(t, c, "CREATE TABLE t (a) CAPACITY 16")
}
