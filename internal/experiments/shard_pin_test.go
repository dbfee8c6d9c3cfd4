package experiments

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"rcnvm/internal/engine"
	"rcnvm/internal/shard"
	"rcnvm/internal/sql"
	"rcnvm/internal/trace"
	"rcnvm/internal/workload"
)

// shardScalingPins is the shard sweep at 1 to 4 shards, exactly: the
// suite's simulated time in picoseconds, its memory operations and the
// SHA-256 over every statement's per-shard streams. results/shard_scaling.txt
// rounds the time to 0.1 us; these change only with a deliberate change of
// what a statement reads or how a stream replays.
var shardScalingPins = map[int]string{
	1: "totalPs=73130500 memOps=10965 streams=a899f737a683df44e6de2af3ed6de02ba0e21a3482db670ab39062bbe083bc3e",
	2: "totalPs=39244000 memOps=10611 streams=e370716f8e5fb46ff46287c28c405be7793dd6c3aca0bf35180ad5df247eef4b",
	3: "totalPs=30948000 memOps=10482 streams=669e2fd765be5f72db5fd57c387db9e0ce11d80b15bf36b06a7b87fe591ce9aa",
	4: "totalPs=23710000 memOps=10422 streams=0427701b48f4bdf9a7e73f0ea3b0905e273bfb3a242497d2d73b8cc2c028f947",
}

// TestShardScalingPinned runs the Table 2 SQL suite on clusters of 1 to 4
// shards, as the sweep does, and compares each run with its pin.
func TestShardScalingPinned(t *testing.T) {
	for n := 1; n <= 4; n++ {
		r, err := runShardCount(n, 2)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("totalPs=%d memOps=%d streams=%s", r.totalPs, r.memOps, suiteStreamDigest(t, n))
		if got != shardScalingPins[n] {
			t.Errorf("%d shards:\n got  %s\n want %s", n, got, shardScalingPins[n])
		}
	}
}

// suiteStreamDigest is the SHA-256 over the serialized per-shard streams of
// every suite statement, in order, on a fresh n-shard cluster.
func suiteStreamDigest(t *testing.T, n int) string {
	t.Helper()
	c, err := shard.Open(engine.DualAddress, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range workload.SQLSetup() {
		if _, _, err := sql.Execute(c, stmt, sql.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	h := sha256.New()
	for _, q := range workload.SQLQueries() {
		_, streams, err := sql.Execute(c, q.SQL, sql.ExecOptions{Trace: true})
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		fmt.Fprintf(h, "%s %d\n", q.ID, len(streams))
		if err := trace.SaveStreams(h, streams); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
