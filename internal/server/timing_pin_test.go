package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestTimedRepliesPinned runs the same timed statements on a 1-shard and a
// 3-shard server and pins what a user sees of them: each reply's bytes on
// POST /query and the bank series of /metrics (rcnvm_bank_*, and per
// shard rcnvm_shard_bank_* on 3 shards). The simulator is deterministic,
// so a refactor of the replay path leaves every byte alone; only the bank
// series are pinned by digest (they run to tens of kilobytes).
func TestTimedRepliesPinned(t *testing.T) {
	timed := []string{
		"SELECT SUM(val), COUNT(*) FROM t WHERE grp = 3",
		"SELECT val FROM t WHERE id = 17",
		"UPDATE t SET val = 5 WHERE grp = 2",
		"SELECT grp, SUM(val) FROM t GROUP BY grp",
	}
	want := map[int]struct {
		replies []string
		metrics string
	}{
		1: {
			replies: []string{
				`{"columns":["SUM(val)","COUNT(*)"],"rows":[[48960,64]],"floats":[0,0],"timing":{"mem_ops":576,"dual_ps":2001500,"row_ps":19822000,"speedup":9.90357232075943}}`,
				`{"columns":["val"],"rows":[[51]],"timing":{"mem_ops":513,"dual_ps":1486500,"row_ps":19811000,"speedup":13.32727884291961}}`,
				`{"affected":64,"timing":{"mem_ops":576,"dual_ps":2001500,"row_ps":19822000,"speedup":9.90357232075943}}`,
				`{"columns":["grp","SUM(val)"],"rows":[[0,48384],[1,48576],[2,320],[3,48960],[4,49152],[5,49344],[6,49536],[7,49728]],"timing":{"mem_ops":1024,"dual_ps":6661000,"row_ps":21001000,"speedup":3.1528299054196065}}`,
			},
			metrics: "2cbe33cc1deb53e8eed6fc3826beec7ea4d1a07d9412e9c6806f137bf2ba93e4",
		},
		3: {
			replies: []string{
				`{"columns":["SUM(val)","COUNT(*)"],"rows":[[48960,64]],"floats":[0,0],"timing":{"mem_ops":576,"dual_ps":699000,"row_ps":7146000,"speedup":10.223175965665236,"shards":[{"shard":0,"mem_ops":204,"dual_ps":699000,"row_ps":7146000},{"shard":1,"mem_ops":195,"dual_ps":687000,"row_ps":6976000},{"shard":2,"mem_ops":177,"dual_ps":653500,"row_ps":5998500}]}}`,
				`{"columns":["val"],"rows":[[51]],"timing":{"mem_ops":182,"dual_ps":562000,"row_ps":7146000,"speedup":12.715302491103202,"shards":[{"shard":0,"mem_ops":182,"dual_ps":562000,"row_ps":7146000}]}}`,
				`{"affected":64,"timing":{"mem_ops":576,"dual_ps":708000,"row_ps":7146000,"speedup":10.09322033898305,"shards":[{"shard":0,"mem_ops":206,"dual_ps":708000,"row_ps":7146000},{"shard":1,"mem_ops":199,"dual_ps":696500,"row_ps":6976000},{"shard":2,"mem_ops":171,"dual_ps":667000,"row_ps":5998500}]}}`,
				`{"columns":["grp","SUM(val)"],"rows":[[0,48384],[1,48576],[2,320],[3,48960],[4,49152],[5,49344],[6,49536],[7,49728]],"timing":{"mem_ops":1024,"dual_ps":2491500,"row_ps":7486000,"speedup":3.0046156933574153,"shards":[{"shard":0,"mem_ops":362,"dual_ps":2491500,"row_ps":7486000},{"shard":1,"mem_ops":354,"dual_ps":2491500,"row_ps":7316000},{"shard":2,"mem_ops":308,"dual_ps":2185500,"row_ps":6338500}]}}`,
			},
			metrics: "8aac9b1f5aaf83eaec5bf45c40e5a7a3e29652656ab470d4a421583ce86ce662",
		},
	}
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			_, tcp, httpAddr := newShardedTestServer(t, n, Options{})
			c, err := Dial(tcp)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for _, q := range replaySeed() {
				mustQuery(t, c, q)
			}
			w := want[n]
			for i, q := range timed {
				got := strings.TrimSpace(postBody(t, httpAddr, fmt.Sprintf(`{"query":%q,"timing":true}`, q)))
				if i >= len(w.replies) || got != w.replies[i] {
					t.Errorf("%s: reply\n%s", q, got)
				}
			}
			metrics := getBody(t, "http://"+httpAddr+"/metrics")
			metrics = metrics[strings.Index(metrics, "# TYPE rcnvm_bank_"):]
			if got := digest(metrics); got != w.metrics {
				t.Errorf("/metrics bank series digest %s", got)
			}
		})
	}
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func postBody(t *testing.T, httpAddr, body string) string {
	t.Helper()
	resp, err := http.Post("http://"+httpAddr+"/query", "application/json", strings.NewReader(body))
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
