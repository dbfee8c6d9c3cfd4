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
// POST /query, the bank series of /metrics, and /stats/banks with and
// without ?shard. The simulator is deterministic, so a refactor of the
// replay path leaves every byte alone; only the per-bank payloads are
// pinned by digest (they run to tens of kilobytes).
func TestTimedRepliesPinned(t *testing.T) {
	timed := []string{
		"SELECT SUM(val), COUNT(*) FROM t WHERE grp = 3",
		"SELECT val FROM t WHERE id = 17",
		"UPDATE t SET val = 5 WHERE grp = 2",
		"SELECT grp, SUM(val) FROM t GROUP BY grp",
	}
	want := map[int]struct {
		replies        []string
		metrics, banks string
		shardBanks     []string
	}{
		1: {
			replies: []string{
				`{"columns":["SUM(val)","COUNT(*)"],"rows":[[48960,64]],"floats":[0,0],"timing":{"mem_ops":576,"dual_ps":2001500,"row_ps":19822000,"speedup":9.90357232075943}}`,
				`{"columns":["val"],"rows":[[51]],"timing":{"mem_ops":513,"dual_ps":1486500,"row_ps":19811000,"speedup":13.32727884291961}}`,
				`{"affected":64,"timing":{"mem_ops":576,"dual_ps":2001500,"row_ps":19822000,"speedup":9.90357232075943}}`,
				`{"columns":["grp","SUM(val)"],"rows":[[0,48384],[1,48576],[2,320],[3,48960],[4,49152],[5,49344],[6,49536],[7,49728]],"timing":{"mem_ops":1024,"dual_ps":6661000,"row_ps":21001000,"speedup":3.1528299054196065}}`,
			},
			metrics:    "f385aebf95f07c66edac00403e880754033189b33172093e588b654beb6af756",
			banks:      "688fd830edd55824e0f54afb545b240b13812d8fc09563ca7c7cacac99e7a8a7",
			shardBanks: []string{"688fd830edd55824e0f54afb545b240b13812d8fc09563ca7c7cacac99e7a8a7"},
		},
		3: {
			replies: []string{
				`{"columns":["SUM(val)","COUNT(*)"],"rows":[[48960,64]],"floats":[0,0],"timing":{"mem_ops":576,"dual_ps":699000,"row_ps":7146000,"speedup":10.223175965665236,"shards":[{"shard":0,"mem_ops":204,"dual_ps":699000,"row_ps":7146000},{"shard":1,"mem_ops":195,"dual_ps":687000,"row_ps":6976000},{"shard":2,"mem_ops":177,"dual_ps":653500,"row_ps":5998500}]}}`,
				`{"columns":["val"],"rows":[[51]],"timing":{"mem_ops":182,"dual_ps":562000,"row_ps":7146000,"speedup":12.715302491103202,"shards":[{"shard":0,"mem_ops":182,"dual_ps":562000,"row_ps":7146000}]}}`,
				`{"affected":64,"timing":{"mem_ops":576,"dual_ps":708000,"row_ps":7146000,"speedup":10.09322033898305,"shards":[{"shard":0,"mem_ops":206,"dual_ps":708000,"row_ps":7146000},{"shard":1,"mem_ops":199,"dual_ps":696500,"row_ps":6976000},{"shard":2,"mem_ops":171,"dual_ps":667000,"row_ps":5998500}]}}`,
				`{"columns":["grp","SUM(val)"],"rows":[[0,48384],[1,48576],[2,320],[3,48960],[4,49152],[5,49344],[6,49536],[7,49728]],"timing":{"mem_ops":1024,"dual_ps":2491500,"row_ps":7486000,"speedup":3.0046156933574153,"shards":[{"shard":0,"mem_ops":362,"dual_ps":2491500,"row_ps":7486000},{"shard":1,"mem_ops":354,"dual_ps":2491500,"row_ps":7316000},{"shard":2,"mem_ops":308,"dual_ps":2185500,"row_ps":6338500}]}}`,
			},
			metrics: "deafdcc73e7f47b8a4dd36a083f1027c8d29746d0935056319a60c1b60c7d359",
			banks:   "95b102f5030d395ca0a76a612b2c0220f79cb8fadec21904659446127b240a41",
			shardBanks: []string{
				"1727fa9a142fd58e4413b34b5bdf9ebcb99f0a7aa1aeb74f12a7761a8c7e4dad",
				"ec63cbf85e299b1b22c4fc922e7341fd40081e561c8a3d82b786c61f9856378e",
				"246817929f234869e421791a3369f3a7afca75525d9e4090d3f8ae36099c9884",
			},
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
			if got := digest(getBody(t, "http://"+httpAddr+"/stats/banks")); got != w.banks {
				t.Errorf("/stats/banks digest %s", got)
			}
			for i := 0; i < n; i++ {
				got := digest(getBody(t, fmt.Sprintf("http://%s/stats/banks?shard=%d", httpAddr, i)))
				if i >= len(w.shardBanks) || got != w.shardBanks[i] {
					t.Errorf("/stats/banks?shard=%d digest %s", i, got)
				}
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
