package sql

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"testing"

	"rcnvm/internal/trace"
	"rcnvm/internal/workload"
)

// The SELECT executor's observable behaviour — result or error text and
// every shard's recorded access stream — pinned as constants recorded at
// the parent of the change that made a single-database SELECT the merge of
// one partial. A mismatch prints the lines the code produced; the constants
// change only with a deliberate change of results, errors or access order.

// goldenDigest is the expanded op count and a SHA-256 prefix over every
// field of every op the stream stands for (scan_golden_test.go's encoding).
func goldenDigest(s trace.Stream) string {
	n, sum := streamSum(s)
	return fmt.Sprintf("%d:%x", n, sum[:8])
}

// streamSum is the expanded op count and the SHA-256 goldenDigest cuts.
func streamSum(s trace.Stream) (int, []byte) {
	h := sha256.New()
	n := 0
	var buf [48]byte
	s.Expand(func(op trace.Op) {
		n++
		buf[0] = byte(op.Kind)
		buf[1], buf[2] = 0, 0
		if op.Pin {
			buf[1] = 1
		}
		if op.Ordered {
			buf[2] = 1
		}
		c := op.Coord
		for i, f := range [...]uint32{c.Channel, c.Rank, c.Bank, c.Subarray, c.Row, c.Column, c.Byte, op.GatherID} {
			binary.LittleEndian.PutUint32(buf[4+4*i:], f)
		}
		binary.LittleEndian.PutUint64(buf[36:], uint64(op.Cycles))
		h.Write(buf[:44])
	})
	return n, h.Sum(nil)
}

// TestSelectGolden: on one shard every statement of the SQL suite and of
// its error suite, in order; on three shards the suite, with a digest per
// shard; on one shard and on three the EXPLAIN and EXPLAIN ANALYZE text of
// six shapes. Statements run as Execute{Trace: true} does — its pipeline,
// which keeps a failed statement's streams too.
func TestSelectGolden(t *testing.T) {
	got := make(map[string]string)
	for _, n := range []int{1, 3} {
		c := newSuiteCluster(t, n, 1)
		qs := workload.SQLQueries()
		if n == 1 {
			qs = append(qs, workload.SQLErrorQueries()...)
		}
		for _, q := range qs {
			if _, err := Parse(q.SQL); err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			one := []stmt{{src: q.SQL}}
			execute(c, one, ExecOptions{Trace: true})
			streams := one[0].streams
			line := "err=" + fmt.Sprint(one[0].err)
			if one[0].err == nil {
				line = fmt.Sprintf("res=%x", sha256.Sum256([]byte(one[0].res.Format())))[:20]
			}
			for _, s := range streams {
				line += " tr=" + goldenDigest(s)
			}
			got[fmt.Sprintf("%d/%s", n, q.ID)] = line
		}
	}

	byID := make(map[string]string)
	for _, q := range workload.SQLQueries() {
		byID[q.ID] = q.SQL
	}
	for _, n := range []int{1, 3} {
		c := newSuiteCluster(t, n, 1)
		prefix := ""
		if n > 1 {
			prefix = fmt.Sprintf("%d/", n)
		}
		for _, id := range []string{"Q4", "X5", "Q8", "X8", "X10", "Q12"} {
			for _, ex := range []string{"EXPLAIN", "EXPLAIN ANALYZE"} {
				res, _, err := Execute(c, ex+" "+byID[id], ExecOptions{})
				out := "err=" + fmt.Sprint(err)
				if err == nil {
					out = res.Format()
				}
				got[prefix+ex+"/"+id] = out
			}
		}
	}

	bad := len(goldenSelect) != len(got)
	for name, g := range got {
		if goldenSelect[name] != g {
			bad = true
			t.Errorf("%s:\n got  %q\n want %q", name, g, goldenSelect[name])
		}
	}
	if bad {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var sb strings.Builder
		for _, name := range names {
			fmt.Fprintf(&sb, "\t%q: %q,\n", name, got[name])
		}
		t.Logf("produced:\n%s", sb.String())
	}
}

var goldenSelect = map[string]string{
	"1/E1":                  "err=engine: MIN/MAX over zero rows tr=240:2d72372ea817b1f3",
	"1/E10":                 "err=engine: join keys must be single-word fields tr=0:e3b0c44298fc1c14",
	"1/E11":                 "err=engine: MIN/MAX over zero rows tr=240:34730590ac794910",
	"1/E12":                 "err=engine: MIN/MAX over zero rows tr=240:34730590ac794910",
	"1/E2":                  "err=sql: table \"table_a\" has no column \"nope\" tr=0:e3b0c44298fc1c14",
	"1/E3":                  "err=sql: no such table \"no_such_table\" tr=0:e3b0c44298fc1c14",
	"1/E4":                  "err=sql: cannot mix plain columns with aggregates tr=0:e3b0c44298fc1c14",
	"1/E5":                  "err=sql: GROUP BY supports SELECT <key>, <aggregate> FROM ... GROUP BY <key> tr=0:e3b0c44298fc1c14",
	"1/E6":                  "err=sql: GROUP BY supports SUM, AVG and COUNT tr=480:db251d2c8256524d",
	"1/E7":                  "err=engine: SUM over multi-word field f2_wide tr=0:e3b0c44298fc1c14",
	"1/E8":                  "err=sql: WHERE on wide field \"f2_wide\" tr=0:e3b0c44298fc1c14",
	"1/E9":                  "err=sql: ORDER BY on wide field \"f2_wide\" tr=0:e3b0c44298fc1c14",
	"1/Q1":                  "res=add9c2a957a2beaa tr=314:036881f4a54083e5",
	"1/Q10":                 "res=17d9702dc73834c7 tr=421:14b98a5b67c685be",
	"1/Q11":                 "res=5721e7b2a402571b tr=433:6ee664dedba95a86",
	"1/Q12":                 "res=be23e416120893e3 tr=180:746692a55c6c0dba",
	"1/Q13":                 "res=be23e416120893e3 tr=180:746692a55c6c0dba",
	"1/Q14":                 "res=e899423c32029899 tr=180:b33e9416c67231af",
	"1/Q15":                 "res=72c2fb9deaaf81ee tr=720:15ac2cc6ad183a8b",
	"1/Q2":                  "res=e9400bb1a0705bc8 tr=260:f13beeaaabc49793",
	"1/Q3":                  "res=4264a99b4f8250e7 tr=1180:7da0a3cc6c214b10",
	"1/Q4":                  "res=e83d0e0fd7aa6b0d tr=297:3fb7346174715c90",
	"1/Q5":                  "res=926ac8c88896625a tr=224:849d22737509e222",
	"1/Q6":                  "res=680b351dc0530e2d tr=297:92ef79d9c546467a",
	"1/Q7":                  "res=8e91bd6583f3359f tr=224:d7ae2fdbab47644f",
	"1/Q8":                  "res=033bfcbc5d6a48da tr=504:4823bf80b683fc91",
	"1/Q9":                  "res=a046ee91ecf214b6 tr=504:9b04921c1a62cf55",
	"1/X1":                  "res=0295eeec154d3d57 tr=0:e3b0c44298fc1c14",
	"1/X10":                 "res=58c1a03b7a067b99 tr=240:2d72372ea817b1f3",
	"1/X11":                 "res=be23e416120893e3 tr=240:2d72372ea817b1f3",
	"1/X12":                 "res=be23e416120893e3 tr=180:746692a55c6c0dba",
	"1/X13":                 "res=3db101d6f2e6e8eb tr=360:1cf45ed7895ba60e",
	"1/X14":                 "res=be23e416120893e3 tr=240:9ad5813ae429551a",
	"1/X15":                 "res=9d5184548764c9b4 tr=243:323e28b398a7b90d",
	"1/X16":                 "res=a9473cd6cab3dbd1 tr=452:e3987230c31bab41",
	"1/X2":                  "res=403bc1104f4e4bda tr=614:0efd02eaf142ee2d",
	"1/X3":                  "res=3559acfc5ade832d tr=240:2d72372ea817b1f3",
	"1/X5":                  "res=a1c2b1be324b712f tr=480:db251d2c8256524d",
	"1/X6":                  "res=5cc9c98b7f0ca3d5 tr=480:e423e79c4738a614",
	"1/X7":                  "res=f9e3f478c0528273 tr=560:9df763cecbdb64cc",
	"1/X8":                  "res=bb364d4f8c959e49 tr=320:2187270ad9f9c876",
	"1/X9":                  "res=a84fce3a6b25ee26 tr=398:6df8a60cdc45423b",
	"3/EXPLAIN ANALYZE/Q12": "scatter over 3 shards\nfilter f10 = 5: column scan (cload)\nupdate table_b.f3: column store (cstore) per matching row\nupdate table_b.f4: column store (cstore) per matching row\nactual: 180 memory ops across 3 shards; est. 0.2 us with column accesses, 2.8 us row-only (13.55x), slowest shard\n",
	"3/EXPLAIN ANALYZE/Q4":  "scatter over 3 shards\nfilter f10 > 700: column scan (cload)\naggregate SUM(f9): column scan (cload)\nactual: 297 memory ops across 3 shards; est. 0.4 us with column accesses, 3.8 us row-only (9.16x), slowest shard\n",
	"3/EXPLAIN ANALYZE/Q8":  "scatter over 3 shards\nhash join table_a x table_b on f9/f9: build and probe via column scan (cload)\nproject join pairs: row fetch (load) per output field\nactual: 504 memory ops across 3 shards; est. 1.2 us with column accesses, 6.8 us row-only (5.46x), slowest shard\n",
	"3/EXPLAIN ANALYZE/X10": "scatter over 3 shards\nfilter f1 = 123: column scan (cload)\nproject *: row fetch (load) per row\nactual: 240 memory ops across 3 shards; est. 0.3 us with column accesses, 3.8 us row-only (15.07x), slowest shard\n",
	"3/EXPLAIN ANALYZE/X5":  "scatter over 3 shards\ngroup by f16: column scan (cload) over key and aggregate columns\nactual: 480 memory ops across 3 shards; est. 1.2 us with column accesses, 3.8 us row-only (3.11x), slowest shard\n",
	"3/EXPLAIN ANALYZE/X8":  "scatter over 3 shards\nfilter f10 < 200: column scan (cload)\nproject f1, f2: row fetch (load) per row\norder by f2: column scan (cload) for sort keys, in-CPU sort\nactual: 320 memory ops across 3 shards; est. 1.4 us with column accesses, 4.9 us row-only (3.62x), slowest shard\n",
	"3/EXPLAIN/Q12":         "scatter over 3 shards\nfilter f10 = 5: column scan (cload)\nupdate table_b.f3: column store (cstore) per matching row\nupdate table_b.f4: column store (cstore) per matching row\n",
	"3/EXPLAIN/Q4":          "scatter over 3 shards\nfilter f10 > 700: column scan (cload)\naggregate SUM(f9): column scan (cload)\n",
	"3/EXPLAIN/Q8":          "scatter over 3 shards\nhash join table_a x table_b on f9/f9: build and probe via column scan (cload)\nproject join pairs: row fetch (load) per output field\n",
	"3/EXPLAIN/X10":         "scatter over 3 shards\nfilter f1 = 123: column scan (cload)\nproject *: row fetch (load) per row\n",
	"3/EXPLAIN/X5":          "scatter over 3 shards\ngroup by f16: column scan (cload) over key and aggregate columns\n",
	"3/EXPLAIN/X8":          "scatter over 3 shards\nfilter f10 < 200: column scan (cload)\nproject f1, f2: row fetch (load) per row\norder by f2: column scan (cload) for sort keys, in-CPU sort\n",
	"3/Q1":                  "res=add9c2a957a2beaa tr=113:205ef20bbc7f558c tr=120:3b49b90d75030832 tr=81:aeb3b03390903d9f",
	"3/Q10":                 "res=17d9702dc73834c7 tr=140:9e4c5af1b923360a tr=169:95c793e93059eac3 tr=112:c99492b028aac708",
	"3/Q11":                 "res=5721e7b2a402571b tr=144:fa80ad74fb8fefa1 tr=169:94edd678a26f6f21 tr=120:e0d067bd6c3dedf4",
	"3/Q12":                 "res=be23e416120893e3 tr=53:1d1bbdf151c61870 tr=65:c363353f8513db48 tr=62:3950baf445f4839c",
	"3/Q13":                 "res=be23e416120893e3 tr=53:1d1bbdf151c61870 tr=65:c363353f8513db48 tr=62:3950baf445f4839c",
	"3/Q14":                 "res=e899423c32029899 tr=52:a84cfde7522b7679 tr=87:2226d2d170aec1d4 tr=41:f1548bc39e53ce28",
	"3/Q15":                 "res=72c2fb9deaaf81ee tr=267:ba6feb42ec1ee466 tr=258:fad9a49de3c38b62 tr=195:2254b7e2cc720f6c",
	"3/Q2":                  "res=e9400bb1a0705bc8 tr=73:bcc2fdf281d39f18 tr=105:c97a5fde4672e7bd tr=82:ee7ec467db45602a",
	"3/Q3":                  "res=4264a99b4f8250e7 tr=353:2da514d73197da00 tr=345:c1bb6b80edaa26e1 tr=482:388ba4cbfc49e4c0",
	"3/Q4":                  "res=e83d0e0fd7aa6b0d tr=111:61bb141eb05d0196 tr=107:06462259450a2b83 tr=79:4226ddd4ade491e0",
	"3/Q5":                  "res=926ac8c88896625a tr=65:95454ff2aefe54e0 tr=85:55dcfc5097f90a11 tr=74:2ad6c45e1b88e307",
	"3/Q6":                  "res=680b351dc0530e2d tr=111:bcefcc386214da77 tr=107:e8f84e2535fe4c90 tr=79:55fdc17ec4e9dcf2",
	"3/Q7":                  "res=8e91bd6583f3359f tr=65:cbbee33ab43bfd19 tr=85:fa2340c678c4d52f tr=74:de9bb5e4190b5d95",
	"3/Q8":                  "res=033bfcbc5d6a48da tr=168:85a2f7261fe6e6be tr=185:35497e89ed7e15bb tr=151:f63c6a21174a95ee",
	"3/Q9":                  "res=a046ee91ecf214b6 tr=168:5e2f9f6616ac4b5b tr=185:46758e8203ebda34 tr=151:55c350f665e2559b",
	"3/X1":                  "res=0295eeec154d3d57 tr=0:e3b0c44298fc1c14 tr=0:e3b0c44298fc1c14 tr=0:e3b0c44298fc1c14",
	"3/X10":                 "res=58c1a03b7a067b99 tr=0:e3b0c44298fc1c14 tr=86:62173d0e4f7b5347 tr=0:e3b0c44298fc1c14",
	"3/X11":                 "res=be23e416120893e3 tr=0:e3b0c44298fc1c14 tr=86:62173d0e4f7b5347 tr=0:e3b0c44298fc1c14",
	"3/X12":                 "res=be23e416120893e3 tr=53:1d1bbdf151c61870 tr=65:c363353f8513db48 tr=62:3950baf445f4839c",
	"3/X13":                 "res=3db101d6f2e6e8eb tr=106:9c37b12ad30418d0 tr=130:75ecf6f771474e92 tr=124:9560a0c66c5c1a34",
	"3/X14":                 "res=be23e416120893e3 tr=89:b60b11cc805ec8cf tr=86:eddde5816276e839 tr=65:f318fcc21bf635b7",
	"3/X15":                 "res=9d5184548764c9b4 tr=89:93f250d3b3f54049 tr=86:62173d0e4f7b5347 tr=68:9c177d85e226032d",
	"3/X16":                 "res=a9473cd6cab3dbd1 tr=169:34232b1ea51e41b2 tr=164:e84c0ddef78aa8bc tr=119:1c718e1ebe13ea8a",
	"3/X2":                  "res=403bc1104f4e4bda tr=219:c0f861082a81abda tr=230:2caaeb79ffcc4841 tr=165:a918aa79f0cb6689",
	"3/X3":                  "res=3559acfc5ade832d tr=0:e3b0c44298fc1c14 tr=0:e3b0c44298fc1c14 tr=65:72314becad4a3b8e",
	"3/X5":                  "res=a1c2b1be324b712f tr=178:363d9c2aff255907 tr=172:f5b6e37b3ed9ecad tr=130:33313955f8e1f4e4",
	"3/X6":                  "res=5cc9c98b7f0ca3d5 tr=178:929079e00ab8ca27 tr=172:e8f93879bc925005 tr=130:94100eeb0e539bfb",
	"3/X7":                  "res=f9e3f478c0528273 tr=191:b3e69e906ca4b1b9 tr=210:42e5fb3baa870d4b tr=159:c0e749f2cb4f51c8",
	"3/X8":                  "res=bb364d4f8c959e49 tr=116:8d87347f5ff2c6b4 tr=111:d77f60b5f54601ba tr=93:083640577c385149",
	"3/X9":                  "res=a84fce3a6b25ee26 tr=137:458907e26f34db2e tr=154:af9d841c6abcad75 tr=107:f51aea9e8dd93201",
	"EXPLAIN ANALYZE/Q12":   "filter f10 = 5: column scan (cload)\nupdate table_b.f3: column store (cstore) per matching row\nupdate table_b.f4: column store (cstore) per matching row\nactual: 180 memory ops; est. 0.4 us with column accesses, 7.7 us row-only (17.15x)\n",
	"EXPLAIN ANALYZE/Q4":    "filter f10 > 700: column scan (cload)\naggregate SUM(f9): column scan (cload)\nactual: 297 memory ops; est. 0.9 us with column accesses, 10.2 us row-only (11.26x)\n",
	"EXPLAIN ANALYZE/Q8":    "hash join table_a x table_b on f9/f9: build and probe via column scan (cload)\nproject join pairs: row fetch (load) per output field\nactual: 504 memory ops; est. 2.7 us with column accesses, 19.4 us row-only (7.13x)\n",
	"EXPLAIN ANALYZE/X10":   "filter f1 = 123: column scan (cload)\nproject *: row fetch (load) per row\nactual: 240 memory ops; est. 0.6 us with column accesses, 10.2 us row-only (17.98x)\n",
	"EXPLAIN ANALYZE/X5":    "group by f16: column scan (cload) over key and aggregate columns\nactual: 480 memory ops; est. 3.1 us with column accesses, 10.2 us row-only (3.34x)\n",
	"EXPLAIN ANALYZE/X8":    "filter f10 < 200: column scan (cload)\nproject f1, f2: row fetch (load) per row\norder by f2: column scan (cload) for sort keys, in-CPU sort\nactual: 320 memory ops; est. 3.3 us with column accesses, 12.9 us row-only (3.95x)\n",
	"EXPLAIN/Q12":           "filter f10 = 5: column scan (cload)\nupdate table_b.f3: column store (cstore) per matching row\nupdate table_b.f4: column store (cstore) per matching row\n",
	"EXPLAIN/Q4":            "filter f10 > 700: column scan (cload)\naggregate SUM(f9): column scan (cload)\n",
	"EXPLAIN/Q8":            "hash join table_a x table_b on f9/f9: build and probe via column scan (cload)\nproject join pairs: row fetch (load) per output field\n",
	"EXPLAIN/X10":           "filter f1 = 123: column scan (cload)\nproject *: row fetch (load) per row\n",
	"EXPLAIN/X5":            "group by f16: column scan (cload) over key and aggregate columns\n",
	"EXPLAIN/X8":            "filter f10 < 200: column scan (cload)\nproject f1, f2: row fetch (load) per row\norder by f2: column scan (cload) for sort keys, in-CPU sort\n",
}
