package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"rcnvm/internal/fault"
	"rcnvm/internal/funcmem"
	"rcnvm/internal/imdb"
	"rcnvm/internal/trace"
)

// The scan operators' observable behaviour — result, memory counters,
// recorded access stream, fault draws — pinned as constants recorded from
// the per-cell implementation (one readCell per word) before the column
// reader replaced it. A mismatch prints the line the code produced; the
// constants change only with a deliberate change of the access stream.

var goldenSchema = imdb.Schema{Name: "g", Fields: []imdb.Field{
	{Name: "k", Words: 1}, {Name: "w", Words: 3}, {Name: "v", Words: 1},
}}

// goldenTable fills a table with reproducible values and tombstones every
// 7th row plus the block [blockLo, blockHi).
func goldenTable(t *testing.T, db *DB, name string, capacity, rows, blockLo, blockHi int) *Table {
	t.Helper()
	tbl, err := db.CreateTable(name, goldenSchema, capacity)
	if err != nil {
		t.Fatal(err)
	}
	x := uint64(capacity)
	next := func(n uint64) uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 33) % n
	}
	for i := 0; i < rows; i++ {
		if _, err := tbl.Append(next(5000), next(1<<40), next(1<<40), next(1<<40), next(1<<20)); err != nil {
			t.Fatal(err)
		}
	}
	var dead []int
	for row := 0; row < rows; row++ {
		if row%7 == 3 || (row >= blockLo && row < blockHi) {
			dead = append(dead, row)
		}
	}
	if err := tbl.Delete(listed(dead)); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// goldenDB builds the two tables of the suite: "s" has an uneven last chunk
// (5 000 rows over 16 chunks of 313) and a tombstone block across the
// first chunk boundary; "b" has several column groups per chunk (2 500
// tuples per chunk, 1 024 per group), a partly filled last chunk and a
// block across a chunk boundary that also follows a group boundary.
func goldenDB(t *testing.T) (*DB, *Table, *Table) {
	t.Helper()
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	s := goldenTable(t, db, "s", 5000, 5000, 300, 330)
	b := goldenTable(t, db, "b", 40000, 39990, 2480, 2530)
	return db, s, b
}

type goldenOp struct {
	name string
	run  func() (any, error)
}

// goldenOps lists every scan operator over every row-list shape, each
// reading through a handle that records into sink (nil: records nothing).
func goldenOps(s, b *Table, sink *trace.Stream) []goldenOp {
	var ops []goldenOp
	for _, tc := range []struct {
		name string
		t    *Table
	}{{"s", s}, {"b", b}} {
		tbl := tc.t.Traced(sink)
		live := tbl.LiveRows()
		var asc, desc []int
		for _, row := range live {
			if row%5 == 1 {
				asc = append(asc, row)
			}
		}
		for i := len(live) - 1; i >= 0; i-- {
			if live[i]%11 == 3 {
				desc = append(desc, live[i])
			}
		}
		// A repeat next to itself and one far from its first visit.
		desc = slices.Insert(desc, 3, desc[2])
		desc = append(desc, desc[0])

		ops = append(ops,
			goldenOp{tc.name + "/where/k", func() (any, error) {
				return tbl.ScanWhere("k", func(v []uint64) bool { return v[0]%3 == 0 })
			}},
			goldenOp{tc.name + "/where/w", func() (any, error) {
				return tbl.ScanWhere("w", func(v []uint64) bool { return len(v) == 3 && (v[0]^v[2])&1 == 1 })
			}},
		)
		for _, lc := range []struct {
			name string
			rows []int
		}{{"nil", nil}, {"asc", asc}, {"desc", desc}} {
			rows := lc.rows
			ops = append(ops,
				goldenOp{tc.name + "/sum/" + lc.name, func() (any, error) { return tbl.SumField("v", rows) }},
				goldenOp{tc.name + "/avg/" + lc.name, func() (any, error) { return tbl.AvgField("v", rows) }},
				goldenOp{tc.name + "/minmax/" + lc.name, func() (any, error) {
					lo, hi, err := tbl.MinMax("k", orAll(rows))
					return [2]uint64{lo, hi}, err
				}},
				goldenOp{tc.name + "/group/" + lc.name, func() (any, error) { return tbl.GroupSum("k", "v", rows) }},
			)
		}
	}
	return ops
}

func shortDigest(v any) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(v))))[:16]
}

// streamDigest is the expanded op count and the SHA-256 over every field
// of every op the recorded stream stands for.
func streamDigest(s trace.Stream) string {
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
	return fmt.Sprintf("%d:%x", n, h.Sum(nil))
}

func countsDelta(a, b funcmem.Counts) string {
	return fmt.Sprintf("%d/%d/%d/%d", b.RowReads-a.RowReads, b.ColReads-a.ColReads,
		b.RowWrites-a.RowWrites, b.ColWrites-a.ColWrites)
}

// outcome renders a result or, for an uncorrectable read, where it struck.
func outcome(t *testing.T, name string, res any, err error) string {
	t.Helper()
	if err == nil {
		return "res=" + shortDigest(res)
	}
	var ue *fault.UncorrectableError
	if !errors.As(err, &ue) {
		t.Fatalf("%s: %v", name, err)
	}
	c := ue.Coord
	return fmt.Sprintf("unc=%d.%d.%d.%d.%d.%d/%s", c.Channel, c.Rank, c.Bank, c.Subarray, c.Row, c.Column, ue.Orient)
}

// checkGolden compares got with the committed table and, on any
// difference, logs got as the literal to commit.
func checkGolden(t *testing.T, want, got map[string]string) {
	t.Helper()
	bad := len(want) != len(got)
	for name, g := range got {
		if want[name] != g {
			bad = true
			t.Errorf("%s:\n got  %s\n want %s", name, g, want[name])
		}
	}
	if !bad {
		return
	}
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

// TestScanGolden: result, Counts delta (row reads/col reads/row writes/col
// writes) and recorded stream of every operator. Each operator also runs
// untraced and must report the same result and counts.
func TestScanGolden(t *testing.T) {
	got := make(map[string]string)
	db, s, b := goldenDB(t)
	var stream trace.Stream
	tracedOps := goldenOps(s, b, &stream)
	for i, op := range goldenOps(s, b, nil) {
		name := DualAddress.String() + "/" + op.name
		c0 := db.Mem().Counts()
		res, err := op.run()
		c1 := db.Mem().Counts()
		plain := outcome(t, name, res, err) + " n=" + countsDelta(c0, c1)

		stream = nil
		res, err = tracedOps[i].run()
		traced := outcome(t, name, res, err) + " n=" + countsDelta(c1, db.Mem().Counts())
		if plain != traced {
			t.Errorf("%s: untraced %q, traced %q", name, plain, traced)
		}
		got[name] = traced + " tr=" + streamDigest(stream)
	}
	checkGolden(t, goldenScan, got)
}

// TestScanGoldenFaults: the same operators in sequence on one injector
// (fixed seed, an RBER that yields corrected and uncorrectable words).
// Every draw's tick is the injector's running read count, so each line
// depends on every read before it: value or failing coordinate, the
// stream up to and including the failing read, the cells counted, and
// the injector's counters.
func TestScanGoldenFaults(t *testing.T) {
	got := make(map[string]string)
	db, s, b := goldenDB(t)
	db.EnableFaults(fault.Config{Enabled: true, Seed: 0x5eed, RBER: 2e-4})
	var stream trace.Stream
	for _, op := range goldenOps(s, b, &stream) {
		name := DualAddress.String() + "/" + op.name
		c0 := db.Mem().Counts()
		stream = nil
		res, err := op.run()
		f := db.Faults().Counts()
		got[name] = fmt.Sprintf("%s n=%s tr=%s f=%d/%d/%d/%d/%d", outcome(t, name, res, err),
			countsDelta(c0, db.Mem().Counts()), streamDigest(stream),
			f.TransientBits, f.StuckBits, f.Corrected, f.Uncorrectable, f.Miscorrected)
	}
	checkGolden(t, goldenScanFaults, got)
}

// TestConcurrentScansCountExactly: eight readers share one table under
// RLock; the counters end at exactly eight times one reader's delta.
func TestConcurrentScansCountExactly(t *testing.T) {
	db, s, _ := goldenDB(t)
	scan := func() error {
		db.RLock()
		defer db.RUnlock()
		rows, err := s.ScanWhere("k", func(v []uint64) bool { return v[0]%2 == 0 })
		if err != nil {
			return err
		}
		if _, err := s.SumField("v", rows); err != nil {
			return err
		}
		_, err = s.GroupSum("k", "v", nil)
		return err
	}
	c0 := db.Mem().Counts()
	if err := scan(); err != nil {
		t.Fatal(err)
	}
	c1 := db.Mem().Counts()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := scan(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	c2 := db.Mem().Counts()
	one := funcmem.Counts{RowReads: c1.RowReads - c0.RowReads, ColReads: c1.ColReads - c0.ColReads}
	all := funcmem.Counts{RowReads: c2.RowReads - c1.RowReads, ColReads: c2.ColReads - c1.ColReads}
	if one.RowReads+one.ColReads == 0 || all.RowReads != 8*one.RowReads || all.ColReads != 8*one.ColReads {
		t.Fatalf("one scan %+v, eight concurrent %+v", one, all)
	}
}

var goldenScan = map[string]string{
	"dual-address/b/avg/asc":     "res=30356733f65e047c n=0/6848/0/0 tr=6848:babb6cfe5309a1e438eae427ad414972da1004c68bed4af33f15ade8e71b3a6f",
	"dual-address/b/avg/desc":    "res=98c1b853a41bda99 n=0/3114/0/0 tr=3114:c9901ac1916edbc2ea7d022a117c23b0e27d5210f3da9cb06caa2b56863a7b7f",
	"dual-address/b/avg/nil":     "res=ddc66cf45cf0835f n=0/34234/0/0 tr=34234:1325f90546393faf6108e5b5bf167af2e70490be1c3674351f9b7371f3d488c6",
	"dual-address/b/group/asc":   "res=c168eeff6dd65e77 n=0/13696/0/0 tr=13696:0d5921c15b37da9d9acbd140754d4a493883ff049ca3a1a470a256fad8f37e31",
	"dual-address/b/group/desc":  "res=01103c3dab0885ec n=0/6228/0/0 tr=6228:5d90085148fe5b763dd1cfd3eceba9fe6c00e371801f51c1dbe20fb5bb085a79",
	"dual-address/b/group/nil":   "res=2d0a722f4b536900 n=0/68468/0/0 tr=68468:f73bf75181bb6a5eae21e3a456bd68cd3b120a6d75676948a291a2b171d09e2b",
	"dual-address/b/minmax/asc":  "res=c237ea7a0f6d9a36 n=0/6848/0/0 tr=6848:a245de3732e951897987988f9f239a3698d25eb5adcc622b7260494ec8651091",
	"dual-address/b/minmax/desc": "res=c237ea7a0f6d9a36 n=0/3114/0/0 tr=3114:1df86c1ef361bd2c8b01842e4f5ea1feff8639c0a623f0494f8d4ba7832c225c",
	"dual-address/b/minmax/nil":  "res=c237ea7a0f6d9a36 n=0/34234/0/0 tr=34234:3e247e3ad504e37773badc7eb077677e7b4fc40781f69684f9be6d50da9d5e40",
	"dual-address/b/sum/asc":     "res=014a767bd09832e7 n=0/6848/0/0 tr=6848:babb6cfe5309a1e438eae427ad414972da1004c68bed4af33f15ade8e71b3a6f",
	"dual-address/b/sum/desc":    "res=8ac4202bdd7184fb n=0/3114/0/0 tr=3114:c9901ac1916edbc2ea7d022a117c23b0e27d5210f3da9cb06caa2b56863a7b7f",
	"dual-address/b/sum/nil":     "res=c4c7b43a4cd500b0 n=0/34234/0/0 tr=34234:1325f90546393faf6108e5b5bf167af2e70490be1c3674351f9b7371f3d488c6",
	"dual-address/b/where/k":     "res=46ce76806cff6df1 n=0/34234/0/0 tr=34234:3e247e3ad504e37773badc7eb077677e7b4fc40781f69684f9be6d50da9d5e40",
	"dual-address/b/where/w":     "res=76956df43803370f n=0/102702/0/0 tr=102702:270b9c4fb6cee9cbfc083e0984f4f90e9b03f90850419177f2deedf0bb0455e8",
	"dual-address/s/avg/asc":     "res=9d61f2f4138c97a7 n=0/853/0/0 tr=853:4cce73dc66cafbb7bab957516d426997aa5a94252ac1cc182b411ffc9933ba17",
	"dual-address/s/avg/desc":    "res=9b0dc31e16b04deb n=0/390/0/0 tr=390:d0d2db0f0734eb78f78ecc003c7d155987fa06e20ffc1d6fbb5ea0f9484fea7c",
	"dual-address/s/avg/nil":     "res=836a2dd1193c0075 n=0/4260/0/0 tr=4260:d9be8a49de2fa935d50af9d113402b954fe5e088bdebee150457a165e46b8d77",
	"dual-address/s/group/asc":   "res=d9dc2b418514e286 n=0/1706/0/0 tr=1706:949dc736ac8c175cadbeb61fd8dffa79e903f3b2265a700fb6db1ceeef7779c6",
	"dual-address/s/group/desc":  "res=70f0fc879f3ed5d8 n=0/780/0/0 tr=780:218b288dd13c3c7ec10ff083742f95a048044b310ddc8f75c844e4cf8ff3d802",
	"dual-address/s/group/nil":   "res=1ce6bec39e52f4c9 n=0/8520/0/0 tr=8520:8c5c9091a933e451024061506e007dfc25ef27cf6276c3014943d19f30c91a39",
	"dual-address/s/minmax/asc":  "res=b820515e201bc1be n=0/853/0/0 tr=853:350d44bb9ba3601151f190386d0d7756eac04258c56a0e7d3c9910658d916bc9",
	"dual-address/s/minmax/desc": "res=c87ba519e2475e73 n=0/390/0/0 tr=390:bd9bf728f19853bf9c64bd4e2d03fd3b6ca6d4b17d7d7b801870f3f907270c57",
	"dual-address/s/minmax/nil":  "res=90accafdb60295a6 n=0/4260/0/0 tr=4260:b0ec0eaa6b2c47990907a163678634e8000ad24a754c6c6c358f0c0c6897566d",
	"dual-address/s/sum/asc":     "res=bd8145ccdbbaf31e n=0/853/0/0 tr=853:4cce73dc66cafbb7bab957516d426997aa5a94252ac1cc182b411ffc9933ba17",
	"dual-address/s/sum/desc":    "res=c2452a74b749d8a4 n=0/390/0/0 tr=390:d0d2db0f0734eb78f78ecc003c7d155987fa06e20ffc1d6fbb5ea0f9484fea7c",
	"dual-address/s/sum/nil":     "res=73df81d2a47e9a45 n=0/4260/0/0 tr=4260:d9be8a49de2fa935d50af9d113402b954fe5e088bdebee150457a165e46b8d77",
	"dual-address/s/where/k":     "res=ad561da8c11b77b6 n=0/4260/0/0 tr=4260:b0ec0eaa6b2c47990907a163678634e8000ad24a754c6c6c358f0c0c6897566d",
	"dual-address/s/where/w":     "res=a1d53862cc92fa9a n=0/12780/0/0 tr=12780:ed4b825a0c419160517cfdfa66bc38c6c86eae498142dfaa3cad47aff478e2e0",
}

var goldenScanFaults = map[string]string{
	"dual-address/b/avg/asc":     "res=30356733f65e047c n=0/6848/0/0 tr=6848:babb6cfe5309a1e438eae427ad414972da1004c68bed4af33f15ade8e71b3a6f f=1593/0/1567/13/0",
	"dual-address/b/avg/desc":    "res=98c1b853a41bda99 n=0/3114/0/0 tr=3114:c9901ac1916edbc2ea7d022a117c23b0e27d5210f3da9cb06caa2b56863a7b7f f=1947/0/1919/14/0",
	"dual-address/b/avg/nil":     "unc=1.2.2.0.557.9/column n=0/12027/0/0 tr=12027:8fb548985cc655f19b7b3173dcbaf345222818b199ac0cd93fb7873266aec626 f=1034/0/1014/10/0",
	"dual-address/b/group/asc":   "res=c168eeff6dd65e77 n=0/13696/0/0 tr=13696:0d5921c15b37da9d9acbd140754d4a493883ff049ca3a1a470a256fad8f37e31 f=1859/0/1831/14/0",
	"dual-address/b/group/desc":  "res=01103c3dab0885ec n=0/6228/0/0 tr=6228:5d90085148fe5b763dd1cfd3eceba9fe6c00e371801f51c1dbe20fb5bb085a79 f=2052/0/2022/15/0",
	"dual-address/b/group/nil":   "unc=1.1.2.0.247.14/column n=0/16708/0/0 tr=16708:025b35818c2f671e0b8146454307db7698788f26a357d289763b9afb3384983b f=1484/0/1460/12/0",
	"dual-address/b/minmax/asc":  "unc=1.3.2.0.437.5/column n=0/3244/0/0 tr=3244:2aef718c14db7e58c0efce892b82e12ec55f82f15be6a2e0d76da2e2f9254260 f=1645/0/1617/14/0",
	"dual-address/b/minmax/desc": "unc=1.2.3.0.360.0/column n=0/557/0/0 tr=557:e0d1228690e226bc369dfc4eec409752a962a16e0a52e73bcb239ed1ffb678d4 f=1956/0/1926/15/0",
	"dual-address/b/minmax/nil":  "unc=1.3.2.0.557.0/column n=0/15435/0/0 tr=15435:a957b5c3c21a42e64a9ac5096cde3cac56add55207c0697224017c304a054a47 f=1258/0/1236/11/0",
	"dual-address/b/sum/asc":     "unc=1.0.2.0.96.4/column n=0/438/0/0 tr=438:75082c7916cdcba8d1b86f6075343a7d7f0b80cdf7f374fbf2aa7f9e2cca4db8 f=1494/0/1468/13/0",
	"dual-address/b/sum/desc":    "res=8ac4202bdd7184fb n=0/3114/0/0 tr=3114:c9901ac1916edbc2ea7d022a117c23b0e27d5210f3da9cb06caa2b56863a7b7f f=1903/0/1875/14/0",
	"dual-address/b/sum/nil":     "unc=1.0.2.0.386.14/column n=0/4187/0/0 tr=4187:7e0ab91c681349d1265aeb3da64e8b3a7d10650c3d0f08d552c32eb58bbfa78d f=863/0/845/9/0",
	"dual-address/b/where/k":     "unc=0.1.2.0.546.5/column n=0/5589/0/0 tr=5589:4bc3b5bb9f565a7fc961a819617ca20bde72d509dfa8e49892b8bdcfa9d32328 f=536/0/522/7/0",
	"dual-address/b/where/w":     "unc=0.1.2.0.244.11/column n=0/18622/0/0 tr=18622:4803e0210ede1c41bebe87bad2a8d73cb5f08b87ab1a5f05d7e1a4f71fc1ad22 f=812/0/796/8/0",
	"dual-address/s/avg/asc":     "unc=0.1.0.0.180.4/column n=0/134/0/0 tr=134:61f219b81168eb1f0c7aa254ffd438745cfc213b2ecd0b1e2b60492944eada8f f=393/0/381/6/0",
	"dual-address/s/avg/desc":    "res=9b0dc31e16b04deb n=0/390/0/0 tr=390:d0d2db0f0734eb78f78ecc003c7d155987fa06e20ffc1d6fbb5ea0f9484fea7c f=435/0/423/6/0",
	"dual-address/s/avg/nil":     "unc=1.3.0.0.182.4/column n=0/2009/0/0 tr=2009:f589f6035936d162a513df6b89a322357cb88ef3c6e9509b3f1d389cc3569a37 f=246/0/240/3/0",
	"dual-address/s/group/asc":   "res=d9dc2b418514e286 n=0/1706/0/0 tr=1706:949dc736ac8c175cadbeb61fd8dffa79e903f3b2265a700fb6db1ceeef7779c6 f=422/0/410/6/0",
	"dual-address/s/group/desc":  "res=70f0fc879f3ed5d8 n=0/780/0/0 tr=780:218b288dd13c3c7ec10ff083742f95a048044b310ddc8f75c844e4cf8ff3d802 f=453/0/441/6/0",
	"dual-address/s/group/nil":   "unc=1.1.1.0.304.4/column n=0/6374/0/0 tr=6374:301e9371d1c91b8db8841f1f66792348dea5b908b7b7d6b127bd65ba621a760f f=379/0/369/5/0",
	"dual-address/s/minmax/asc":  "res=b820515e201bc1be n=0/853/0/0 tr=853:350d44bb9ba3601151f190386d0d7756eac04258c56a0e7d3c9910658d916bc9 f=405/0/393/6/0",
	"dual-address/s/minmax/desc": "res=c87ba519e2475e73 n=0/390/0/0 tr=390:bd9bf728f19853bf9c64bd4e2d03fd3b6ca6d4b17d7d7b801870f3f907270c57 f=438/0/426/6/0",
	"dual-address/s/minmax/nil":  "unc=1.3.0.0.56.0/column n=0/1901/0/0 tr=1901:b5e302f5917f896670e3bdc7768f21ef501f29e1cb3376aafb57cf2f1d3f6479 f=275/0/267/4/0",
	"dual-address/s/sum/asc":     "res=bd8145ccdbbaf31e n=0/853/0/0 tr=853:4cce73dc66cafbb7bab957516d426997aa5a94252ac1cc182b411ffc9933ba17 f=389/0/379/5/0",
	"dual-address/s/sum/desc":    "res=c2452a74b749d8a4 n=0/390/0/0 tr=390:d0d2db0f0734eb78f78ecc003c7d155987fa06e20ffc1d6fbb5ea0f9484fea7c f=431/0/419/6/0",
	"dual-address/s/sum/nil":     "unc=0.1.1.0.201.4/column n=0/2830/0/0 tr=2830:4c0068e6f745e44cd4065a70bcf9c4aee622e92682e1deb9448ef96984ace660 f=208/0/204/2/0",
	"dual-address/s/where/k":     "res=ad561da8c11b77b6 n=0/4260/0/0 tr=4260:b0ec0eaa6b2c47990907a163678634e8000ad24a754c6c6c358f0c0c6897566d f=53/0/53/0/0",
	"dual-address/s/where/w":     "unc=1.3.0.0.121.1/column n=0/5869/0/0 tr=5869:c1613c409c98ce9c6af754d283423103fee39d9070edd4708a260579a63f8509 f=154/0/152/1/0",
}
