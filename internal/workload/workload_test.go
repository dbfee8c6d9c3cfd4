package workload

import (
	"testing"

	"rcnvm/internal/config"
	"rcnvm/internal/imdb"
	"rcnvm/internal/sim"
	"rcnvm/internal/stats"
)

// smallCache shrinks the cache hierarchy so that the SmallParams tables
// (≈1 MB) are memory-resident, making the small-scale shape tests
// memory-bound like the full-scale benchmarks (whose tables exceed the
// 8 MB L3 of Table 1).
func smallCache(sys config.System) config.System {
	sys.Cache.L2Sets = 64  // 32 KB
	sys.Cache.L3Sets = 256 // 128 KB
	return sys
}

func runQ(t *testing.T, sys config.System, id string, p Params) sim.Result {
	t.Helper()
	spec, ok := QueryByID(id)
	if !ok {
		t.Fatalf("unknown query %s", id)
	}
	res, err := Run(sys, spec, p)
	if err != nil {
		t.Fatalf("%s on %s: %v", id, sys.Name, err)
	}
	return res
}

func TestAllQueriesRunOnAllSystems(t *testing.T) {
	p := SmallParams()
	for _, sys := range config.All() {
		for _, q := range Queries() {
			res := runQ(t, sys, q.ID, p)
			if res.TimePs <= 0 {
				t.Errorf("%s on %s: non-positive time", q.ID, sys.Name)
			}
			if res.LLCMisses() == 0 {
				t.Errorf("%s on %s: no memory traffic", q.ID, sys.Name)
			}
		}
	}
}

func TestGroupQueriesRun(t *testing.T) {
	p := SmallParams()
	for _, g := range []int{0, 32} {
		p.GroupLines = g
		for _, sys := range []config.System{config.RCNVM(), config.DRAM()} {
			for _, q := range GroupQueries() {
				res := runQ(t, sys, q.ID, p)
				if res.TimePs <= 0 {
					t.Errorf("%s (g=%d) on %s failed", q.ID, g, sys.Name)
				}
			}
		}
	}
}

func TestDeterministicResults(t *testing.T) {
	p := SmallParams()
	a := runQ(t, config.RCNVM(), "Q4", p)
	b := runQ(t, config.RCNVM(), "Q4", p)
	if a.TimePs != b.TimePs || a.LLCMisses() != b.LLCMisses() {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

// TestAggregateShape reproduces the headline behaviour on the aggregate
// queries: RC-NVM beats DRAM and RRAM by a large factor, and its LLC
// misses drop well below a third of DRAM's (Figure 19).
func TestAggregateShape(t *testing.T) {
	p := SmallParams()
	rc := runQ(t, smallCache(config.RCNVM()), "Q6", p)
	dram := runQ(t, smallCache(config.DRAM()), "Q6", p)
	rram := runQ(t, smallCache(config.RRAM()), "Q6", p)
	if rc.TimePs*3 > dram.TimePs {
		t.Errorf("Q6: RC-NVM %.2fM vs DRAM %.2fM cycles; want >3x win",
			rc.MCycles(), dram.MCycles())
	}
	if rc.TimePs*3 > rram.TimePs {
		t.Errorf("Q6: RC-NVM %.2fM vs RRAM %.2fM cycles; want >3x win",
			rc.MCycles(), rram.MCycles())
	}
	if rc.LLCMisses()*3 > dram.LLCMisses() {
		t.Errorf("Q6: RC-NVM misses %d vs DRAM %d; want < 1/3", rc.LLCMisses(), dram.LLCMisses())
	}
}

// TestQ3Exception: Q3 is dominated by fetching 90% of full tuples —
// sequential row work where DRAM is the right tool and RC-NVM must not win
// big (the paper's one exception).
func TestQ3Exception(t *testing.T) {
	p := SmallParams()
	rc := runQ(t, smallCache(config.RCNVM()), "Q3", p)
	dram := runQ(t, smallCache(config.DRAM()), "Q3", p)
	// DRAM must at least tie (within 10%) — unlike every other query,
	// where RC-NVM wins by 2x and more.
	if dram.TimePs > rc.TimePs*11/10 {
		t.Errorf("Q3: DRAM %.2fM should at least tie RC-NVM %.2fM", dram.MCycles(), rc.MCycles())
	}
}

// TestGSDRAMShape: GS-DRAM helps the power-of-2 table-a aggregates but not
// the table-b ones.
func TestGSDRAMShape(t *testing.T) {
	p := SmallParams()
	gsA := runQ(t, smallCache(config.GSDRAM()), "Q4", p)
	dramA := runQ(t, smallCache(config.DRAM()), "Q4", p)
	if gsA.TimePs*2 > dramA.TimePs {
		t.Errorf("Q4: GS-DRAM %.2fM vs DRAM %.2fM; gather should win clearly",
			gsA.MCycles(), dramA.MCycles())
	}
	gsB := runQ(t, smallCache(config.GSDRAM()), "Q5", p)
	dramB := runQ(t, smallCache(config.DRAM()), "Q5", p)
	ratio := float64(gsB.TimePs) / float64(dramB.TimePs)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("Q5: GS-DRAM/DRAM = %.2f; non-power-of-2 should match DRAM", ratio)
	}
	// RC-NVM beats GS-DRAM clearly where gathering cannot work (table-b,
	// joins, updates) and therefore on average across the mix — the
	// paper's 2.37x average claim. (On the pure table-a aggregates both
	// move the same lines and GS-DRAM's faster DDR3 bus can win; see
	// EXPERIMENTS.md.)
	var rcSum, gsSum float64
	for _, id := range []string{"Q2", "Q4", "Q5", "Q8", "Q12"} {
		rcSum += runQ(t, smallCache(config.RCNVM()), id, p).MCycles()
		gsSum += runQ(t, smallCache(config.GSDRAM()), id, p).MCycles()
	}
	if rcSum*1.5 > gsSum {
		t.Errorf("average over mixed queries: RC-NVM %.2fM vs GS-DRAM %.2fM; want >1.5x win", rcSum, gsSum)
	}
}

// TestCoherenceOverheadSmall: the synonym/coherence overhead on RC-NVM
// queries stays within the paper's 0.2%..3.4% band (we assert < 5%).
func TestCoherenceOverheadSmall(t *testing.T) {
	p := SmallParams()
	for _, id := range []string{"Q1", "Q6", "Q12"} {
		res := runQ(t, config.RCNVM(), id, p)
		if ovh := res.OverheadRatio(); ovh > 0.05 {
			t.Errorf("%s coherence overhead = %.2f%%, want < 5%%", id, ovh*100)
		}
	}
}

func TestMicroAllRun(t *testing.T) {
	p := SmallParams()
	for _, sys := range []config.System{config.RCNVM(), config.RRAM(), config.DRAM()} {
		for _, m := range MicroSpecs() {
			res, err := RunMicro(sys, m, p)
			if err != nil {
				t.Fatalf("%s on %s: %v", m.ID, sys.Name, err)
			}
			if res.TimePs <= 0 {
				t.Errorf("%s on %s: no time", m.ID, sys.Name)
			}
		}
	}
}

// TestMicroShape: the Figure 17 orderings. Column scans on RC-NVM beat
// DRAM by a wide margin; row scans on DRAM beat RRAM; RC-NVM tracks RRAM
// on row scans.
func TestMicroShape(t *testing.T) {
	p := SmallParams()
	get := func(sys config.System, id string) sim.Result {
		for _, m := range MicroSpecs() {
			if m.ID == id {
				res, err := RunMicro(sys, m, p)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
		}
		t.Fatalf("no micro %s", id)
		return sim.Result{}
	}
	rcCol := get(smallCache(config.RCNVM()), "col-read-L2")
	dramCol := get(smallCache(config.DRAM()), "col-read-L2")
	if rcCol.TimePs*2 > dramCol.TimePs {
		t.Errorf("col-read-L2: RC-NVM %.2fM vs DRAM %.2fM; want clear win",
			rcCol.MCycles(), dramCol.MCycles())
	}
	rcRow := get(smallCache(config.RCNVM()), "row-read-L1")
	rramRow := get(smallCache(config.RRAM()), "row-read-L1")
	dramRow := get(smallCache(config.DRAM()), "row-read-L1")
	if dramRow.TimePs >= rramRow.TimePs {
		t.Errorf("row-read-L1: DRAM %.2fM should beat RRAM %.2fM",
			dramRow.MCycles(), rramRow.MCycles())
	}
	ratio := float64(rcRow.TimePs) / float64(rramRow.TimePs)
	if ratio > 1.15 {
		t.Errorf("row-read-L1: RC-NVM/RRAM = %.2f, want ~1.04", ratio)
	}
}

// TestGroupCachingImproves: Figure 23 — Q15 with 128-line group caching
// beats the no-group-caching baseline on RC-NVM.
func TestGroupCachingImproves(t *testing.T) {
	p := SmallParams()
	p.GroupLines = 0
	base := runQ(t, smallCache(config.RCNVM()), "Q15", p)
	p.GroupLines = 128
	grouped := runQ(t, smallCache(config.RCNVM()), "Q15", p)
	if grouped.TimePs >= base.TimePs {
		t.Errorf("Q15: group caching %.2fM not faster than baseline %.2fM",
			grouped.MCycles(), base.MCycles())
	}
}

func TestQueryByID(t *testing.T) {
	if _, ok := QueryByID("Q1"); !ok {
		t.Error("Q1 missing")
	}
	if _, ok := QueryByID("Q15"); !ok {
		t.Error("Q15 missing")
	}
	if _, ok := QueryByID("Q99"); ok {
		t.Error("Q99 should not exist")
	}
	if len(Queries()) != 13 || len(GroupQueries()) != 2 {
		t.Error("query set sizes wrong")
	}
}

func TestSelectTuplesDeterministic(t *testing.T) {
	a := selectTuples(1000, 0.1, 7)
	b := selectTuples(1000, 0.1, 7)
	if len(a) != len(b) {
		t.Fatal("nondeterministic selection")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic selection")
		}
	}
	// Roughly the right cardinality and sorted.
	if len(a) < 50 || len(a) > 200 {
		t.Errorf("selectivity off: %d of 1000", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] {
			t.Fatal("matches not sorted")
		}
	}
}

func TestHashSlotsInRange(t *testing.T) {
	s := hashSlots(1000, 1024)
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= 1024 {
			t.Fatalf("slot %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) < 500 {
		t.Errorf("hash slots poorly spread: %d distinct", len(seen))
	}
}

func TestMemWritesOnUpdates(t *testing.T) {
	p := SmallParams()
	res := runQ(t, smallCache(config.RCNVM()), "Q13", p)
	if res.Counters[stats.MemWritebacks] == 0 {
		t.Error("update query produced no write-backs")
	}
}

// TestFigure18OrderingMatrix asserts the Figure 18 orderings for every
// query at the small memory-bound scale: RC-NVM beats plain RRAM
// everywhere, beats DRAM everywhere except the Q3 exception (where DRAM
// must at least tie), and GS-DRAM exactly matches DRAM wherever gathering
// cannot apply (table-b queries, joins, updates).
func TestFigure18OrderingMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run is slow")
	}
	p := SmallParams()
	type row struct{ rc, rram, gs, dram float64 }
	results := map[string]row{}
	for _, q := range Queries() {
		results[q.ID] = row{
			rc:   runQ(t, smallCache(config.RCNVM()), q.ID, p).MCycles(),
			rram: runQ(t, smallCache(config.RRAM()), q.ID, p).MCycles(),
			gs:   runQ(t, smallCache(config.GSDRAM()), q.ID, p).MCycles(),
			dram: runQ(t, smallCache(config.DRAM()), q.ID, p).MCycles(),
		}
	}
	for id, r := range results {
		if r.rc >= r.rram {
			t.Errorf("%s: RC-NVM %.3f not better than RRAM %.3f", id, r.rc, r.rram)
		}
		if id == "Q3" {
			if r.dram > r.rc*1.1 {
				t.Errorf("Q3: DRAM %.3f should at least tie RC-NVM %.3f", r.dram, r.rc)
			}
			continue
		}
		if r.rc >= r.dram {
			t.Errorf("%s: RC-NVM %.3f not better than DRAM %.3f", id, r.rc, r.dram)
		}
	}
	// GS-DRAM == DRAM on the non-gatherable queries.
	for _, id := range []string{"Q2", "Q3", "Q5", "Q7", "Q8", "Q9", "Q12", "Q13"} {
		r := results[id]
		ratio := r.gs / r.dram
		if ratio < 0.97 || ratio > 1.03 {
			t.Errorf("%s: GS-DRAM/DRAM = %.3f, want ~1 (gathering inapplicable)", id, ratio)
		}
	}
	// GS-DRAM clearly helps the gather-eligible table-a scans.
	for _, id := range []string{"Q1", "Q4", "Q6", "Q10", "Q11"} {
		r := results[id]
		if r.gs*15 > r.dram*10 {
			t.Errorf("%s: GS-DRAM %.3f not clearly better than DRAM %.3f", id, r.gs, r.dram)
		}
	}
}

// TestCacheInvariantsAfterQueries: the synonym/coherence machinery leaves
// the hierarchy structurally consistent after mixed-orientation workloads.
func TestCacheInvariantsAfterQueries(t *testing.T) {
	p := SmallParams()
	for _, id := range []string{"Q1", "Q2", "Q12"} {
		spec, _ := QueryByID(id)
		env, err := NewEnv(smallCache(config.RCNVM()), p)
		if err != nil {
			t.Fatal(err)
		}
		if err := spec.Build(env); err != nil {
			t.Fatal(err)
		}
		s, err := sim.New(env.Sys)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(env.Exec.Streams()); err != nil {
			t.Fatal(err)
		}
		if err := s.Hier.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}

// TestMixedWorkloadShape: the OLXP mix — the paper's motivating scenario —
// favours RC-NVM over both conventional memories.
func TestMixedWorkloadShape(t *testing.T) {
	p := SmallParams()
	rc, err := RunMixedRounds(smallCache(config.RCNVM()), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	dram, err := RunMixedRounds(smallCache(config.DRAM()), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	rram, err := RunMixedRounds(smallCache(config.RRAM()), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rc.TimePs >= dram.TimePs || rc.TimePs >= rram.TimePs {
		t.Errorf("OLXP mix: RC-NVM %.3fM vs DRAM %.3fM / RRAM %.3fM",
			rc.MCycles(), dram.MCycles(), rram.MCycles())
	}
	// The mix genuinely uses both orientations on RC-NVM.
	if rc.Counters[stats.RowActivations] == 0 || rc.Counters[stats.ColActivations] == 0 {
		t.Error("mix should activate both row and column buffers")
	}
}

// TestPAXLayoutTradeoff: PAX (the software hybrid of the paper's related
// work) makes column scans fast on conventional DRAM but pays for it on
// whole-tuple reads — while RC-NVM's hardware dual addressing needs no such
// compromise. This is the §8 comparison against software-only approaches.
func TestPAXLayoutTradeoff(t *testing.T) {
	p := SmallParams()
	run := func(sys config.System, m MicroSpec) float64 {
		res, err := RunMicro(smallCache(sys), m, p)
		if err != nil {
			t.Fatal(err)
		}
		return res.MCycles()
	}
	colScan := func(layout imdb.Layout) MicroSpec {
		return MicroSpec{ID: "col-read", Layout: layout, Column: true}
	}
	rowScan := func(layout imdb.Layout) MicroSpec {
		return MicroSpec{ID: "row-read", Layout: layout}
	}

	dramRowStoreScan := run(config.DRAM(), colScan(imdb.RowMajor))
	dramPAXScan := run(config.DRAM(), colScan(imdb.PAX))
	rcScan := run(config.RCNVM(), colScan(imdb.ColMajor))
	if dramPAXScan*2 > dramRowStoreScan {
		t.Errorf("PAX col scan %.3fM should clearly beat row-store %.3fM on DRAM",
			dramPAXScan, dramRowStoreScan)
	}

	dramRowStoreFetch := run(config.DRAM(), rowScan(imdb.RowMajor))
	dramPAXFetch := run(config.DRAM(), rowScan(imdb.PAX))
	if dramPAXFetch <= dramRowStoreFetch {
		t.Errorf("PAX tuple fetch %.3fM should pay vs row-store %.3fM on DRAM",
			dramPAXFetch, dramRowStoreFetch)
	}

	// Hardware column access beats even the best software layout at its
	// own game: the RC-NVM column scan outruns the PAX scan on DRAM
	// despite the slower LPDDR3 bus.
	if rcScan >= dramPAXScan {
		t.Errorf("RC-NVM col scan %.3fM should beat DRAM PAX scan %.3fM", rcScan, dramPAXScan)
	}
}
