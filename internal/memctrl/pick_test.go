package memctrl

import (
	"math/rand"
	"testing"

	"rcnvm/internal/addr"
	"rcnvm/internal/device"
	"rcnvm/internal/event"
	"rcnvm/internal/stats"
	"rcnvm/internal/tier"
)

// fullScanPick is pick as it was before it stopped at the first issuable
// demand buffer hit: every request in the window is ranked. It is the
// reference TestPickMatchesFullScan holds pick to.
func fullScanPick(c *Controller) int {
	limit := len(c.queue)
	if limit > c.window {
		limit = c.window
	}
	best := -1
	bestHit := false
	bestDemand := false
	sawOlderMiss := false
	now := c.eng.Now()
	for i := 0; i < limit; i++ {
		r := c.queue[i]
		tierHit := c.tr != nil && c.tr.WouldServe(now, r.Coord, r.Orient)
		if !tierHit && c.bankBusy[r.bank] {
			continue
		}
		if !r.Writeback && now-r.arrive > StarvationLimitPs {
			c.st.Inc(stats.IdxSchedStarved)
			return i
		}
		hit := c.policy == FRFCFS && (tierHit || c.dev.WouldHit(r.bank, r.Coord, r.Orient))
		demand := !r.Writeback
		better := false
		switch {
		case best == -1:
			better = true
		case demand != bestDemand:
			better = demand
		case hit != bestHit:
			better = hit
		}
		if better {
			if best != -1 && hit && !bestHit {
				sawOlderMiss = true
			}
			best, bestHit, bestDemand = i, hit, demand
		}
	}
	if best >= 0 && bestHit && (sawOlderMiss || best > 0) {
		c.st.Inc(stats.IdxSchedFRHits)
	}
	return best
}

// TestPickMatchesFullScan: over seeded queues in arrival order — busy
// banks, write-backs, requests past the starvation limit, open row and
// column buffers, DRAM-tier-resident rows, both policies, several windows —
// pick returns the index the full-window scan returns and counts the same
// sched.fr_hits and sched.starved.
func TestPickMatchesFullScan(t *testing.T) {
	var early, starved, frHits, none, tierPicked int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := event.New()
		dev, err := device.New(device.RCNVMConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		geom := dev.Config().Geom
		c := NewController(eng, dev, nil, []int{4, 8, DefaultWindow}[rng.Intn(3)])
		if rng.Intn(4) == 0 {
			c.SetPolicy(FCFS)
		}
		// A few banks, subarrays, rows and columns, so that buffer hits
		// and busy banks are common.
		coord := func() addr.Coord {
			return addr.Coord{
				Rank: uint32(rng.Intn(2)), Bank: uint32(rng.Intn(4)), Subarray: uint32(rng.Intn(2)),
				Row: uint32(rng.Intn(4)), Column: uint32(rng.Intn(4) * 8),
			}
		}
		orient := func() addr.Orientation { return addr.Orientation(rng.Intn(2)) }
		for i := 0; i < 12; i++ {
			dev.Access(0, coord(), orient(), false)
		}
		if rng.Intn(2) == 0 {
			c.tr = tier.New(tier.Config{Rows: 16, PromoteAfter: 1}, geom, eng, new(stats.Block))
			for i := 0; i < 6; i++ {
				c.tr.OnNVMAccess(0, coord(), addr.Row, false, false, 0)
			}
		}
		// Let promotions land and the clock pass several starvation limits.
		eng.AtCall(10*StarvationLimitPs, func(any, int64, int64) {}, nil, 0)
		now := eng.Run()

		for round := 0; round < 200; round++ {
			c.queue = c.queue[:0]
			arrive := now - rng.Int63n(2*StarvationLimitPs)
			for n := rng.Intn(3 * DefaultWindow / 2); n > 0; n-- {
				arrive = min(now, arrive+rng.Int63n(StarvationLimitPs/4))
				r := &Request{Coord: coord(), Orient: orient(), Writeback: rng.Intn(3) == 0, arrive: arrive}
				r.Write = r.Writeback
				r.bank = geom.BankID(r.Coord)
				c.queue = append(c.queue, r)
			}
			for b := range c.bankBusy {
				c.bankBusy[b] = rng.Intn(3) == 0
			}

			ref, got := new(stats.Block), new(stats.Block)
			c.st = ref
			want := fullScanPick(c)
			c.st = got
			idx := c.pick()
			if idx != want || !equalCounts(ref, got) {
				t.Fatalf("seed %d round %d: pick = %d (%v), full scan = %d (%v)",
					seed, round, idx, got.Snapshot(), want, ref.Snapshot())
			}

			// What this round exercised.
			switch {
			case idx < 0:
				none++
			case got.Get(stats.SchedStarved) > 0:
				starved++
			default:
				if got.Get(stats.SchedFRHits) > 0 {
					frHits++
				}
				r := c.queue[idx]
				tierHit := c.tr != nil && c.tr.WouldServe(now, r.Coord, r.Orient)
				if tierHit {
					tierPicked++
				}
				hit := c.policy == FRFCFS && (tierHit || dev.WouldHit(r.bank, r.Coord, r.Orient))
				if hit && !r.Writeback && idx+1 < min(len(c.queue), c.window) {
					early++
				}
			}
		}
	}
	t.Logf("picks: %d stopped early (a demand hit with window left), %d starved, %d FR-FCFS promotions, %d tier rows, %d none issuable",
		early, starved, frHits, tierPicked, none)
	if early == 0 || starved == 0 || frHits == 0 || tierPicked == 0 || none == 0 {
		t.Fatal("the seeded queues missed a case")
	}
}

func equalCounts(a, b *stats.Block) bool {
	for _, name := range []string{stats.SchedFRHits, stats.SchedStarved} {
		if a.Get(name) != b.Get(name) {
			return false
		}
	}
	return true
}
