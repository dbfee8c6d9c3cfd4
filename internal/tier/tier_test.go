package tier

import (
	"testing"

	"rcnvm/internal/addr"
	"rcnvm/internal/event"
	"rcnvm/internal/stats"
)

// testGeom is a tiny dual-addressable geometry: 1 channel, 1 rank, 2 banks,
// 2 subarrays, 16 rows x 16 columns.
func testGeom() addr.Geometry {
	return addr.Geometry{
		ChannelBits: 0, RankBits: 0, BankBits: 1,
		SubarrayBits: 1, RowBits: 4, ColumnBits: 4,
		DualAddress: true,
	}
}

func newTest(t *testing.T, cfg Config) (*Cache, *event.Engine, *stats.Block) {
	t.Helper()
	eng := event.New()
	st := new(stats.Block)
	return New(cfg, testGeom(), eng, st), eng, st
}

func coord(bank, sub, row uint32) addr.Coord {
	return addr.Coord{Bank: bank, Subarray: sub, Row: row}
}

// missAt reports a row-orientation buffer miss at time now with the bank
// ready at now+1000.
func missAt(c *Cache, now int64, co addr.Coord) {
	c.OnNVMAccess(now, co, addr.Row, false, false, now+1000)
}

func TestPromotionAfterKMisses(t *testing.T) {
	c, eng, st := newTest(t, Config{Rows: 4, PromoteAfter: 2})
	co := coord(0, 0, 3)

	missAt(c, 0, co)
	if st.Get(stats.TierPromotions) != 0 {
		t.Fatalf("promoted after 1 miss, want K=2")
	}
	missAt(c, 100, co)
	if got := st.Get(stats.TierPromotions); got != 1 {
		t.Fatalf("promotions after 2 misses = %d, want 1", got)
	}
	// Copy is in flight until readyAt fires: not servable yet.
	if c.WouldServe(200, co, addr.Row) {
		t.Fatalf("WouldServe true while promotion in flight")
	}
	eng.Run()
	now := eng.Now()
	if want := int64(100+1000) + c.Config().MigratePs; now != want {
		t.Fatalf("promotion completed at %d, want %d", now, want)
	}
	if !c.WouldServe(now, co, addr.Row) {
		t.Fatalf("WouldServe false after promotion completed")
	}
	if !c.Serve(now, co, addr.Row, false) {
		t.Fatalf("Serve false after promotion completed")
	}
	if got := st.Get(stats.TierDRAMHits); got != 1 {
		t.Fatalf("dram_hits = %d, want 1", got)
	}
	// Column orientation is never tier-served.
	if c.WouldServe(now, co, addr.Column) {
		t.Fatalf("WouldServe true for column orientation")
	}
}

func TestBufferHitsAndWritebacksDoNotPromote(t *testing.T) {
	c, _, st := newTest(t, Config{Rows: 4, PromoteAfter: 1})
	co := coord(0, 0, 5)
	c.OnNVMAccess(0, co, addr.Row, true, false, 1000)  // buffer hit
	c.OnNVMAccess(10, co, addr.Row, false, true, 1000) // writeback miss
	c.OnNVMAccess(20, co, addr.Column, false, false, 1000)
	if got := st.Get(stats.TierPromotions); got != 0 {
		t.Fatalf("promotions = %d, want 0", got)
	}
}

func TestMissCounterDecay(t *testing.T) {
	c, _, st := newTest(t, Config{Rows: 4, PromoteAfter: 2, DecayPs: 1000})
	co := coord(0, 0, 7)
	// Two misses more than one decay interval apart: the first has decayed
	// to zero by the second, so no promotion.
	missAt(c, 0, co)
	missAt(c, 5000, co)
	if got := st.Get(stats.TierPromotions); got != 0 {
		t.Fatalf("promotions = %d, want 0 (counter should decay)", got)
	}
	// A third miss in the same interval as the second reaches K=2.
	missAt(c, 5100, co)
	if got := st.Get(stats.TierPromotions); got != 1 {
		t.Fatalf("promotions = %d, want 1", got)
	}
}

// promoteRow drives a row to residency.
func promoteRow(t *testing.T, c *Cache, eng *event.Engine, now int64, co addr.Coord) {
	t.Helper()
	k := c.Config().PromoteAfter
	for i := 0; i < k; i++ {
		missAt(c, now+int64(i), co)
	}
	eng.Run()
	if !c.WouldServe(eng.Now(), co, addr.Row) {
		t.Fatalf("row %v not resident after %d misses", co, k)
	}
}

func TestClockEvictionWritesBackDirtyVictim(t *testing.T) {
	c, eng, st := newTest(t, Config{Rows: 2, PromoteAfter: 1})
	a, b, d := coord(0, 0, 1), coord(0, 0, 2), coord(0, 0, 3)

	promoteRow(t, c, eng, 0, a)
	promoteRow(t, c, eng, eng.Now()+1, b)
	now := eng.Now()

	// Dirty a, then reference b so the clock picks a (ref cleared first
	// sweep, evicted second).
	if !c.Serve(now, a, addr.Row, true) {
		t.Fatalf("Serve(a, write) = false")
	}
	if !c.Serve(now, b, addr.Row, false) {
		t.Fatalf("Serve(b) = false")
	}
	// Age the reference bits: the clock clears them on its first sweep.
	promoteRow(t, c, eng, now+1, d)
	if got := st.Get(stats.TierDemotions); got != 1 {
		t.Fatalf("demotions = %d, want 1", got)
	}
	wbs := c.QueuedWritebacks(nil)
	if len(wbs) != 1 {
		t.Fatalf("queued writebacks = %d, want 1", len(wbs))
	}
	want := a
	want.Column = 0
	if wbs[0].Coord != want {
		t.Fatalf("writeback coord = %+v, want %+v", wbs[0].Coord, want)
	}
	if got := st.Get(stats.TierWritebacks); got != 1 {
		t.Fatalf("writebacks = %d, want 1", got)
	}
	// Queue is drained.
	if got := len(c.QueuedWritebacks(wbs)); got != 0 {
		t.Fatalf("second drain returned %d writebacks, want 0", got)
	}
	if c.Resident() != 2 {
		t.Fatalf("resident = %d, want 2", c.Resident())
	}
}

func TestColumnReadWritesBackDirtyButKeepsResident(t *testing.T) {
	c, eng, st := newTest(t, Config{Rows: 4, PromoteAfter: 1})
	a, b := coord(0, 1, 1), coord(0, 1, 2)
	promoteRow(t, c, eng, 0, a)
	promoteRow(t, c, eng, eng.Now()+1, b)
	now := eng.Now()
	c.Serve(now, a, addr.Row, true) // dirty a only

	colCo := addr.Coord{Bank: 0, Subarray: 1, Column: 9}
	if c.Serve(now+1, colCo, addr.Column, false) {
		t.Fatalf("column access must not be tier-served")
	}
	wbs := c.QueuedWritebacks(nil)
	if len(wbs) != 1 {
		t.Fatalf("column read queued %d writebacks, want 1 (dirty row only)", len(wbs))
	}
	if c.Resident() != 2 {
		t.Fatalf("resident = %d after column read, want 2 (rows stay, now clean)", c.Resident())
	}
	if got := st.Get(stats.TierDemotions); got != 0 {
		t.Fatalf("demotions = %d after column read, want 0", got)
	}
	// The row is clean now: a second column read queues nothing.
	c.Serve(now+2, colCo, addr.Column, false)
	if got := len(c.QueuedWritebacks(wbs)); got != 0 {
		t.Fatalf("second column read queued %d writebacks, want 0", got)
	}
}

func TestColumnWritePatchesResidentRows(t *testing.T) {
	c, eng, st := newTest(t, Config{Rows: 4, PromoteAfter: 1})
	a, b := coord(0, 1, 1), coord(0, 1, 2)
	promoteRow(t, c, eng, 0, a)
	promoteRow(t, c, eng, eng.Now()+1, b)
	now := eng.Now()
	c.Serve(now, a, addr.Row, true) // dirty a

	colCo := addr.Coord{Bank: 0, Subarray: 1, Column: 3}
	c.Serve(now+1, colCo, addr.Column, true)
	// A column write is patched into the resident copies: nothing is
	// demoted, nothing written back, and the rows keep serving.
	if c.Resident() != 2 {
		t.Fatalf("resident = %d after column write, want 2 (patched, not demoted)", c.Resident())
	}
	if !c.WouldServe(now+2, a, addr.Row) || !c.WouldServe(now+2, b, addr.Row) {
		t.Fatalf("resident rows stopped serving after a column-write patch")
	}
	if got := st.Get(stats.TierDemotions); got != 0 {
		t.Fatalf("demotions = %d after column write, want 0", got)
	}
	if got := st.Get(stats.TierColPatches); got != 1 {
		t.Fatalf("col_patches = %d, want 1", got)
	}
	if got := len(c.QueuedWritebacks(nil)); got != 0 {
		t.Fatalf("column write queued %d writebacks, want 0", got)
	}
	// A column write over a subarray with no resident rows records nothing.
	c.Serve(now+3, addr.Coord{Bank: 1, Subarray: 0, Column: 3}, addr.Column, true)
	if got := st.Get(stats.TierColPatches); got != 1 {
		t.Fatalf("col_patches = %d after empty-subarray write, want 1", got)
	}
}

func TestTrackerBounded(t *testing.T) {
	c, _, _ := newTest(t, Config{Rows: 2, PromoteAfter: 8, DecayPs: 1000})
	// Touch many distinct rows in one interval: the tracker must not grow
	// past its bound.
	for row := uint32(0); row < 16; row++ {
		for sub := uint32(0); sub < 2; sub++ {
			for bank := uint32(0); bank < 2; bank++ {
				missAt(c, 10, coord(bank, sub, row))
			}
		}
	}
	if max := trackedPerRow * 2; len(c.misses) > max {
		t.Fatalf("tracker holds %d rows, bound is %d", len(c.misses), max)
	}
	// After the counters decay, new rows can be tracked again.
	missAt(c, 10+5*1000, coord(0, 0, 1))
	if len(c.misses) == 0 {
		t.Fatalf("tracker empty after sweep; new row should be tracked")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Rows: 8}.withDefaults()
	if cfg.PromoteAfter != DefaultPromoteAfter || cfg.HitPs != DefaultHitPs ||
		cfg.MigratePs != DefaultMigratePs || cfg.DecayPs != DefaultDecayPs {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if (Config{}).Enabled() {
		t.Fatalf("zero config reports enabled")
	}
	if !(Config{Rows: 1}).Enabled() {
		t.Fatalf("Rows=1 config reports disabled")
	}
}

func TestServeWriteMarksDirty(t *testing.T) {
	c, eng, _ := newTest(t, Config{Rows: 2, PromoteAfter: 1})
	a := coord(0, 0, 1)
	promoteRow(t, c, eng, 0, a)
	now := eng.Now()
	// Clean row: a column read over it queues nothing.
	colCo := addr.Coord{Bank: 0, Subarray: 0, Column: 1}
	c.Serve(now, colCo, addr.Column, false)
	if got := len(c.QueuedWritebacks(nil)); got != 0 {
		t.Fatalf("clean row queued %d writebacks", got)
	}
	c.Serve(now+1, a, addr.Row, true)
	c.Serve(now+2, colCo, addr.Column, false)
	if got := len(c.QueuedWritebacks(nil)); got != 1 {
		t.Fatalf("dirty row queued %d writebacks, want 1", got)
	}
}
