package device

import (
	"testing"

	"rcnvm/internal/addr"
	"rcnvm/internal/stats"
)

func newRC(t *testing.T) *Device {
	t.Helper()
	d, err := New(RCNVMConfig(), new(stats.Block))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newDRAM(t *testing.T) *Device {
	t.Helper()
	d, err := New(DRAMConfig(), new(stats.Block))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPresetCapacities(t *testing.T) {
	for _, cfg := range []Config{DRAMConfig(), RRAMConfig(), RCNVMConfig(), GSDRAMConfig()} {
		if got := cfg.Geom.TotalBytes(); got != 4<<30 {
			t.Errorf("%s capacity = %d, want 4 GiB", cfg.Name, got)
		}
	}
}

func TestPresetAccessTimes(t *testing.T) {
	// Table 1 cross-checks: DRAM ~14 ns access (tRCD), RRAM 25 ns read,
	// RC-NVM ~30 ns read (29 ns in the paper, quantized to clock cycles).
	if got := DRAMTiming().RCDPs(); got != 13_500 {
		t.Errorf("DRAM tRCD = %d ps, want 13500", got)
	}
	if got := RRAMTiming().RCDPs(); got != 25_000 {
		t.Errorf("RRAM tRCD = %d ps, want 25000", got)
	}
	if got := RCNVMTiming().RCDPs(); got != 30_000 {
		t.Errorf("RC-NVM tRCD = %d ps, want 30000", got)
	}
	// Bus burst: DDR3-1333 moves 64 B in 6 ns, LPDDR3-800 in 10 ns.
	if got := DRAMTiming().BurstPs(); got != 6_000 {
		t.Errorf("DRAM burst = %d ps, want 6000", got)
	}
	if got := RCNVMTiming().BurstPs(); got != 10_000 {
		t.Errorf("RC-NVM burst = %d ps, want 10000", got)
	}
}

func TestColumnOnRowOnlyDevicePanics(t *testing.T) {
	d := newDRAM(t)
	defer func() {
		if recover() == nil {
			t.Fatal("column access on DRAM did not panic")
		}
	}()
	d.Access(0, addr.Coord{}, addr.Column, false)
}

func TestRCNVMConfigRequiresDualGeometry(t *testing.T) {
	cfg := RCNVMConfig()
	cfg.Geom.DualAddress = false
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("expected config error")
	}
}

func TestRowBufferHit(t *testing.T) {
	d := newRC(t)
	c := addr.Coord{Row: 5, Column: 0}
	first := d.Access(0, c, addr.Row, false)
	if first.BufferHit {
		t.Fatal("first access should miss")
	}
	tm := RCNVMTiming()
	wantFirst := tm.RCDPs() + tm.CASPs()
	if first.DataAt != wantFirst {
		t.Errorf("first access DataAt = %d, want %d", first.DataAt, wantFirst)
	}
	c2 := c
	c2.Column = 100
	second := d.Access(first.DataAt, c2, addr.Row, false)
	if !second.BufferHit {
		t.Fatal("same-row access should hit")
	}
	if second.DataAt != first.DataAt+tm.CASPs() {
		t.Errorf("hit DataAt = %d, want %d", second.DataAt, first.DataAt+tm.CASPs())
	}
}

func TestColumnBufferHit(t *testing.T) {
	d := newRC(t)
	c := addr.Coord{Row: 0, Column: 7}
	first := d.Access(0, c, addr.Column, false)
	if first.BufferHit {
		t.Fatal("first column access should miss")
	}
	c2 := c
	c2.Row = 900
	second := d.Access(first.DataAt, c2, addr.Column, false)
	if !second.BufferHit {
		t.Fatal("same-column access should hit the column buffer")
	}
	if d.Stats().Get(stats.ColActivations) != 1 {
		t.Errorf("column activations = %d, want 1", d.Stats().Get(stats.ColActivations))
	}
}

// TestOrientationSwitchClosesBuffer verifies §3's restriction: the row and
// column buffer of one bank are never active simultaneously, and a switch
// pays close+reopen.
func TestOrientationSwitchClosesBuffer(t *testing.T) {
	d := newRC(t)
	c := addr.Coord{Row: 3, Column: 9}
	r1 := d.Access(0, c, addr.Row, false)
	r2 := d.Access(r1.DataAt, c, addr.Column, false)
	if r2.BufferHit {
		t.Fatal("orientation switch must not hit")
	}
	if !r2.Switched {
		t.Fatal("switch not flagged")
	}
	// And the previously open row is gone: accessing it again misses.
	r3 := d.Access(r2.DataAt, c, addr.Row, false)
	if r3.BufferHit {
		t.Fatal("row buffer should have been closed by the column activation")
	}
	if got := d.Stats().Get(stats.OrientSwitches); got != 2 {
		t.Errorf("orientation switches = %d, want 2", got)
	}
}

// TestDirtyFlushOnClose verifies that closing a written buffer pays the NVM
// write pulse.
func TestDirtyFlushOnClose(t *testing.T) {
	d := newRC(t)
	tm := RCNVMTiming()
	c := addr.Coord{Row: 1}
	w := d.Access(0, c, addr.Row, true)
	other := addr.Coord{Row: 2}
	miss := d.Access(w.DataAt, other, addr.Row, false)
	if !miss.Flushed {
		t.Fatal("closing dirty buffer should flush")
	}
	want := w.DataAt + tm.RPPs() + tm.WritePulsePs + tm.RCDPs() + tm.CASPs()
	if miss.DataAt != want {
		t.Errorf("flush+reopen DataAt = %d, want %d", miss.DataAt, want)
	}
	if d.Stats().Get(stats.BufferFlushes) != 1 {
		t.Error("flush not counted")
	}
	// Clean close afterwards must not flush.
	third := d.Access(miss.DataAt, c, addr.Row, false)
	if third.Flushed {
		t.Fatal("clean buffer close should not flush")
	}
}

// TestTRASConstraint verifies DRAM's minimum activate-to-precharge time.
func TestTRASConstraint(t *testing.T) {
	d := newDRAM(t)
	tm := DRAMTiming()
	r1 := d.Access(0, addr.Coord{Row: 1}, addr.Row, false)
	// Immediately conflict on the same bank: precharge cannot start before
	// activateAt + tRAS.
	r2 := d.Access(r1.DataAt, addr.Coord{Row: 2}, addr.Row, false)
	wantEarliest := tm.RASPs() + tm.RPPs() + tm.RCDPs() + tm.CASPs()
	if r2.DataAt < wantEarliest {
		t.Errorf("second activation at %d violates tRAS (want >= %d)", r2.DataAt, wantEarliest)
	}
}

// TestNVMZeroRAS: the NVM presets have tRAS 0 and tRP 1, so a row conflict
// is far cheaper than on DRAM relative to clock.
func TestNVMZeroRAS(t *testing.T) {
	d := newRC(t)
	tm := RCNVMTiming()
	r1 := d.Access(0, addr.Coord{Row: 1}, addr.Row, false)
	r2 := d.Access(r1.DataAt, addr.Coord{Row: 2}, addr.Row, false)
	want := r1.DataAt + tm.RPPs() + tm.RCDPs() + tm.CASPs()
	if r2.DataAt != want {
		t.Errorf("NVM conflict DataAt = %d, want %d", r2.DataAt, want)
	}
}

func TestBankIsolation(t *testing.T) {
	d := newRC(t)
	a := addr.Coord{Bank: 0, Row: 1}
	b := addr.Coord{Bank: 1, Row: 2}
	d.Access(0, a, addr.Row, false)
	res := d.Access(0, b, addr.Row, false)
	if res.BufferHit {
		t.Fatal("different bank should not hit")
	}
	// Bank 0's buffer must still be open.
	if !wouldHit(d, a, addr.Row) {
		t.Fatal("bank 0 buffer lost by bank 1 activity")
	}
}

func TestSubarrayDistinguished(t *testing.T) {
	d := newRC(t)
	a := addr.Coord{Subarray: 0, Row: 7}
	b := addr.Coord{Subarray: 1, Row: 7}
	d.Access(0, a, addr.Row, false)
	res := d.Access(0, b, addr.Row, false)
	if res.BufferHit {
		t.Fatal("same row index in a different subarray must miss")
	}
}

func TestWouldHit(t *testing.T) {
	d := newRC(t)
	c := addr.Coord{Row: 10, Column: 20}
	if wouldHit(d, c, addr.Row) {
		t.Fatal("fresh bank should not hit")
	}
	d.Access(0, c, addr.Row, false)
	if !wouldHit(d, c, addr.Row) {
		t.Fatal("open row should hit")
	}
	if wouldHit(d, c, addr.Column) {
		t.Fatal("column access on open row must not be a hit")
	}
	other := c
	other.Row = 11
	if wouldHit(d, other, addr.Row) {
		t.Fatal("different row should not hit")
	}
}

func TestBankReadyAtAdvances(t *testing.T) {
	d := newRC(t)
	c := addr.Coord{Row: 1}
	if d.BankReadyAt(c) != 0 {
		t.Fatal("fresh bank should be ready at 0")
	}
	res := d.Access(0, c, addr.Row, false)
	if d.BankReadyAt(c) != res.ReadyAt {
		t.Errorf("bank ready at %d, want %d", d.BankReadyAt(c), res.ReadyAt)
	}
	if res.ReadyAt >= res.DataAt {
		// RC-NVM burst (10 ns) is shorter than tCAS (15 ns), so the bank
		// pipelines the next command before this data is out.
		t.Errorf("ReadyAt %d should precede DataAt %d for RC-NVM", res.ReadyAt, res.DataAt)
	}
}

func TestAccessNeverStartsBeforeNow(t *testing.T) {
	d := newRC(t)
	res := d.Access(1_000_000, addr.Coord{Row: 1}, addr.Row, false)
	if res.DataAt <= 1_000_000 {
		t.Errorf("DataAt = %d, must be after now", res.DataAt)
	}
}

func TestCloseAll(t *testing.T) {
	d := newRC(t)
	d.Access(0, addr.Coord{Bank: 0, Row: 1}, addr.Row, true)
	d.Access(0, addr.Coord{Bank: 1, Row: 2}, addr.Row, false)
	if got := d.CloseAll(); got != 1 {
		t.Errorf("CloseAll flushed %d buffers, want 1", got)
	}
	if wouldHit(d, addr.Coord{Bank: 0, Row: 1}, addr.Row) {
		t.Fatal("buffer still open after CloseAll")
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{DRAM: "DRAM", RRAM: "RRAM", RCNVM: "RC-NVM", GSDRAM: "GS-DRAM"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind %d String = %q, want %q", k, k.String(), want)
		}
	}
}

func TestSupportsFlags(t *testing.T) {
	if DRAMConfig().SupportsColumn() || RRAMConfig().SupportsColumn() {
		t.Error("row-only devices must not support column access")
	}
	if !RCNVMConfig().SupportsColumn() {
		t.Error("RC-NVM must support column access")
	}
	if !GSDRAMConfig().SupportsGather() || DRAMConfig().SupportsGather() {
		t.Error("gather support flags wrong")
	}
}

// TestIdealDualBuffers: with the ablation knob set, a bank keeps a row and
// a column open simultaneously and orientation switches cost nothing.
func TestIdealDualBuffers(t *testing.T) {
	cfg := RCNVMConfig()
	cfg.IdealDualBuffers = true
	d, err := New(cfg, new(stats.Block))
	if err != nil {
		t.Fatal(err)
	}
	c := addr.Coord{Row: 3, Column: 9}
	d.Access(0, c, addr.Row, false)
	d.Access(0, c, addr.Column, false) // opens the column buffer
	// Both stay open: either orientation now hits.
	if !wouldHit(d, c, addr.Row) {
		t.Error("row buffer lost by column activation under ideal dual buffers")
	}
	if !wouldHit(d, c, addr.Column) {
		t.Error("column buffer not open")
	}
	res := d.Access(0, c, addr.Row, false)
	if !res.BufferHit {
		t.Error("row access after column access should hit under ideal dual buffers")
	}
	if got := d.Stats().Get(stats.OrientSwitches); got != 0 {
		t.Errorf("orientation switches = %d, want 0", got)
	}
}

// TestRestrictedSingleBuffer is the §3 contrast to the ideal ablation: the
// default device closes the row buffer on a column activation.
func TestRestrictedSingleBuffer(t *testing.T) {
	d := newRC(t)
	c := addr.Coord{Row: 3, Column: 9}
	d.Access(0, c, addr.Row, false)
	d.Access(0, c, addr.Column, false)
	if wouldHit(d, c, addr.Row) {
		t.Error("restricted device kept both buffers open")
	}
}

// TestIdealDualBuffersCloseAllFlushes: dirty data in both buffers flushes.
func TestIdealDualBuffersCloseAllFlushes(t *testing.T) {
	cfg := RCNVMConfig()
	cfg.IdealDualBuffers = true
	d, _ := New(cfg, new(stats.Block))
	d.Access(0, addr.Coord{Row: 1}, addr.Row, true)
	d.Access(0, addr.Coord{Column: 2}, addr.Column, true)
	if got := d.CloseAll(); got != 2 {
		t.Errorf("CloseAll flushed %d buffers, want 2", got)
	}
}

// TestRefreshPrechargesIdleBank: a refresh interval elapsing while the
// bank idles closes its row buffer, but the idle time absorbs the tRFC.
func TestRefreshPrechargesIdleBank(t *testing.T) {
	d := newDRAM(t)
	tm := DRAMTiming()
	c := addr.Coord{Row: 3}
	d.Access(0, c, addr.Row, false)
	later := tm.RefreshIntervalPs + 1000
	res := d.Access(later, c, addr.Row, false)
	if res.BufferHit {
		t.Fatal("row survived a refresh")
	}
	if got := d.Stats().Get(stats.Refreshes); got != 0 {
		t.Errorf("idle refresh charged: %d", got)
	}
	if res.DataAt > later+tm.RCDPs()+tm.CASPs() {
		t.Errorf("idle refresh delayed the access: DataAt %d", res.DataAt)
	}
}

// TestRefreshBlocksBusyBank: a refresh coming due while the bank is busy
// blocks the next access for tRFC.
func TestRefreshBlocksBusyBank(t *testing.T) {
	d := newDRAM(t)
	tm := DRAMTiming()
	c := addr.Coord{Row: 3}
	// Keep the bank busy across the first boundary: issue just before it.
	boundary := tm.RefreshIntervalPs
	pre := d.Access(boundary-1000, c, addr.Row, false)
	if pre.ReadyAt <= boundary {
		t.Fatalf("setup: bank not busy across the boundary (ready %d)", pre.ReadyAt)
	}
	res := d.Access(pre.ReadyAt, c, addr.Row, false)
	if res.BufferHit {
		t.Fatal("row survived the refresh")
	}
	if got := d.Stats().Get(stats.Refreshes); got != 1 {
		t.Errorf("refreshes = %d, want 1", got)
	}
	wantMin := pre.ReadyAt + tm.RefreshPs + tm.RCDPs()
	if res.DataAt < wantMin {
		t.Errorf("busy refresh not charged: DataAt %d < %d", res.DataAt, wantMin)
	}
}

func TestRefreshLongIdleFree(t *testing.T) {
	d := newDRAM(t)
	tm := DRAMTiming()
	// A bank idle for 1000 intervals pays nothing: all those refreshes
	// happened during idle time.
	far := 1000 * tm.RefreshIntervalPs
	res := d.Access(far, addr.Coord{Row: 1}, addr.Row, false)
	if got := d.Stats().Get(stats.Refreshes); got != 0 {
		t.Errorf("refreshes = %d, want 0", got)
	}
	// Within the same epoch the reopened row stays hot.
	res2 := d.Access(res.DataAt, addr.Coord{Row: 1, Column: 8}, addr.Row, false)
	if !res2.BufferHit {
		t.Error("second access in the same epoch should hit the reopened row")
	}
}

func TestNVMNeverRefreshes(t *testing.T) {
	d := newRC(t)
	tm := RCNVMTiming()
	if tm.RefreshIntervalPs != 0 {
		t.Fatal("NVM preset has a refresh interval")
	}
	c := addr.Coord{Row: 3}
	d.Access(0, c, addr.Row, false)
	res := d.Access(1_000_000_000, c, addr.Row, false) // 1 ms later
	if !res.BufferHit {
		t.Fatal("NVM row buffer should persist (no refresh)")
	}
	if d.Stats().Get(stats.Refreshes) != 0 {
		t.Error("NVM counted refreshes")
	}
}

// wouldHit asks WouldHit about c with c's own bank index.
func wouldHit(d *Device, c addr.Coord, o addr.Orientation) bool {
	return d.WouldHit(d.cfg.Geom.BankID(c), c, o)
}
