package memctrl

import (
	"testing"

	"rcnvm/internal/addr"
	"rcnvm/internal/device"
	"rcnvm/internal/event"
	"rcnvm/internal/stats"
)

func newSystem(t *testing.T, cfg device.Config) (*event.Engine, *device.Device, *Router, *stats.Block) {
	t.Helper()
	eng := event.New()
	st := new(stats.Block)
	dev, err := device.New(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	return eng, dev, NewRouter(eng, dev, st, 0), st
}

// at schedules a plain closure through AtCall: the func value rides in ctx.
func at(e *event.Engine, t int64, fn func()) {
	e.AtCall(t, func(ctx any, _, _ int64) { ctx.(func())() }, fn, 0)
}

func TestSingleRead(t *testing.T) {
	eng, _, r, st := newSystem(t, device.RCNVMConfig())
	var finished int64 = -1
	r.Submit(&Request{
		Coord:  addr.Coord{Row: 5},
		Orient: addr.Row,
		Done:   func(f int64) { finished = f },
	})
	eng.Run()
	tm := device.RCNVMTiming()
	want := tm.RCDPs() + tm.CASPs() + tm.BurstPs()
	if finished != want {
		t.Errorf("finish = %d, want %d", finished, want)
	}
	if st.Get(stats.MemReads) != 1 {
		t.Error("read not counted")
	}
}

func TestBusSerializesTransfers(t *testing.T) {
	eng, _, r, _ := newSystem(t, device.RCNVMConfig())
	// Two reads to different banks, same channel: activations overlap but
	// the 64-bit bus serializes the two 10 ns bursts.
	var f1, f2 int64
	r.Submit(&Request{Coord: addr.Coord{Bank: 0, Row: 1}, Orient: addr.Row, Done: func(f int64) { f1 = f }})
	r.Submit(&Request{Coord: addr.Coord{Bank: 1, Row: 1}, Orient: addr.Row, Done: func(f int64) { f2 = f }})
	eng.Run()
	tm := device.RCNVMTiming()
	if f2-f1 != tm.BurstPs() {
		t.Errorf("transfers not back-to-back: f1=%d f2=%d", f1, f2)
	}
}

func TestChannelsIndependent(t *testing.T) {
	eng, _, r, _ := newSystem(t, device.RCNVMConfig())
	var f1, f2 int64
	r.Submit(&Request{Coord: addr.Coord{Channel: 0, Row: 1}, Orient: addr.Row, Done: func(f int64) { f1 = f }})
	r.Submit(&Request{Coord: addr.Coord{Channel: 1, Row: 1}, Orient: addr.Row, Done: func(f int64) { f2 = f }})
	eng.Run()
	if f1 != f2 {
		t.Errorf("independent channels should finish together: %d vs %d", f1, f2)
	}
}

// TestFRFCFSPromotesBufferHit: with an open row and a queue holding an
// older conflicting request plus a newer row-hit request to the same bank,
// FR-FCFS services the hit first.
func TestFRFCFSPromotesBufferHit(t *testing.T) {
	eng, _, r, st := newSystem(t, device.RCNVMConfig())
	var order []string
	// Open row 1 on bank 0.
	r.Submit(&Request{Coord: addr.Coord{Row: 1}, Orient: addr.Row,
		Done: func(int64) { order = append(order, "open") }})
	// While bank 0 is busy, queue a conflict (row 2) then a hit (row 1).
	at(eng, 1, func() {
		r.Submit(&Request{Coord: addr.Coord{Row: 2}, Orient: addr.Row,
			Done: func(int64) { order = append(order, "conflict") }})
		r.Submit(&Request{Coord: addr.Coord{Row: 1, Column: 64}, Orient: addr.Row,
			Done: func(int64) { order = append(order, "hit") }})
	})
	eng.Run()
	if len(order) != 3 || order[1] != "hit" || order[2] != "conflict" {
		t.Fatalf("service order = %v, want hit before conflict", order)
	}
	if st.Get(stats.SchedFRHits) == 0 {
		t.Error("FR-FCFS promotion not counted")
	}
}

// TestWritebackDeprioritized: a demand read arriving together with an older
// writeback is serviced first.
func TestWritebackDeprioritized(t *testing.T) {
	eng, _, r, st := newSystem(t, device.RCNVMConfig())
	var order []string
	r.Submit(&Request{Coord: addr.Coord{Row: 9}, Orient: addr.Row,
		Done: func(int64) { order = append(order, "warm") }})
	at(eng, 1, func() {
		r.Submit(&Request{Coord: addr.Coord{Row: 3}, Orient: addr.Row, Write: true, Writeback: true,
			Done: func(int64) { order = append(order, "wb") }})
		r.Submit(&Request{Coord: addr.Coord{Row: 4}, Orient: addr.Row,
			Done: func(int64) { order = append(order, "demand") }})
	})
	eng.Run()
	if len(order) != 3 || order[1] != "demand" || order[2] != "wb" {
		t.Fatalf("service order = %v, want demand before writeback", order)
	}
	if st.Get(stats.MemWritebacks) != 1 {
		t.Error("writeback not counted")
	}
}

func TestColumnRequestOnRCNVM(t *testing.T) {
	eng, dev, r, st := newSystem(t, device.RCNVMConfig())
	for i := 0; i < 4; i++ {
		row := uint32(i * 8)
		r.Submit(&Request{Coord: addr.Coord{Row: row, Column: 7}, Orient: addr.Column})
	}
	eng.Run()
	// One column activation, three column-buffer hits.
	if got := st.Get(stats.ColActivations); got != 1 {
		t.Errorf("column activations = %d, want 1", got)
	}
	if got := st.Get(stats.BufferHits); got != 3 {
		t.Errorf("buffer hits = %d, want 3", got)
	}
	_ = dev
}

func TestGatherRequiresGSDRAM(t *testing.T) {
	_, _, r, _ := newSystem(t, device.DRAMConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("gather on plain DRAM did not panic")
		}
	}()
	r.Submit(&Request{Coord: addr.Coord{}, Orient: addr.Row, Gather: true})
}

func TestGatherCounted(t *testing.T) {
	eng, _, r, st := newSystem(t, device.GSDRAMConfig())
	r.Submit(&Request{Coord: addr.Coord{Row: 1}, Orient: addr.Row, Gather: true})
	eng.Run()
	if st.Get(stats.MemGathers) != 1 || st.Get(stats.MemReads) != 1 {
		t.Error("gather not counted as a read")
	}
}

// TestThroughputBound: a long stream of row-buffer hits on one channel is
// bus-bandwidth bound; finish time must be ~n * burst.
func TestThroughputBound(t *testing.T) {
	eng, _, r, _ := newSystem(t, device.RCNVMConfig())
	const n = 100
	var last int64
	for i := 0; i < n; i++ {
		r.Submit(&Request{
			Coord:  addr.Coord{Row: 1, Column: uint32(i * 8 % 1024)},
			Orient: addr.Row,
			Done:   func(f int64) { last = f },
		})
	}
	end := eng.Run()
	tm := device.RCNVMTiming()
	minTime := int64(n) * tm.BurstPs()
	if end < minTime {
		t.Errorf("end = %d, violates bus bandwidth bound %d", end, minTime)
	}
	if last > minTime+tm.RCDPs()+tm.CASPs()+tm.BurstPs() {
		t.Errorf("stream took %d, expected close to bandwidth bound %d", last, minTime)
	}
}

// TestWindowLimit: requests beyond the scheduling window are not considered
// until earlier ones leave the queue, but all eventually complete.
func TestWindowLimit(t *testing.T) {
	eng := event.New()
	st := new(stats.Block)
	dev, err := device.New(device.RCNVMConfig(), st)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(eng, dev, st, 2)
	done := 0
	for i := 0; i < 10; i++ {
		ctrl.Submit(&Request{
			Coord:  addr.Coord{Row: uint32(i), Bank: uint32(i % 8)},
			Orient: addr.Row,
			Done:   func(int64) { done++ },
		})
	}
	eng.Run()
	if done != 10 {
		t.Fatalf("completed %d of 10 requests", done)
	}
	if len(ctrl.queue) != 0 {
		t.Fatalf("queue not drained: %d", len(ctrl.queue))
	}
}

func TestRouterPending(t *testing.T) {
	eng, _, r, _ := newSystem(t, device.RCNVMConfig())
	r.Submit(&Request{Coord: addr.Coord{Row: 1}, Orient: addr.Row})
	for _, c := range r.ctrls {
		if len(c.queue) != 0 {
			// The single request issues immediately; the queue holds
			// requests not yet issued.
			t.Errorf("queued = %d, want 0", len(c.queue))
		}
	}
	eng.Run()
}

// TestFCFSDoesNotPromoteHits: under the FCFS ablation policy the older
// conflicting request is served before a newer buffer hit.
func TestFCFSDoesNotPromoteHits(t *testing.T) {
	eng := event.New()
	st := new(stats.Block)
	dev, err := device.New(device.RCNVMConfig(), st)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(eng, dev, st, 0)
	ctrl.SetPolicy(FCFS)
	var order []string
	ctrl.Submit(&Request{Coord: addr.Coord{Row: 1}, Orient: addr.Row,
		Done: func(int64) { order = append(order, "open") }})
	at(eng, 1, func() {
		ctrl.Submit(&Request{Coord: addr.Coord{Row: 2}, Orient: addr.Row,
			Done: func(int64) { order = append(order, "conflict") }})
		ctrl.Submit(&Request{Coord: addr.Coord{Row: 1, Column: 64}, Orient: addr.Row,
			Done: func(int64) { order = append(order, "hit") }})
	})
	eng.Run()
	if len(order) != 3 || order[1] != "conflict" || order[2] != "hit" {
		t.Fatalf("FCFS order = %v, want arrival order", order)
	}
	if st.Get(stats.SchedFRHits) != 0 {
		t.Error("FCFS must not count FR promotions")
	}
}

// TestStarvationOverride: a request older than the starvation limit is
// served even when newer buffer hits keep arriving.
func TestStarvationOverride(t *testing.T) {
	eng := event.New()
	st := new(stats.Block)
	dev, err := device.New(device.RCNVMConfig(), st)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(eng, dev, st, 0)
	var order []string
	// Open row 1, then a conflicting request (row 2) that will starve
	// while a stream of row-1 hits keeps the bank hot.
	ctrl.Submit(&Request{Coord: addr.Coord{Row: 1}, Orient: addr.Row,
		Done: func(int64) { order = append(order, "open") }})
	at(eng, 1, func() {
		ctrl.Submit(&Request{Coord: addr.Coord{Row: 2}, Orient: addr.Row,
			Done: func(int64) { order = append(order, "starved") }})
	})
	// Feed hits every few ns for well past the starvation limit.
	for i := int64(0); i < 300; i++ {
		i := i
		at(eng, 2+i*10_000, func() {
			ctrl.Submit(&Request{
				Coord:  addr.Coord{Row: 1, Column: uint32(i*8) % 1024},
				Orient: addr.Row,
				Done:   func(int64) { order = append(order, "hit") }})
		})
	}
	eng.Run()
	// The starved request must complete well before the last hits.
	pos := -1
	for i, s := range order {
		if s == "starved" {
			pos = i
		}
	}
	if pos < 0 {
		t.Fatal("starved request never served")
	}
	if pos == len(order)-1 {
		t.Fatal("starved request served only after every hit")
	}
	if st.Get(stats.SchedStarved) == 0 {
		t.Error("starvation override not counted")
	}
}

// TestBankDepthDrains: the per-bank queue depth behind QueuePeak rises as
// requests wait for a busy bank, every bank's depth is back to 0 once the
// run drains, and Reset clears what a run left queued.
func TestBankDepthDrains(t *testing.T) {
	eng, _, r, st := newSystem(t, device.RCNVMConfig())
	submit := func() {
		for i := 0; i < 16; i++ {
			r.Submit(&Request{Coord: addr.Coord{Row: uint32(i)}, Orient: addr.Row})
		}
	}
	drained := func(when string) {
		t.Helper()
		for ch, c := range r.ctrls {
			for bank, d := range c.depth {
				if d != 0 {
					t.Fatalf("%s: channel %d, bank %d holds %d requests, want 0", when, ch, bank, d)
				}
			}
		}
	}
	submit()
	eng.Run()
	if peak := st.Banks[0].QueuePeak; peak < 2 {
		t.Fatalf("queue peak %d: 16 row misses on one bank never queued", peak)
	}
	drained("after the run")
	submit()
	r.Reset()
	drained("after Reset")
}
