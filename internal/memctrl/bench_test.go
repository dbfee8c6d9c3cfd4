package memctrl

import (
	"testing"

	"rcnvm/internal/addr"
	"rcnvm/internal/device"
	"rcnvm/internal/event"
	"rcnvm/internal/obs"
	"rcnvm/internal/stats"
)

// benchRouter drains b.N rounds of 256 pooled demand reads through a
// router on the RC-NVM device, with the given observability attachments.
func benchRouter(b *testing.B, attach func(*Router)) {
	eng := event.New()
	st := new(stats.Block)
	dev, err := device.New(device.RCNVMConfig(), st)
	if err != nil {
		b.Fatal(err)
	}
	r := NewRouter(eng, dev, st, 0)
	if attach != nil {
		attach(r)
	}
	geom := dev.Config().Geom
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 256; j++ {
			req := r.Alloc()
			req.Coord = geom.Decode(uint32(j*64), addr.Row)
			req.Orient = addr.Row
			r.Submit(req)
		}
		eng.Run()
	}
}

// BenchmarkMemctrlDisabledObs is the disabled-path contract for the
// controller: with no recorder and no telemetry attached, the issue path
// must allocate nothing in steady state (pooled requests, static event
// callbacks). CI greps this benchmark's allocs/op.
func BenchmarkMemctrlDisabledObs(b *testing.B) {
	benchRouter(b, nil)
}

// BenchmarkMemctrlDisabledTier pins the tier nil-hook contract: with no
// DRAM tier installed the controller's only extra cost is one pointer
// comparison per request, and the issue path stays allocation-free. CI
// greps this benchmark's allocs/op alongside the disabled-obs gate.
func BenchmarkMemctrlDisabledTier(b *testing.B) {
	benchRouter(b, func(r *Router) {
		r.SetTier(nil)
	})
}

// BenchmarkMemctrlTelemetry measures the telemetry-enabled path for
// comparison: per-bank counter updates under the telemetry mutex.
func BenchmarkMemctrlTelemetry(b *testing.B) {
	benchRouter(b, func(r *Router) {
		r.SetTelemetry(obs.NewTelemetry(r.Device().Config().Geom.TotalBanks(), 0))
	})
}

// TestMemctrlDisabledZeroAlloc is the deterministic form of the
// disabled-path gate, independent of benchmark iteration counts.
func TestMemctrlDisabledZeroAlloc(t *testing.T) {
	eng := event.New()
	st := new(stats.Block)
	dev, err := device.New(device.RCNVMConfig(), st)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(eng, dev, st, 0)
	geom := dev.Config().Geom
	round := func() {
		for j := 0; j < 256; j++ {
			req := r.Alloc()
			req.Coord = geom.Decode(uint32(j*64), addr.Row)
			req.Orient = addr.Row
			r.Submit(req)
		}
		eng.Run()
	}
	round() // warm: pool and queues grow to their high-water marks
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Fatalf("disabled-path allocs per round = %g, want 0", allocs)
	}
}
