package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rcnvm/internal/addr"
	"rcnvm/internal/config"
	"rcnvm/internal/fault"
	"rcnvm/internal/obs"
	"rcnvm/internal/stats"
	"rcnvm/internal/tier"
	"rcnvm/internal/trace"
)

// resetWorkload is one Run's input. spoil, when set, is a run made (and
// thrown away) on the reused system just before Reset, so the workload
// follows a run that failed: refused at the door, ended by a memory error,
// or abandoned by a panic in mid-flight — misses outstanding, events and
// requests queued, banks busy.
type resetWorkload struct {
	name    string
	streams []trace.Stream
	spoil   []trace.Stream
	fails   bool // the run ends in an error (the same one, fresh or reused)
}

// outcome is everything one Run reports, and the per-bank traffic its
// system counted (Result.Banks too, but kept when the run fails).
type outcome struct {
	res    Result
	err    string
	banks  []stats.BankCounters
	faults fault.Counts
}

// diff names what differs between two outcomes (the outcomes themselves
// run to pages).
func (o outcome) diff(w outcome) string {
	var b strings.Builder
	if o.err != w.err {
		fmt.Fprintf(&b, " error %q vs %q;", o.err, w.err)
	}
	if o.res.TimePs != w.res.TimePs {
		fmt.Fprintf(&b, " time %d vs %d ps;", o.res.TimePs, w.res.TimePs)
	}
	for k, v := range w.res.Counters {
		if g, ok := o.res.Counters[k]; !ok || g != v {
			fmt.Fprintf(&b, " %s %d (present: %v) vs %d;", k, g, ok, v)
		}
	}
	for k, g := range o.res.Counters {
		if _, ok := w.res.Counters[k]; !ok {
			fmt.Fprintf(&b, " %s %d vs absent;", k, g)
		}
	}
	if !reflect.DeepEqual(o.res.MemLatency, w.res.MemLatency) {
		b.WriteString(" latency histogram;")
	}
	if !reflect.DeepEqual(o.res.Banks, w.res.Banks) || !reflect.DeepEqual(o.banks, w.banks) {
		b.WriteString(" per-bank traffic;")
	}
	if o.faults != w.faults {
		fmt.Fprintf(&b, " fault counts %+v vs %+v;", o.faults, w.faults)
	}
	return b.String()
}

func runOutcome(s *System, w resetWorkload) outcome {
	var o outcome
	var err error
	if o.res, err = s.Run(w.streams); err != nil {
		o.err = err.Error()
	}
	o.banks = slices.Clone(s.Stats.Banks)
	if s.Faults != nil {
		o.faults = s.Faults.Counts()
	}
	return o
}

// mixedCells reads the same cells through both orientations — row lines,
// then the column lines crossing them, then stores through either — so
// crossings are detected, copied, updated and (on a small cache) cleared
// by evictions.
func mixedCells(rng *rand.Rand, n int) trace.Stream {
	var ops trace.Stream
	for i := 0; i < n; i++ {
		c := addr.Coord{Bank: uint32(rng.Intn(4)), Row: uint32(rng.Intn(48)), Column: uint32(rng.Intn(48))}
		switch rng.Intn(6) {
		case 0:
			ops = append(ops, trace.StoreOp(c))
		case 1:
			ops = append(ops, trace.CStoreOp(c))
		case 2, 3:
			ops = append(ops, trace.LoadOp(c))
		default:
			ops = append(ops, trace.CLoadOp(c))
		}
		if rng.Intn(16) == 0 {
			ops = append(ops, trace.ComputeOp(int64(rng.Intn(40))))
		}
	}
	return ops
}

// storeSweep dirties n lines (half through each orientation), leaving the
// end-of-run flush real work.
func storeSweep(n int) trace.Stream {
	var ops trace.Stream
	for i := 0; i < n; i++ {
		c := addr.Coord{Bank: uint32(i % 8), Row: uint32(i), Column: uint32(8 * (i % 32))}
		if i%2 == 0 {
			ops = append(ops, trace.StoreOp(c))
		} else {
			ops = append(ops, trace.CStoreOp(c))
		}
	}
	return ops
}

// pinnedRegion is a group-caching region: pinned column prefetches, a
// barrier, loads that hit them, UnpinAll, then traffic that may evict.
func pinnedRegion(geom addr.Geometry) trace.Stream {
	var ops trace.Stream
	for col := uint32(0); col < 24; col++ {
		for row := uint32(0); row < 64; row += addr.LineWords {
			ops = append(ops, trace.PinnedCLoadOp(addr.Coord{Row: row, Column: col}))
		}
	}
	ops = append(ops, trace.BarrierOp())
	for row := uint32(0); row < 64; row++ {
		for col := uint32(0); col < 24; col++ {
			ops = append(ops, trace.CLoadOp(addr.Coord{Row: row, Column: col}))
		}
	}
	ops = append(ops, trace.UnpinAllOp())
	return append(ops, linearScan(geom, 1024)...)
}

// folded is s in run form with c cycles of compute after every access, so
// a core abandoned or reset part-way is inside a record, between an access
// and its compute.
func folded(s trace.Stream, c int64) trace.Stream {
	var out trace.Stream
	for _, op := range s {
		out.Append(op)
		out.Append(trace.ComputeOp(c))
	}
	return out
}

// avoidBank keeps a stream off one bank, so a dead-bank system runs it
// clean.
func avoidBank(s trace.Stream, bank uint32) trace.Stream {
	out := make(trace.Stream, len(s))
	for i, op := range s {
		if op.Coord.Bank == bank {
			op.Coord.Bank++
		}
		out[i] = op
	}
	return out
}

// TestResetEqualsFresh is the contract of System.Reset: on every kind of
// system, one reused instance — Reset before each Run, workloads taken in
// a different order than the fresh systems ran them, some right after a
// run that failed part-way — reports exactly what a New system reports:
// time, counter keys and values, latency buckets, telemetry, fault
// accounting, and the same error when the run fails.
func TestResetEqualsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	geom := config.RCNVM().Device.Geom
	tooMany := make([]trace.Stream, config.RCNVM().CPU.Cores+1)
	midGather := abandoned(geom, trace.GatherOp(addr.Coord{Row: 9}, 1)) // RC-NVM serves no gathers
	dual := []resetWorkload{
		{name: "column scan", streams: []trace.Stream{columnScan(geom, 3000)}},
		{name: "row fetches", streams: []trace.Stream{stridedScan(geom, 1500, 16)}, spoil: tooMany},
		{name: "stores", streams: []trace.Stream{storeSweep(600)}, spoil: midGather},
		{name: "mixed orientations", streams: []trace.Stream{mixedCells(rng, 4000)}},
		{name: "pinned prefetches", streams: []trace.Stream{pinnedRegion(geom)}},
		{name: "four cores", streams: []trace.Stream{
			mixedCells(rng, 1500), columnScan(geom, 800), mixedCells(rng, 1500), linearScan(geom, 800)}},
		{name: "empty", spoil: midGather},
		{name: "run form", streams: []trace.Stream{folded(columnScan(geom, 3000), 3), folded(stridedScan(geom, 700, 16), 0)},
			spoil: []trace.Stream{folded(midGather[0], 2), folded(midGather[1], 2)}},
	}

	small := smallCacheRCNVM()
	small.Cache.PrefetchDegree = 2
	tiered := smallCacheRCNVM()
	tiered.Tier = tier.Config{Rows: 16, PromoteAfter: 2}
	worn := config.RCNVM()
	worn.Fault = fault.Config{Enabled: true, Seed: 5, RBER: 1e-3, WearThresholdWrites: 8,
		WearStuckRate: 0.05, ContinueOnUncorrectable: true}
	deadBank := config.RCNVM()
	deadBank.Fault = fault.Config{Enabled: true, Seed: 1, StuckBankEnabled: true, StuckBank: 0}
	onBank0 := []trace.Stream{linearScan(geom, 512)}

	cases := []struct {
		name string
		cfg  config.System
		work []resetWorkload
	}{
		{"rc-nvm", config.RCNVM(), dual},
		{"small caches", small, dual},
		{"dram tier", tiered, append([]resetWorkload{
			{name: "ping-pong", streams: []trace.Stream{rowPingPong(512), linearScan(geom, 128)}}}, dual...)},
		{"wear and transient faults", worn, dual},
		{"dead bank", deadBank, []resetWorkload{
			{name: "fails on bank 0", streams: onBank0, fails: true},
			{name: "clean after a fault", streams: []trace.Stream{avoidBank(mixedCells(rng, 2000), 0)}, spoil: onBank0},
			{name: "fails again", streams: onBank0, fails: true},
		}},
		{"dram refresh", config.DRAM(), []resetWorkload{
			{name: "strided", streams: []trace.Stream{stridedScan(config.DRAM().Device.Geom, 4000, 1024)},
				spoil: abandoned(config.DRAM().Device.Geom, trace.CLoadOp(addr.Coord{Row: 9}))}, // nor DRAM columns
			{name: "linear", streams: []trace.Stream{linearScan(config.DRAM().Device.Geom, 4000)}, spoil: tooMany},
		}},
		{"gs-dram gathers", config.GSDRAM(), []resetWorkload{
			{name: "gathers", streams: []trace.Stream{gatherScan(512)}},
			{name: "linear", streams: []trace.Stream{linearScan(config.GSDRAM().Device.Geom, 1000)}},
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh := make([]outcome, len(tc.work))
			for i, w := range tc.work {
				s, err := New(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if fresh[i] = runOutcome(s, w); (fresh[i].err != "") != w.fails {
					t.Fatalf("%s: fresh run error %q, want failure=%v", w.name, fresh[i].err, w.fails)
				}
			}
			reused, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Twice through, last workload first: every workload follows a
			// different predecessor than it had among the fresh systems.
			for pass := 0; pass < 2; pass++ {
				for i := len(tc.work) - 1; i >= 0; i-- {
					w := tc.work[i]
					rec := obs.NewRecorder()
					if w.spoil != nil {
						reused.Reset()
						reused.Router.SetRecorder(rec, obs.ProcSimDual)
						if !runFails(reused, w.spoil) {
							t.Fatalf("%s: the spoiling run was meant to fail", w.name)
						}
					}
					spans := rec.Len()
					reused.Reset()
					got := runOutcome(reused, w)
					if !reflect.DeepEqual(got, fresh[i]) {
						t.Errorf("pass %d, %s: reused vs fresh system:%s", pass, w.name, got.diff(fresh[i]))
					}
					if rec.Len() != spans {
						t.Errorf("%s: Reset left the previous run's recorder attached", w.name)
					}
				}
			}
		})
	}
}

// runFails reports whether the run ended in an error or a panic (the
// simulator panics on an op its device cannot serve; the server's executor
// recovers, and the Replayer's deferred put resets the system).
func runFails(s *System, streams []trace.Stream) (failed bool) {
	defer func() {
		if recover() != nil {
			failed = true
		}
	}()
	_, err := s.Run(streams)
	return err != nil
}

// abandoned is a stream the given op makes a device panic on, 600 ops in:
// the run stops dead with its state in mid-flight.
func abandoned(geom addr.Geometry, bad trace.Op) []trace.Stream {
	s := append(stridedScan(geom, 600, 24), bad)
	return []trace.Stream{append(s, linearScan(geom, 64)...), linearScan(geom, 300)}
}

// gatherScan issues n GS-DRAM gathers over distinct patterns.
func gatherScan(n int) trace.Stream {
	ops := make(trace.Stream, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, trace.GatherOp(addr.Coord{Row: uint32(i / 16), Column: uint32(8 * (i % 16))}, uint32(i/2)))
	}
	return ops
}

// TestRunAfterResetOnly: a second Run without Reset is still refused, and
// the refusal names the way out.
func TestRunAfterResetOnly(t *testing.T) {
	s, err := New(config.RCNVM())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(nil); err == nil {
		t.Fatal("second Run without Reset should fail")
	}
	s.Reset()
	if _, err := s.Run(nil); err != nil {
		t.Fatalf("Run after Reset: %v", err)
	}
}
