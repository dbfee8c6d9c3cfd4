// Package workload defines the evaluation workloads of the paper: the
// fifteen benchmark queries of Table 2 over tables a, b and c, and the
// eight micro-benchmarks of Figure 17 (row/column read/write over the two
// intra-chunk layouts). Each workload builds per-architecture trace streams
// through the query planner; the experiment harness runs them on the
// simulated systems.
package workload

import (
	"fmt"
	"math/rand"

	"rcnvm/internal/config"
	"rcnvm/internal/device"
	"rcnvm/internal/imdb"
	"rcnvm/internal/query"
	"rcnvm/internal/sim"
	"rcnvm/internal/trace"
)

// Params scales the workloads.
type Params struct {
	TuplesA int // table-a: 16 fixed 8-byte fields
	TuplesB int // table-b: 20 fixed 8-byte fields
	TuplesC int // table-c: variant-length fields incl. the wide f2_wide
	Seed    int64
	// GroupLines is the group-caching depth (cache lines prefetched per
	// column) for Q14/Q15; 0 disables group caching.
	GroupLines int
	// DisablePinning turns group-caching cache pinning off (ablation).
	DisablePinning bool
}

// DefaultParams is the benchmark scale (tables exceed the 8 MB L3).
func DefaultParams() Params {
	return Params{TuplesA: 128 * 1024, TuplesB: 128 * 1024, TuplesC: 64 * 1024, Seed: 42}
}

// SmallParams is the fast scale used by tests.
func SmallParams() Params {
	return Params{TuplesA: 8192, TuplesB: 8192, TuplesC: 4096, Seed: 42}
}

// SchemaA is table-a: 16 single-word fields (power-of-2 tuple size, the
// GS-DRAM-friendly shape).
func SchemaA() imdb.Schema { return imdb.Uniform("table-a", 16) }

// SchemaB is table-b: 20 single-word fields (non-power-of-2; GS-DRAM cannot
// gather it).
func SchemaB() imdb.Schema { return imdb.Uniform("table-b", 20) }

// SchemaC is table-c: variant-length fields including the 32-byte wide
// field f2_wide of the §5 wide-field example.
func SchemaC() imdb.Schema {
	return imdb.Schema{Name: "table-c", Fields: []imdb.Field{
		{Name: "f1", Words: 1},
		{Name: "f2_wide", Words: 4},
		{Name: "f3", Words: 1},
		{Name: "f4", Words: 1},
		{Name: "f5", Words: 1},
	}}
}

// schemaHash is the hash-table work area used by the join queries. Joins
// are radix-partitioned (standard IMDB practice), so the active partition's
// hash table is sized to stay cache-resident; the per-op hash compute cost
// is still charged on every build/probe.
func schemaHash() imdb.Schema { return imdb.Uniform("hash", 2) }

// Env holds one system's placements and executor for one workload run.
type Env struct {
	Sys    config.System
	Params Params
	Exec   *query.Executor

	A, B, C imdb.Placement
	Hash    imdb.Placement
}

// NewEnv places the tables for the given system: RC-NVM uses the chunked
// column-oriented layout (the paper's default after Figure 17); plain RRAM
// uses the row-major layout on the same subarray structure; DRAM and
// GS-DRAM use the classical linear row store.
func NewEnv(sys config.System, p Params) (*Env, error) {
	env := &Env{
		Sys:    sys,
		Params: p,
		Exec:   query.New(query.ArchOf(sys.Device.Kind), sys.CPU.Cores),
	}
	env.Exec.SetPinning(!p.DisablePinning)
	ta := imdb.NewTable(SchemaA(), p.TuplesA)
	tb := imdb.NewTable(SchemaB(), p.TuplesB)
	tc := imdb.NewTable(SchemaC(), p.TuplesC)
	th := imdb.NewTable(schemaHash(), hashSlotsFor(maxInt(p.TuplesA, p.TuplesB)/8))

	// place puts one table on the system's memory; the NVM allocators lay
	// a table out as asked, the linear one always row after row.
	var place func(*imdb.Table, imdb.Layout) (imdb.Placement, error)
	data := imdb.RowMajor
	switch sys.Device.Kind {
	case device.RCNVM, device.RRAM:
		if sys.Device.Kind == device.RCNVM {
			data = imdb.ColMajor
		}
		alloc := imdb.NewNVMAllocatorSpread(sys.Device.Geom, spreadChunks)
		place = func(t *imdb.Table, l imdb.Layout) (imdb.Placement, error) { return alloc.Place(t, l) }
	default: // DRAM, GS-DRAM
		alloc := imdb.NewLinearAllocator(sys.Device.Geom)
		place = func(t *imdb.Table, _ imdb.Layout) (imdb.Placement, error) { return alloc.Place(t) }
	}
	for _, tp := range []struct {
		dst    *imdb.Placement
		table  *imdb.Table
		layout imdb.Layout
	}{{&env.A, ta, data}, {&env.B, tb, data}, {&env.C, tc, data}, {&env.Hash, th, imdb.RowMajor}} {
		var err error
		if *tp.dst, err = place(tp.table, tp.layout); err != nil {
			return nil, err
		}
	}
	return env, nil
}

// spreadChunks is how many subarray chunks each benchmark table is sliced
// into on the NVM systems: enough to engage every bank of both channels.
const spreadChunks = 32

// hashSlotsFor sizes the hash work area to the next power of two.
func hashSlotsFor(n int) int {
	s := 1
	for s < n {
		s <<= 1
	}
	return s
}

// selectTuples draws a deterministic sorted match set with the given
// selectivity.
func selectTuples(n int, sel float64, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, 0, int(float64(n)*sel)+16)
	for i := 0; i < n; i++ {
		if rng.Float64() < sel {
			out = append(out, i)
		}
	}
	return out
}

// hashSlots maps tuple indices to pseudo-random hash-table slots
// (Fibonacci hashing, deterministic).
func hashSlots(n, slots int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = int(uint32(i)*2654435761) % slots
	}
	return out
}

// Run builds and executes one query workload on one system.
func Run(sys config.System, spec Spec, p Params) (sim.Result, error) {
	env, err := NewEnv(sys, p)
	if err != nil {
		return sim.Result{}, err
	}
	if err := spec.Build(env); err != nil {
		return sim.Result{}, fmt.Errorf("workload %s: %w", spec.ID, err)
	}
	return sim.RunOn(sys, env.Exec.Streams())
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// MixedStreamsRounds builds the OLXP mix the paper's introduction
// motivates: half the cores run OLTP against table-a (point fetches of two
// fields and single-field updates over a hot set) while the other half
// concurrently runs OLAP (two full-column aggregate scans) on the same
// single copy of the data. Both repeat rounds times (at least once): one
// round is the OLXP extension experiment's mix; more model a steady-state
// serving window — hot rows re-miss the row buffer across passes once the
// working set exceeds the LLC — and are the workload of the hybrid
// DRAM-tier sweep.
func MixedStreamsRounds(sys config.System, p Params, rounds int) ([]trace.Stream, error) {
	env, err := NewEnv(sys, p)
	if err != nil {
		return nil, err
	}
	cores := sys.CPU.Cores
	oltpCores := cores / 2
	if oltpCores == 0 {
		oltpCores = 1
	}
	if rounds < 1 {
		rounds = 1
	}

	oltp := query.New(query.ArchOf(sys.Device.Kind), oltpCores)
	oltp.BeginQuery(env.A.Table())
	hot := selectTuples(p.TuplesA, 0.02, p.Seed+200)
	olap := query.New(query.ArchOf(sys.Device.Kind), cores-oltpCores)
	olap.BeginQuery(env.A.Table())
	for r := 0; r < rounds; r++ {
		if err := oltp.FetchTuples(env.A, hot, []string{"f3", "f4"}, query.TouchCycles); err != nil {
			return nil, err
		}
		if err := oltp.UpdateTuples(env.A, hot, []string{"f9"}, query.TouchCycles); err != nil {
			return nil, err
		}
		if err := olap.ScanField(env.A, "f10", false, query.CmpCycles); err != nil {
			return nil, err
		}
		if err := olap.ScanField(env.A, "f1", false, query.AggCycles); err != nil {
			return nil, err
		}
	}

	streams := make([]trace.Stream, 0, cores)
	streams = append(streams, oltp.Streams()...)
	streams = append(streams, olap.Streams()...)
	return streams, nil
}

// RunMixedRounds executes the OLXP mix on one system.
func RunMixedRounds(sys config.System, p Params, rounds int) (sim.Result, error) {
	streams, err := MixedStreamsRounds(sys, p, rounds)
	if err != nil {
		return sim.Result{}, err
	}
	return sim.RunOn(sys, streams)
}
