// Package query lowers logical database operations (predicate scans, tuple
// fetches, aggregations, updates, ordered multi-column reads, hash-join
// probes) into per-core trace streams, with one planner backend per
// memory architecture:
//
//   - Row-only (DRAM, plain RRAM): every access is an ordinary row-oriented
//     load/store — column-direction work becomes strided row accesses.
//   - GS-DRAM: single-word field scans over power-of-2-sized tuples in a
//     linear row-store are lowered to in-row gathers (8 fields per access);
//     everything else — non-power-of-2 tuples (table-b), multi-table
//     queries, writes — falls back to plain row accesses, reflecting the
//     limitations §1 of the paper enumerates.
//   - RC-NVM: field scans use cload/cstore down physical columns, tuple
//     fetches use row accesses, unordered wide scans are reordered
//     word-major to avoid column-buffer thrash, and ordered multi-column
//     reads can use group caching (§5): pinned column prefetches followed
//     by in-cache consumption.
//
// Work is partitioned across cores by tuple range (owner-computes), with
// barriers between dependent phases.
package query

import (
	"fmt"
	"math/bits"

	"rcnvm/internal/addr"
	"rcnvm/internal/device"
	"rcnvm/internal/imdb"
	"rcnvm/internal/trace"
)

// Arch selects the planner backend.
type Arch uint8

const (
	// RowOnly is the conventional backend (DRAM, plain RRAM).
	RowOnly Arch = iota
	// GSDRAM adds in-row gather lowering.
	GSDRAM
	// RCNVM adds column-oriented lowering and group caching.
	RCNVM
)

// ArchOf maps a device kind to its planner backend.
func ArchOf(k device.Kind) Arch {
	switch k {
	case device.GSDRAM:
		return GSDRAM
	case device.RCNVM:
		return RCNVM
	default:
		return RowOnly
	}
}

func (a Arch) String() string {
	switch a {
	case RowOnly:
		return "row-only"
	case GSDRAM:
		return "gs-dram"
	case RCNVM:
		return "rc-nvm"
	default:
		return fmt.Sprintf("Arch(%d)", uint8(a))
	}
}

// Per-element CPU costs, in cycles. They model the query-processing work
// between memory touches.
const (
	CmpCycles   = 2  // predicate evaluation
	AggCycles   = 2  // aggregate accumulation
	TouchCycles = 1  // materializing an output field
	HashCycles  = 12 // hash insert or probe
)

// Executor accumulates the lowered per-core streams for one query.
type Executor struct {
	arch  Arch
	cores int

	streams []trace.Stream

	gatherSeq   uint32
	multiTable  bool
	gatherTable *imdb.Table

	// orderedEmit marks emitted memory ops as strictly ordered (set
	// around GroupRead lowering).
	orderedEmit bool
	// noPin disables cache pinning in group caching (ablation).
	noPin bool
}

// New returns an executor for the given backend and core count.
func New(arch Arch, cores int) *Executor {
	return &Executor{
		arch:    arch,
		cores:   cores,
		streams: make([]trace.Stream, cores),
	}
}

// Arch returns the backend.
func (e *Executor) Arch() Arch { return e.arch }

// SetPinning toggles group-caching cache pinning (ablation; on by
// default).
func (e *Executor) SetPinning(on bool) { e.noPin = !on }

// Streams returns the lowered per-core op streams.
func (e *Executor) Streams() []trace.Stream { return e.streams }

// BeginQuery declares the tables the query touches. Queries over more than
// one table disable GS-DRAM gathering (the multi-pattern complexity the
// paper calls out).
func (e *Executor) BeginQuery(tables ...*imdb.Table) {
	e.multiTable = len(tables) > 1
	e.gatherTable = nil
}

// Barrier appends a full barrier to every core (dependent phase boundary).
func (e *Executor) Barrier() {
	for i := range e.streams {
		e.streams[i].Append(trace.BarrierOp())
	}
}

// gatherEligible reports whether a single-word field scan of p can be
// lowered to GS-DRAM gathers.
func (e *Executor) gatherEligible(p imdb.Placement, words int) (*imdb.LinearPlacement, bool) {
	if e.arch != GSDRAM || e.multiTable || words != 1 {
		return nil, false
	}
	lp, ok := p.(*imdb.LinearPlacement)
	if !ok {
		return nil, false
	}
	L := p.Table().Schema.TupleWords()
	if bits.OnesCount(uint(L)) != 1 {
		return nil, false // non-power-of-2 stride (table-b)
	}
	if lp.TuplesPerDeviceRow() < addr.LineWords {
		return nil, false // pattern would span DRAM rows
	}
	if e.gatherTable != nil && e.gatherTable != p.Table() {
		return nil, false // one pattern at a time
	}
	e.gatherTable = p.Table()
	return lp, true
}

// loadKind returns the op kind for a read in the given orientation under
// this backend (only RC-NVM may use column ops).
func (e *Executor) loadKind(o addr.Orientation) trace.Kind {
	if e.arch == RCNVM && o == addr.Column {
		return trace.CLoad
	}
	return trace.Load
}

func (e *Executor) storeKind(o addr.Orientation) trace.Kind {
	if e.arch == RCNVM && o == addr.Column {
		return trace.CStore
	}
	return trace.Store
}

// accessKind returns the load or store kind for the orientation.
func (e *Executor) accessKind(o addr.Orientation, write bool) trace.Kind {
	if write {
		return e.storeKind(o)
	}
	return e.loadKind(o)
}

// emit appends an op to a core's stream, which folds an access that
// continues the run before it.
func (e *Executor) emit(core int, op trace.Op) {
	if e.noPin {
		op.Pin = false
	}
	if e.orderedEmit && op.Kind.IsMemory() && !op.Pin {
		op.Ordered = true
	}
	e.streams[core].Append(op)
}

// emitCompute appends compute work; the stream merges it into the access
// or the compute it follows.
func (e *Executor) emitCompute(core int, cycles int64) {
	e.streams[core].Append(trace.ComputeOp(cycles))
}

// touchSpans emits, for each span of tuple t in turn, the minimal
// loads/stores covering its words in the given orientation, one access per
// cache line touched (so non-contiguous layouts like PAX still touch every
// line they occupy), then perSpan compute cycles.
func (e *Executor) touchSpans(core int, p imdb.Placement, t int, spans []fieldSpan, o addr.Orientation, write bool, perSpan int64) {
	lower.touch(e, core, p, t, spans, o, write, perSpan)
}

// splitRange partitions [0,n) across cores.
func (e *Executor) splitRange(n int) [][2]int { return trace.Split(n, e.cores) }
