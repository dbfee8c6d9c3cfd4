// Package trace defines the instruction-level operations the simulated
// cores execute. A trace is the lowered form of a database query plan: the
// per-architecture planners in internal/query translate logical plans into
// per-core op streams of ordinary loads/stores, the RC-NVM cload/cstore ISA
// extension (§4.2.3), GS-DRAM gathers, and bookkeeping ops (compute delays,
// barriers, group-cache unpinning).
package trace

import (
	"fmt"

	"rcnvm/internal/addr"
)

// Kind enumerates trace operations.
type Kind uint8

const (
	// Load is a conventional row-oriented 8-byte load.
	Load Kind = iota
	// Store is a conventional row-oriented 8-byte store.
	Store
	// CLoad is the column-oriented load of the RC-NVM ISA extension.
	CLoad
	// CStore is the column-oriented store of the RC-NVM ISA extension.
	CStore
	// Gather is a GS-DRAM gathered load: one access assembling 8 strided
	// words from an open DRAM row.
	Gather
	// Compute models CPU work (filtering, aggregation, hashing) between
	// memory operations.
	Compute
	// Barrier drains all outstanding memory operations of the core before
	// proceeding (phase boundaries, dependent phases).
	Barrier
	// UnpinAll releases every group-caching pin in the cache hierarchy.
	UnpinAll
)

func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case CLoad:
		return "cload"
	case CStore:
		return "cstore"
	case Gather:
		return "gather"
	case Compute:
		return "compute"
	case Barrier:
		return "barrier"
	case UnpinAll:
		return "unpinall"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsMemory reports whether the op occupies a core miss slot.
func (k Kind) IsMemory() bool {
	switch k {
	case Load, Store, CLoad, CStore, Gather:
		return true
	}
	return false
}

// Orientation returns the address orientation of a memory op.
func (k Kind) Orientation() addr.Orientation {
	if k == CLoad || k == CStore {
		return addr.Column
	}
	return addr.Row
}

// IsWrite reports whether the op modifies memory.
func (k Kind) IsWrite() bool { return k == Store || k == CStore }

// Op is one trace operation.
type Op struct {
	Kind Kind
	// Coord is the 8-byte word touched by memory ops; for Gather it is the
	// pattern's anchor word (the first gathered element).
	Coord addr.Coord
	// GatherID identifies the gathered pattern for cache purposes.
	GatherID uint32
	// Pin requests the touched line be pinned (group-caching prefetch).
	Pin bool
	// Ordered marks a strictly-ordered access (tuple-at-a-time operator
	// chains): the core allows only minimal overlap with prior memory
	// operations.
	Ordered bool
	// Cycles is the duration of Compute ops, in CPU cycles.
	Cycles int64
}

// Convenience constructors keep workload builders readable.

// LoadOp returns a row-oriented load of the word at c.
func LoadOp(c addr.Coord) Op { return Op{Kind: Load, Coord: c} }

// StoreOp returns a row-oriented store to the word at c.
func StoreOp(c addr.Coord) Op { return Op{Kind: Store, Coord: c} }

// CLoadOp returns a column-oriented load of the word at c.
func CLoadOp(c addr.Coord) Op { return Op{Kind: CLoad, Coord: c} }

// CStoreOp returns a column-oriented store to the word at c.
func CStoreOp(c addr.Coord) Op { return Op{Kind: CStore, Coord: c} }

// PinnedCLoadOp returns a column-oriented, pinning prefetch load (group
// caching).
func PinnedCLoadOp(c addr.Coord) Op { return Op{Kind: CLoad, Coord: c, Pin: true} }

// GatherOp returns a GS-DRAM gathered load anchored at c with pattern id.
func GatherOp(c addr.Coord, id uint32) Op { return Op{Kind: Gather, Coord: c, GatherID: id} }

// ComputeOp returns n CPU cycles of work.
func ComputeOp(n int64) Op { return Op{Kind: Compute, Cycles: n} }

// BarrierOp returns a full memory barrier.
func BarrierOp() Op { return Op{Kind: Barrier} }

// UnpinAllOp returns a group-caching release.
func UnpinAllOp() Op { return Op{Kind: UnpinAll} }

// Stream is a per-core op sequence.
type Stream []Op

// MemOps counts the memory operations in the stream.
func (s Stream) MemOps() int {
	n := 0
	for _, op := range s {
		if op.Kind.IsMemory() {
			n++
		}
	}
	return n
}

// ComputeTotal sums the compute cycles in the stream.
func (s Stream) ComputeTotal() int64 {
	var n int64
	for _, op := range s {
		if op.Kind == Compute {
			n += op.Cycles
		}
	}
	return n
}

// RowOnly returns a copy of s with its column accesses converted to row
// accesses at the same physical cells — "the same plan on a conventional
// memory", for timing comparisons.
func RowOnly(s Stream) Stream {
	out := make(Stream, len(s))
	for i, op := range s {
		switch op.Kind {
		case CLoad:
			op.Kind = Load
		case CStore:
			op.Kind = Store
		}
		out[i] = op
	}
	return out
}

// Split partitions items [0,n) into `parts` contiguous ranges as evenly as
// possible, returning the [start,end) bounds. Workloads use it to
// distribute tuples across cores.
func Split(n, parts int) [][2]int {
	if parts <= 0 {
		parts = 1
	}
	out := make([][2]int, parts)
	base := n / parts
	rem := n % parts
	start := 0
	for i := 0; i < parts; i++ {
		size := base
		if i < rem {
			size++
		}
		out[i] = [2]int{start, start + size}
		start += size
	}
	return out
}
