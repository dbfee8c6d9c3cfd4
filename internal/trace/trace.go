// Package trace defines the instruction-level operations the simulated
// cores execute. A trace is the lowered form of a database query plan: the
// per-architecture planners in internal/query translate logical plans into
// per-core op streams of ordinary loads/stores, the RC-NVM cload/cstore ISA
// extension (§4.2.3), GS-DRAM gathers, and bookkeeping ops (compute delays,
// barriers, group-cache unpinning).
package trace

import (
	"fmt"
	"math"

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

// Op is one record of a stream. A memory record stands for a run of
// max(N,1) accesses: element k touches the word k*Step words along Axis
// from Coord (a Gather's pattern id is GatherID+k), and each access is
// followed by Cycles of compute when Cycles > 0. N <= 1 is a single
// access. The other kinds are one op each.
type Op struct {
	Kind Kind
	// Axis is the direction a run walks: along its row (addr.Row, the
	// column index moves) or down its column (addr.Column, the row index
	// moves). It is stored rather than derived from Kind, so RowOnly keeps
	// the cells a column run touches.
	Axis addr.Orientation
	// Pin requests the touched line be pinned (group-caching prefetch).
	Pin bool
	// Ordered marks a strictly-ordered access (tuple-at-a-time operator
	// chains): the core allows only minimal overlap with prior memory
	// operations.
	Ordered bool
	// Coord is the 8-byte word touched by the first access; for Gather it
	// is the pattern's anchor word (the first gathered element).
	Coord addr.Coord
	// GatherID identifies the gathered pattern for cache purposes.
	GatherID uint32
	// N is the number of accesses in the run and Step the signed distance
	// between them, in words along Axis.
	N    uint32
	Step int32
	// Cycles is the duration of a Compute op, or the compute that follows
	// each access of a memory record, in CPU cycles.
	Cycles int64
}

// Len returns how many accesses the record stands for (0 for the
// bookkeeping kinds).
func (op *Op) Len() int {
	switch {
	case !op.Kind.IsMemory():
		return 0
	case op.N <= 1:
		return 1
	}
	return int(op.N)
}

// At returns the word and gather id of the record's k-th access.
func (op *Op) At(k uint32) (addr.Coord, uint32) {
	c := op.Coord
	if k == 0 {
		return c, op.GatherID
	}
	d := uint32(int64(k) * int64(op.Step))
	if op.Axis == addr.Row {
		c.Column += d
	} else {
		c.Row += d
	}
	if op.Kind == Gather {
		return c, op.GatherID + k
	}
	return c, op.GatherID
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

// Stream is a per-core op sequence. Build one with Append; what the core
// executes is its expansion (Expand), one op per access and per compute.
type Stream []Op

// Append adds one op in program order. It is the one way an access enters
// a stream: an access that continues the run before it — same kind, Pin,
// Ordered and per-access compute, the next word along the run's axis (and
// the next gather id) — is folded into that run, so the expansion is
// always exactly the sequence appended, with adjacent computes merged and
// empty ones dropped. The last record stays a single access while it may
// still collect compute; it is folded when the next op arrives.
func (s *Stream) Append(op Op) {
	st := *s
	n := len(st)
	if op.Kind == Compute {
		if op.Cycles <= 0 {
			return
		}
		if n > 0 {
			last := &st[n-1]
			switch {
			case last.Kind == Compute || last.Len() == 1:
				last.Cycles += op.Cycles
				return
			case last.Len() > 1:
				// Only the run's last access gets the extra compute:
				// split it off.
				tail := *last
				tail.Coord, tail.GatherID = last.At(last.N - 1)
				tail.N, tail.Step, tail.Axis = 0, 0, addr.Row
				tail.Cycles += op.Cycles
				last.N--
				*s = append(st, tail)
				return
			}
		}
	} else if n >= 2 && st[n-2].extend(&st[n-1]) {
		st = st[:n-1]
	}
	*s = append(st, op)
}

// extend folds the single access p into the run (or single access) r when
// p continues it, and reports whether it did. A repeat of the same word
// (step 0) never folds, so a run visits N distinct words.
func (r *Op) extend(p *Op) bool {
	if r.Kind != p.Kind || !r.Kind.IsMemory() || p.N > 1 || r.Pin != p.Pin ||
		r.Ordered != p.Ordered || r.Cycles != p.Cycles || r.N == math.MaxUint32 {
		return false
	}
	a, b := r.Coord, p.Coord
	if a.Channel != b.Channel || a.Rank != b.Rank || a.Bank != b.Bank ||
		a.Subarray != b.Subarray || a.Byte != b.Byte {
		return false
	}
	n := uint32(r.Len())
	wantID := r.GatherID
	if r.Kind == Gather {
		wantID += n
	}
	if p.GatherID != wantID {
		return false
	}
	dRow, dCol := int64(b.Row)-int64(a.Row), int64(b.Column)-int64(a.Column)
	axis, d := addr.Row, dCol
	if dCol == 0 {
		axis, d = addr.Column, dRow
	} else if dRow != 0 {
		return false
	}
	switch {
	case d == 0:
		return false
	case n == 1:
		if d < math.MinInt32 || d > math.MaxInt32 {
			return false
		}
		r.N, r.Step, r.Axis = 2, int32(d), axis
	case axis != r.Axis || d != int64(n)*int64(r.Step):
		return false
	default:
		r.N++
	}
	return true
}

// Expand calls fn with every op the stream stands for, in execution order:
// each access of a memory record as a single op, followed by its compute.
func (s Stream) Expand(fn func(Op)) {
	for i := range s {
		op := &s[i]
		if !op.Kind.IsMemory() {
			fn(*op)
			continue
		}
		for k, n := uint32(0), uint32(op.Len()); k < n; k++ {
			single := Op{Kind: op.Kind, Pin: op.Pin, Ordered: op.Ordered}
			single.Coord, single.GatherID = op.At(k)
			fn(single)
			if op.Cycles > 0 {
				fn(ComputeOp(op.Cycles))
			}
		}
	}
}

// MemOps counts the memory accesses in the stream.
func (s Stream) MemOps() int {
	n := 0
	for i := range s {
		n += s[i].Len()
	}
	return n
}

// RowOnly returns a copy of s with its column accesses converted to row
// accesses at the same physical cells — "the same plan on a conventional
// memory", for timing comparisons. A run keeps its axis.
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
