package trace

import (
	"math"
	"reflect"
	"testing"

	"rcnvm/internal/addr"
)

// expand lists the ops a stream stands for.
func expand(s Stream) []Op {
	out := []Op{}
	s.Expand(func(op Op) { out = append(out, op) })
	return out
}

// reference is what a sequence of appended single ops must expand to: the
// sequence itself, each access followed by its own compute, with adjacent
// computes merged and empty ones dropped.
func reference(ops []Op) []Op {
	out := []Op{}
	compute := func(cycles int64) {
		if cycles <= 0 {
			return
		}
		if n := len(out); n > 0 && out[n-1].Kind == Compute {
			out[n-1].Cycles += cycles
			return
		}
		out = append(out, ComputeOp(cycles))
	}
	for _, op := range ops {
		switch {
		case op.Kind == Compute:
			compute(op.Cycles)
		case op.Kind.IsMemory():
			out = append(out, Op{Kind: op.Kind, Coord: op.Coord, GatherID: op.GatherID, Pin: op.Pin, Ordered: op.Ordered})
			compute(op.Cycles)
		default:
			out = append(out, op)
		}
	}
	return out
}

func appendAll(ops []Op) Stream {
	var s Stream
	for _, op := range ops {
		s.Append(op)
	}
	return s
}

// checkFold is the contract of Append on one op sequence.
func checkFold(t *testing.T, ops []Op) {
	t.Helper()
	s := appendAll(ops)
	want := reference(ops)
	if got := expand(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("appended %v\nstream   %v\nexpands to %v\nwant       %v", ops, s, got, want)
	}
	mem := 0
	for _, op := range want {
		if op.Kind.IsMemory() {
			mem++
		}
	}
	if s.MemOps() != mem {
		t.Fatalf("MemOps = %d, want %d for %v", s.MemOps(), mem, s)
	}
	for i := range s {
		if s[i].N > 1 && s[i].Step == 0 {
			t.Fatalf("record %d is a run with step 0: %v", i, s)
		}
	}
	// Downgrading to row accesses commutes with expansion.
	if got, want := expand(RowOnly(s)), []Op(RowOnly(Stream(want))); !reflect.DeepEqual(got, want) {
		t.Fatalf("expand(RowOnly(s)) = %v\nRowOnly(expand(s)) = %v", got, want)
	}
}

func at(row, col uint32) addr.Coord { return addr.Coord{Row: row, Column: col} }

// foldCases are the sequences the fold must get right.
func foldCases() map[string][]Op {
	down := func(kind Kind, n int, from uint32, step int) []Op {
		var ops []Op
		for i := 0; i < n; i++ {
			ops = append(ops, Op{Kind: kind, Coord: at(uint32(int(from)+i*step), 7)})
		}
		return ops
	}
	withCompute := func(ops []Op, cycles ...int64) []Op {
		var out []Op
		for i, op := range ops {
			out = append(out, op, ComputeOp(cycles[i%len(cycles)]))
		}
		return out
	}
	return map[string][]Op{
		"column run":            down(CLoad, 20, 0, 1),
		"strided run":           down(Load, 9, 3, 8),
		"negative step":         down(CLoad, 12, 1000, -8),
		"down to row zero":      down(CLoad, 4, 3, -1),
		"reaching the last row": down(CStore, 8, 1016, 1),
		"same word twice":       {LoadOp(at(5, 5)), LoadOp(at(5, 5)), LoadOp(at(5, 5)), LoadOp(at(5, 6)), LoadOp(at(5, 6))},
		"same word mid-run":     {LoadOp(at(5, 5)), LoadOp(at(5, 6)), LoadOp(at(5, 7)), LoadOp(at(5, 7)), LoadOp(at(5, 8))},
		"back to the anchor":    {LoadOp(at(5, 5)), LoadOp(at(5, 6)), LoadOp(at(5, 5)), LoadOp(at(5, 6))},
		"axis change after two": {CLoadOp(at(1, 1)), CLoadOp(at(1, 2)), CLoadOp(at(2, 2)), CLoadOp(at(3, 2)), CLoadOp(at(4, 2))},
		"diagonal":              {LoadOp(at(1, 1)), LoadOp(at(2, 2)), LoadOp(at(3, 3))},
		"other subarray": {LoadOp(at(1, 1)), LoadOp(at(1, 2)),
			LoadOp(addr.Coord{Subarray: 1, Row: 1, Column: 3}), LoadOp(addr.Coord{Subarray: 1, Row: 1, Column: 4})},
		"other byte":  {LoadOp(at(1, 1)), LoadOp(addr.Coord{Row: 1, Column: 2, Byte: 4})},
		"kind change": {LoadOp(at(1, 1)), LoadOp(at(1, 2)), StoreOp(at(1, 3)), StoreOp(at(1, 4))},
		"gathers":     {GatherOp(at(0, 0), 1), GatherOp(at(0, 128), 2), GatherOp(at(0, 256), 3), GatherOp(at(0, 384), 4)},
		"gather id gap": {GatherOp(at(0, 0), 1), GatherOp(at(0, 128), 2), GatherOp(at(0, 256), 4), GatherOp(at(0, 384), 5),
			GatherOp(at(0, 512), 5)},
		"gather id wrap": {GatherOp(at(0, 0), math.MaxUint32), GatherOp(at(0, 8), 0), GatherOp(at(0, 16), 1)},
		"pin flips": {PinnedCLoadOp(at(0, 3)), PinnedCLoadOp(at(8, 3)), CLoadOp(at(16, 3)), CLoadOp(at(24, 3)),
			PinnedCLoadOp(at(32, 3))},
		"ordered flips": {{Kind: CLoad, Coord: at(0, 3), Ordered: true}, {Kind: CLoad, Coord: at(8, 3), Ordered: true},
			{Kind: CLoad, Coord: at(16, 3)}, {Kind: CLoad, Coord: at(24, 3), Ordered: true}},
		"equal compute":          withCompute(down(CLoad, 10, 0, 8), 16),
		"differing compute":      withCompute(down(CLoad, 10, 0, 8), 16, 16, 16, 2),
		"first compute differs":  withCompute(down(CLoad, 6, 0, 8), 5, 16, 16, 16, 16, 16),
		"compute in pieces":      {CLoadOp(at(0, 1)), ComputeOp(1), ComputeOp(2), CLoadOp(at(1, 1)), ComputeOp(3), CLoadOp(at(2, 1)), ComputeOp(3)},
		"empty computes":         {ComputeOp(0), LoadOp(at(0, 0)), ComputeOp(0), ComputeOp(-4), LoadOp(at(0, 1)), BarrierOp(), ComputeOp(0)},
		"carried compute":        {{Kind: Load, Coord: at(0, 0), Cycles: 2}, {Kind: Load, Coord: at(0, 1), Cycles: 2}, ComputeOp(1), {Kind: Load, Coord: at(0, 2), Cycles: 2}},
		"barrier after pending":  append(withCompute(down(Load, 5, 0, 1), 2), BarrierOp(), LoadOp(at(5, 7))),
		"unpin after pending":    append(down(CLoad, 5, 0, 8), UnpinAllOp(), ComputeOp(3), UnpinAllOp()),
		"compute after barrier":  {LoadOp(at(0, 0)), BarrierOp(), ComputeOp(4), ComputeOp(4), LoadOp(at(0, 1)), LoadOp(at(0, 2))},
		"far apart":              {LoadOp(at(0, 0)), LoadOp(at(0, math.MaxUint32)), LoadOp(at(0, 1))},
		"step beyond int32":      {LoadOp(at(0, 0)), LoadOp(at(0, 1<<31)), LoadOp(at(0, 1)), LoadOp(at(0, 1<<31+1))},
		"up to the last address": {LoadOp(at(0, math.MaxUint32-2)), LoadOp(at(0, math.MaxUint32-1)), LoadOp(at(0, math.MaxUint32)), LoadOp(at(0, 0))},
	}
}

func TestAppendFolds(t *testing.T) {
	for name, ops := range foldCases() {
		t.Run(name, func(t *testing.T) { checkFold(t, ops) })
	}
}

// TestAppendRecordCounts pins the record form of the two shapes the sweep
// is made of: a scan with per-tuple compute is one record (plus the access
// still collecting its compute), and a flag flip ends a run.
func TestAppendRecordCounts(t *testing.T) {
	cases := foldCases()
	for name, want := range map[string]int{
		"column run": 2, "equal compute": 2, "negative step": 2, "gathers": 2,
		"ordered flips": 3, "differing compute": 6, "same word twice": 4,
	} {
		if s := appendAll(cases[name]); len(s) != want {
			t.Errorf("%s: %d records, want %d: %v", name, len(s), want, s)
		}
	}
}

// TestAppendRunRecords: a record that is already a run is taken as it is,
// later accesses extend it, and a compute after it lands on its last access
// only.
func TestAppendRunRecords(t *testing.T) {
	run := Op{Kind: CLoad, Coord: at(0, 2), N: 5, Step: 8, Axis: addr.Column, Cycles: 3}
	var s Stream
	s.Append(run)
	s.Append(ComputeOp(4))
	s.Append(Op{Kind: CLoad, Coord: at(40, 2), Cycles: 3})
	s.Append(BarrierOp())
	var want []Op
	for k := uint32(0); k < 5; k++ {
		cycles := int64(3)
		if k == 4 {
			cycles = 7
		}
		want = append(want, CLoadOp(at(8*k, 2)), ComputeOp(cycles))
	}
	want = append(want, CLoadOp(at(40, 2)), ComputeOp(3), BarrierOp())
	if got := expand(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("stream %v\nexpands to %v\nwant       %v", s, got, want)
	}

	s = nil
	s.Append(run)
	s.Append(Op{Kind: CLoad, Coord: at(40, 2), Cycles: 3})
	s.Append(Op{Kind: CLoad, Coord: at(48, 2), Cycles: 3})
	if len(s) != 2 || s[0].N != 6 || s.MemOps() != 7 {
		t.Fatalf("accesses continuing a run record did not extend it: %v", s)
	}
}

// TestAppendAtMaxN: a run cannot count past what N holds; the access that
// would is a new record.
func TestAppendAtMaxN(t *testing.T) {
	s := Stream{{Kind: Load, Coord: at(0, 0), N: math.MaxUint32 - 1, Step: 1, Axis: addr.Row}}
	s.Append(LoadOp(at(0, math.MaxUint32-1)))
	s.Append(LoadOp(at(0, math.MaxUint32)))
	s.Append(BarrierOp())
	if len(s) != 3 || s[0].N != math.MaxUint32 || s[1].Len() != 1 || s[1].Coord != at(0, math.MaxUint32) {
		t.Fatalf("stream = %v", s)
	}
	if got, want := s.MemOps(), math.MaxUint32+1; got != want {
		t.Fatalf("MemOps = %d, want %d", got, want)
	}
	if c, _ := s[0].At(math.MaxUint32 - 1); c != at(0, math.MaxUint32-1) {
		t.Fatalf("last element at %+v", c)
	}
}

// fuzzOps decodes four bytes per op into a sequence that folds often: small
// moves from the previous word along either axis, a few kinds, flags and
// compute amounts, and the odd jump to an edge of the coordinate space.
func fuzzOps(data []byte) []Op {
	edges := [...]uint32{0, 1, 1023, math.MaxUint32 - 1, math.MaxUint32}
	var ops []Op
	var c addr.Coord
	var gid uint32
	for ; len(data) >= 4; data = data[4:] {
		b0, b1, b2, b3 := data[0], data[1], data[2], data[3]
		switch b0 % 10 {
		case 7:
			ops = append(ops, ComputeOp(int64(b2%8)-1))
			continue
		case 8:
			ops = append(ops, BarrierOp())
			continue
		case 9:
			ops = append(ops, UnpinAllOp())
			continue
		}
		kind := [...]Kind{Load, Load, CLoad, CLoad, Store, CStore, Gather}[b0%10]
		d := uint32(int32(int8(b2)) / 16) // -8..7
		switch b1 >> 4 & 7 {
		case 0, 1, 2:
			c.Column += d
		case 3, 4, 5:
			c.Row += d
		case 6:
			c.Row += d
			c.Column += uint32(b3 & 1)
		default:
			c = addr.Coord{Row: edges[int(b2)%len(edges)], Column: edges[int(b3)%len(edges)], Subarray: uint32(b2 >> 7)}
		}
		gid += uint32(b3 >> 6 & 1)
		if kind == Gather {
			gid += uint32(b3>>7&1) ^ 1
		}
		op := Op{Kind: kind, Coord: c, GatherID: gid, Pin: b1&3 == 3, Ordered: b1&12 == 12}
		if b3&3 == 3 {
			op.Cycles = 2
		}
		ops = append(ops, op)
	}
	return ops
}

// FuzzStreamAppend holds Append to checkFold on arbitrary sequences. The
// seeds decode to the shapes of foldCases.
func FuzzStreamAppend(f *testing.F) {
	f.Add([]byte{})
	// Column run with compute, a barrier, a row run, an unpin.
	f.Add([]byte{2, 0x30, 16, 0, 7, 0, 3, 0, 2, 0x30, 16, 0, 7, 0, 3, 0, 2, 0x30, 16, 0, 7, 0, 3, 0, 8, 0, 0, 0,
		0, 0, 16, 0, 0, 0, 16, 0, 0, 0, 16, 0, 9, 0, 0, 0})
	// Same word twice, negative steps, a jump to the last row, gathers.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0x30, 0xf0, 0, 0, 0x30, 0xf0, 0, 0, 0x30, 0xf0, 0, 2, 0x70, 2, 2, 2, 0x30, 16, 0,
		6, 0, 16, 0, 6, 0, 16, 0, 6, 0, 16, 0x80, 6, 0, 16, 0})
	// Pin and Ordered flipping inside a run, compute carried on the op.
	f.Add([]byte{2, 0x33, 16, 0, 2, 0x33, 16, 0, 2, 0x30, 16, 0, 2, 0x3c, 16, 0, 2, 0x3c, 16, 3, 2, 0x3c, 16, 3, 2, 0x3c, 16, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFold(t, fuzzOps(data))
	})
}
