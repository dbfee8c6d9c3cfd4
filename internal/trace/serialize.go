package trace

import (
	"encoding/gob"
	"fmt"
	"io"

	"rcnvm/internal/addr"
)

// Serialization lets traces be captured once (from the engine or a
// planner) and replayed later: `rcnvm-sim -replay file` runs a saved
// multi-core trace through any simulated system.

// fileHeader guards the on-disk format.
type fileHeader struct {
	Magic   string
	Version int
	Cores   int
}

// Version 2 added runs (Op.N, Step, Axis, per-access Cycles). A version 1
// file is the subset without them and still loads; a binary that predates
// runs refuses a version 2 file by number instead of replaying each run as
// its first access.
const (
	traceMagic   = "rcnvm-trace"
	traceVersion = 2
)

// SaveStreams writes per-core streams to w.
func SaveStreams(w io.Writer, streams []Stream) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(fileHeader{Magic: traceMagic, Version: traceVersion, Cores: len(streams)}); err != nil {
		return fmt.Errorf("trace: save header: %w", err)
	}
	for i, s := range streams {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("trace: save stream %d: %w", i, err)
		}
	}
	return nil
}

// LoadStreams reads per-core streams from r.
func LoadStreams(r io.Reader) ([]Stream, error) {
	dec := gob.NewDecoder(r)
	var h fileHeader
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("trace: load header: %w", err)
	}
	if h.Magic != traceMagic {
		return nil, fmt.Errorf("trace: not a trace file")
	}
	if h.Version != 1 && h.Version != traceVersion {
		return nil, fmt.Errorf("trace: version %d, want 1 or %d", h.Version, traceVersion)
	}
	if h.Cores < 0 || h.Cores > 1024 {
		return nil, fmt.Errorf("trace: implausible core count %d", h.Cores)
	}
	streams := make([]Stream, h.Cores)
	for i := range streams {
		if err := dec.Decode(&streams[i]); err != nil {
			return nil, fmt.Errorf("trace: load stream %d: %w", i, err)
		}
		if h.Version == 1 {
			for oi := range streams[i] {
				if streams[i][oi].N > 1 {
					return nil, fmt.Errorf("trace: core %d op %d is a run in a version 1 file", i, oi)
				}
			}
		}
	}
	return streams, nil
}

// Validate checks that every access of every memory record lies within the
// geometry — a run by both of its ends, which bounds its length and step —
// and that column ops are only present when the geometry is
// dual-addressable. Replaying a trace captured for one geometry on an
// incompatible system, or a hostile file, fails here instead of deep in the
// simulator.
func Validate(streams []Stream, geom addr.Geometry) error {
	for ci, s := range streams {
		for oi := range s {
			op := &s[oi]
			if !op.Kind.IsMemory() {
				continue
			}
			c := op.Coord
			if int(c.Channel) >= geom.Channels() || int(c.Rank) >= geom.Ranks() ||
				int(c.Bank) >= geom.Banks() || int(c.Subarray) >= geom.Subarrays() ||
				int(c.Row) >= geom.Rows() || int(c.Column) >= geom.Columns() {
				return fmt.Errorf("trace: core %d op %d coordinate %+v out of geometry bounds", ci, oi, c)
			}
			if op.Kind.Orientation() == addr.Column && !geom.DualAddress {
				return fmt.Errorf("trace: core %d op %d is column-oriented but the geometry is row-only", ci, oi)
			}
			if op.N <= 1 {
				continue
			}
			first, extent := int64(c.Column), int64(geom.Columns())
			switch op.Axis {
			case addr.Row:
			case addr.Column:
				first, extent = int64(c.Row), int64(geom.Rows())
			default:
				return fmt.Errorf("trace: core %d op %d run along unknown axis %d", ci, oi, op.Axis)
			}
			// Bounding N by the extent first keeps the far end within int64.
			bad := op.Step == 0 || int64(op.N) > extent
			if !bad {
				last := first + int64(op.N-1)*int64(op.Step)
				bad = last < 0 || last >= extent
			}
			if bad {
				return fmt.Errorf("trace: core %d op %d run of %d accesses, step %d along %s from %+v leaves the geometry",
					ci, oi, op.N, op.Step, op.Axis, c)
			}
		}
	}
	return nil
}
