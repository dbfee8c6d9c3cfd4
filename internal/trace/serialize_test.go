package trace_test

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"strings"
	"testing"

	"rcnvm/internal/addr"
	"rcnvm/internal/config"
	"rcnvm/internal/sim"
	"rcnvm/internal/stats"
	. "rcnvm/internal/trace"
)

func sampleStreams() []Stream {
	return []Stream{
		{LoadOp(addr.Coord{Row: 1, Column: 2}), ComputeOp(5), CLoadOp(addr.Coord{Row: 3})},
		{GatherOp(addr.Coord{Row: 9}, 42), BarrierOp(), UnpinAllOp()},
		{{Kind: CLoad, Coord: addr.Coord{Row: 1000, Column: 4}, N: 100, Step: -8, Axis: addr.Column, Ordered: true, Cycles: 16}},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := sampleStreams()
	if err := SaveStreams(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := LoadStreams(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch: %v vs %v", in, out)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadStreams(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadRejectsWrongMagic(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveStreams(&buf, nil); err != nil {
		t.Fatal(err)
	}
	// Corrupt the magic string bytes.
	b := buf.Bytes()
	idx := bytes.Index(b, []byte("rcnvm-trace"))
	if idx < 0 {
		t.Skip("magic not found in encoding")
	}
	b[idx] = 'x'
	if _, err := LoadStreams(bytes.NewReader(b)); err == nil {
		t.Fatal("corrupted magic accepted")
	}
}

// v1Op is the record of a version 1 file: no run fields.
type v1Op struct {
	Kind     Kind
	Coord    addr.Coord
	GatherID uint32
	Pin      bool
	Ordered  bool
	Cycles   int64
}

// encodeFile writes a trace file with the given header version; streams is
// a []Stream or a [][]v1Op.
func encodeFile(t *testing.T, version int, streams any) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	v := reflect.ValueOf(streams)
	hdr := struct {
		Magic   string
		Version int
		Cores   int
	}{"rcnvm-trace", version, v.Len()}
	if err := enc.Encode(hdr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < v.Len(); i++ {
		if err := enc.Encode(v.Index(i).Interface()); err != nil {
			t.Fatal(err)
		}
	}
	return &buf
}

// TestLoadVersions: a version 1 file, written before records had run
// fields, loads as single accesses; a run under a version 1 header and any
// other version number are refused.
func TestLoadVersions(t *testing.T) {
	old := [][]v1Op{{
		{Kind: Load, Coord: addr.Coord{Row: 1, Column: 2}},
		{Kind: Compute, Cycles: 5},
		{Kind: Gather, Coord: addr.Coord{Row: 9}, GatherID: 42},
		{Kind: CLoad, Coord: addr.Coord{Row: 3}, Pin: true},
	}}
	got, err := LoadStreams(encodeFile(t, 1, old))
	if err != nil {
		t.Fatalf("version 1 file: %v", err)
	}
	want := []Stream{{LoadOp(addr.Coord{Row: 1, Column: 2}), ComputeOp(5), GatherOp(addr.Coord{Row: 9}, 42),
		PinnedCLoadOp(addr.Coord{Row: 3})}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("version 1 file loaded as %v, want %v", got, want)
	}

	if _, err := LoadStreams(encodeFile(t, 1, sampleStreams())); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("run in a version 1 file: %v", err)
	}
	for _, v := range []int{0, 3, -1} {
		if _, err := LoadStreams(encodeFile(t, v, sampleStreams())); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("version %d: %v", v, err)
		}
	}
	var buf bytes.Buffer
	if err := SaveStreams(&buf, sampleStreams()); err != nil {
		t.Fatal(err)
	}
	var hdr struct{ Version int }
	if err := gob.NewDecoder(&buf).Decode(&hdr); err != nil || hdr.Version != 2 {
		t.Fatalf("SaveStreams wrote version %d (%v), want 2", hdr.Version, err)
	}
}

func TestValidate(t *testing.T) {
	dual := addr.Geometry{ChannelBits: 1, RankBits: 2, BankBits: 3, SubarrayBits: 3,
		RowBits: 10, ColumnBits: 10, DualAddress: true}
	rowOnly := addr.Geometry{ChannelBits: 1, RankBits: 1, BankBits: 3,
		RowBits: 16, ColumnBits: 8}

	ok := []Stream{{LoadOp(addr.Coord{Row: 100, Column: 100}), CLoadOp(addr.Coord{Row: 5})}}
	if err := Validate(ok, dual); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	// Column op on a row-only geometry.
	if err := Validate(ok, rowOnly); err == nil {
		t.Fatal("column op on row-only geometry accepted")
	}
	// Out-of-bounds coordinate.
	bad := []Stream{{LoadOp(addr.Coord{Row: 5000})}}
	if err := Validate(bad, dual); err == nil {
		t.Fatal("out-of-bounds coordinate accepted")
	}
	// Non-memory ops are exempt.
	if err := Validate([]Stream{{ComputeOp(3), BarrierOp()}}, rowOnly); err != nil {
		t.Fatalf("bookkeeping ops rejected: %v", err)
	}
}

// TestValidateRuns: a run is admitted only if every access it stands for
// is inside the geometry — both ends, in either direction, without relying
// on uint32 wrap-around — and it moves.
func TestValidateRuns(t *testing.T) {
	dual := addr.Geometry{ChannelBits: 1, RankBits: 2, BankBits: 3, SubarrayBits: 3,
		RowBits: 10, ColumnBits: 10, DualAddress: true}
	rowOnly := addr.Geometry{ChannelBits: 1, RankBits: 1, BankBits: 3, RowBits: 16, ColumnBits: 8}
	run := func(kind Kind, row, col uint32, axis addr.Orientation, n uint32, step int32) Op {
		return Op{Kind: kind, Coord: addr.Coord{Row: row, Column: col}, Axis: axis, N: n, Step: step}
	}
	cases := []struct {
		name string
		geom addr.Geometry
		op   Op
		ok   bool
	}{
		{"whole column", dual, run(CLoad, 0, 5, addr.Column, 1024, 1), true},
		{"whole column upwards", dual, run(CLoad, 1023, 5, addr.Column, 1024, -1), true},
		{"one past the last row", dual, run(CLoad, 0, 5, addr.Column, 1025, 1), false},
		{"strided to the last row", dual, run(CLoad, 7, 5, addr.Column, 128, 8), true},
		{"strided past the last row", dual, run(CLoad, 8, 5, addr.Column, 128, 8), false},
		{"below row zero", dual, run(CLoad, 15, 5, addr.Column, 3, -8), false},
		{"down to row zero", dual, run(CLoad, 16, 5, addr.Column, 3, -8), true},
		{"wraps to a valid row", dual, run(CLoad, 4, 5, addr.Column, 2, math.MinInt32), false},
		{"wraps around uint32 exactly", dual, run(Load, 5, 0, addr.Row, 1<<31, 2), false},
		{"anchor outside", dual, run(Load, 5, 1024, addr.Row, 2, -1), false},
		{"step wider than a row", dual, run(Load, 5, 0, addr.Row, 2, 1024), false},
		{"widest step", dual, run(Load, 5, 0, addr.Row, 2, 1023), true},
		{"never moves", dual, run(Load, 5, 5, addr.Row, 1000, 0), false},
		{"huge count, never moves", dual, run(Load, 5, 5, addr.Row, math.MaxUint32, 0), false},
		{"huge count and step", dual, run(Load, 5, 5, addr.Row, math.MaxUint32, math.MaxInt32), false},
		{"huge count backwards", dual, run(Load, 5, 5, addr.Row, math.MaxUint32, math.MinInt32), false},
		{"unknown axis", dual, run(Load, 5, 5, 2, 2, 1), false},
		{"row run along a column", dual, run(Load, 0, 5, addr.Column, 1024, 1), true},
		{"column kind on row-only memory", rowOnly, run(CLoad, 0, 5, addr.Column, 8, 1), false},
		{"row-only memory, 256 columns", rowOnly, run(Load, 9, 0, addr.Row, 256, 1), true},
		{"row-only memory, 257 columns", rowOnly, run(Load, 9, 0, addr.Row, 257, 1), false},
		{"row-only memory, down its 65536 rows", rowOnly, run(Load, 0, 9, addr.Column, 65536, 1), true},
		{"gathers in a row", dual, Op{Kind: Gather, Coord: addr.Coord{Row: 3}, Axis: addr.Row, N: 8, Step: 128, GatherID: 7}, true},
		{"single op ignores run fields", dual, Op{Kind: Load, Coord: addr.Coord{Row: 3}, N: 1, Step: -9, Axis: 7}, true},
	}
	for _, tc := range cases {
		err := Validate([]Stream{{BarrierOp(), tc.op}}, tc.geom)
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want admitted=%v", tc.name, err, tc.ok)
		}
		if err != nil {
			continue
		}
		// Whatever Validate admits, every access the core would issue is
		// inside the geometry.
		Stream{tc.op}.Expand(func(op Op) {
			if int(op.Coord.Row) >= tc.geom.Rows() || int(op.Coord.Column) >= tc.geom.Columns() {
				t.Fatalf("%s: admitted, but expands to %+v", tc.name, op.Coord)
			}
		})
	}
}

// colPattern is rcnvm-sim's -pattern col: n words down consecutive columns,
// spread over cores, appended one access at a time.
func colPattern(sys config.System, n, cores int) []Stream {
	geom := sys.Device.Geom
	streams := make([]Stream, cores)
	for i := 0; i < n; i++ {
		c := addr.Coord{Row: uint32(i % geom.Rows()), Column: uint32(i/geom.Rows()) % uint32(geom.Columns())}
		op := LoadOp(c)
		if sys.Device.SupportsColumn() {
			op = CLoadOp(c)
		}
		streams[i*cores/n].Append(op)
	}
	return streams
}

// TestRecordReplayRoundTrip is rcnvm-sim -record then -replay: the pattern
// is generated in run form, saved, loaded, validated against the system's
// geometry and replayed, and must report what the generated streams report.
func TestRecordReplayRoundTrip(t *testing.T) {
	for _, sys := range []config.System{config.RCNVM(), config.DRAM()} {
		streams := colPattern(sys, 3000, 3)
		records := 0
		for _, s := range streams {
			records += len(s)
		}
		if records > 20 {
			t.Fatalf("%s: the pattern did not fold: %d records for 3000 accesses", sys.Name, records)
		}
		var file bytes.Buffer
		if err := SaveStreams(&file, streams); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadStreams(&file)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(loaded, sys.Device.Geom); err != nil {
			t.Fatal(err)
		}
		want, err := sim.RunOn(sys, streams)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.RunOn(sys, loaded)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: replayed %+v, recorded %+v", sys.Name, got, want)
		}
		if ops := want.Counters[stats.OpsExecuted]; ops != 3000 {
			t.Errorf("%s: %d ops executed, want 3000", sys.Name, ops)
		}
	}
}
