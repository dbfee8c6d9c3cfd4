package engine

import (
	"errors"
	"reflect"
	"testing"

	"rcnvm/internal/ecc"
	"rcnvm/internal/fault"
)

// TestSingleStuckBitIsCorrectedTransparently pins the value-path happy
// case: a targeted single stuck bit flows through encode -> flip ->
// decode and the query result is byte-identical to the stored data,
// with the correction visible in the counters.
func TestSingleStuckBitIsCorrectedTransparently(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	tbl, ref := buildPeople(t, db, 64)
	db.EnableFaults(fault.Config{Enabled: true, Seed: 5})
	db.Faults().AddStuck(tbl.CellCoord(7, 3), 1)

	got, err := tbl.Tuple(7)
	if err != nil {
		t.Fatalf("single stuck bit must be corrected, not fatal: %v", err)
	}
	if !reflect.DeepEqual(got, ref[7]) {
		t.Fatalf("corrected tuple %v, want %v", got, ref[7])
	}
	c := db.Faults().Counts()
	if c.Corrected == 0 || c.StuckBits == 0 {
		t.Fatalf("correction must be accounted: %+v", c)
	}
	if c.Uncorrectable != 0 || c.Miscorrected != 0 {
		t.Fatalf("no uncorrectable/miscorrected expected: %+v", c)
	}
}

// TestDoubleStuckBitSurfacesTypedError checks the tentpole propagation
// contract at the engine layer: a hard double-bit error turns any read
// touching the word into *fault.UncorrectableError, unwrappable to the
// ecc sentinel, from both the tuple-fetch and the column-scan paths.
func TestDoubleStuckBitSurfacesTypedError(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := buildPeople(t, db, 64)
	db.EnableFaults(fault.Config{Enabled: true, Seed: 6})
	bad := tbl.CellCoord(11, 0)
	db.Faults().AddStuck(bad, 2)

	checkTyped := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s over a double-bit error must fail", what)
		}
		var ue *fault.UncorrectableError
		if !errors.As(err, &ue) {
			t.Fatalf("%s: want *fault.UncorrectableError, got %v", what, err)
		}
		if ue.Coord != bad {
			t.Fatalf("%s: error coordinate %+v, want %+v", what, ue.Coord, bad)
		}
		if !errors.Is(err, ecc.ErrUncorrectable) {
			t.Fatalf("%s: must unwrap to ecc.ErrUncorrectable: %v", what, err)
		}
	}
	_, err = tbl.Tuple(11)
	checkTyped("Tuple", err)
	_, err = tbl.SumField("f1", nil)
	checkTyped("SumField", err)
	// The join-key scan: every key handed to a predicate that never matches.
	_, err = tbl.ScanWhere("f1", func([]uint64) bool { return false })
	checkTyped("ScanWhere", err)

	// Rows that do not touch the faulty word keep working.
	if _, err := tbl.Tuple(12); err != nil {
		t.Fatalf("healthy row must read cleanly: %v", err)
	}
}

// TestDisabledFaultsAreFree checks EnableFaults with a disabled config
// leaves no injector behind and reads stay on the unchecked fast path.
func TestDisabledFaultsAreFree(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	tbl, ref := buildPeople(t, db, 32)
	db.EnableFaults(fault.Config{}) // zero value: disabled
	if db.Faults() != nil {
		t.Fatal("disabled config must not install an injector")
	}
	got, err := tbl.Tuple(3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref[3]) {
		t.Fatalf("tuple %v, want %v", got, ref[3])
	}
}

// TestWritesFeedWearModel checks Append/SetField route through the wear
// accounting.
func TestWritesFeedWearModel(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	db.EnableFaults(fault.Config{Enabled: true, Seed: 7})
	tbl, _ := buildPeople(t, db, 16)
	before := db.Faults().Counts().Writes
	if before != 16*8 {
		t.Fatalf("appends recorded %d writes, want %d", before, 16*8)
	}
	if err := tbl.SetField(0, "f2", 42); err != nil {
		t.Fatal(err)
	}
	if got := db.Faults().Counts().Writes; got != before+1 {
		t.Fatalf("SetField recorded %d writes, want %d", got, before+1)
	}
	if db.Faults().SubarrayWrites(tbl.CellCoord(0, 0)) == 0 {
		t.Fatal("subarray wear counter must be non-zero after appends")
	}
}
