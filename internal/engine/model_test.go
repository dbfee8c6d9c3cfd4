package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"rcnvm/internal/imdb"
)

// refModel is the trivially-correct reference: a slice of tuples plus
// tombstones.
type refModel struct {
	rows    [][]uint64
	deleted []bool
}

func (m *refModel) live() []int {
	var out []int
	for i := range m.rows {
		if !m.deleted[i] {
			out = append(out, i)
		}
	}
	return out
}

// TestEngineAgainstModel drives the engine and the reference model with the
// same random operation sequence and compares every observable result.
func TestEngineAgainstModel(t *testing.T) {
	t.Run("dual", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2024))
		db, err := Open()
		if err != nil {
			t.Fatal(err)
		}
		const fields = 6
		tbl, err := db.CreateTable("m", imdb.Uniform("m", fields), 4096)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refModel{}
		fieldName := func(i int) string { return imdb.Uniform("", fields).Fields[i].Name }

		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // append
				if tbl.Rows() >= tbl.Capacity() {
					continue
				}
				vals := make([]uint64, fields)
				for i := range vals {
					vals[i] = uint64(rng.Intn(50))
				}
				row, err := tbl.Append(vals...)
				if err != nil {
					t.Fatal(err)
				}
				ref.rows = append(ref.rows, append([]uint64(nil), vals...))
				ref.deleted = append(ref.deleted, false)
				if row != len(ref.rows)-1 {
					t.Fatalf("step %d: row id %d, want %d", step, row, len(ref.rows)-1)
				}
			case op < 6: // update one random live row
				live := ref.live()
				if len(live) == 0 {
					continue
				}
				row := live[rng.Intn(len(live))]
				f := rng.Intn(fields)
				v := uint64(rng.Intn(50))
				if err := tbl.SetField(row, fieldName(f), v); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				ref.rows[row][f] = v
			case op < 7: // delete one random live row
				live := ref.live()
				if len(live) == 0 {
					continue
				}
				row := live[rng.Intn(len(live))]
				if err := tbl.Delete(listed([]int{row})); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				ref.deleted[row] = true
			case op < 9: // scan with a random predicate
				f := rng.Intn(fields)
				threshold := uint64(rng.Intn(50))
				got, err := tbl.ScanWhere(fieldName(f), func(v []uint64) bool { return v[0] >= threshold })
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				var want []int
				for _, row := range ref.live() {
					if ref.rows[row][f] >= threshold {
						want = append(want, row)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: scan got %v, want %v", step, got, want)
				}
			default: // aggregate
				f := rng.Intn(fields)
				got, err := tbl.SumField(fieldName(f), nil)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				var want uint64
				for _, row := range ref.live() {
					want += ref.rows[row][f]
				}
				if got != want {
					t.Fatalf("step %d: sum got %d, want %d", step, got, want)
				}
			}
		}

		// Final full comparison.
		if tbl.Live() != len(ref.live()) {
			t.Fatalf("live = %d, want %d", tbl.Live(), len(ref.live()))
		}
		for _, row := range ref.live() {
			got, err := tbl.Tuple(row)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ref.rows[row]) {
				t.Fatalf("row %d = %v, want %v", row, got, ref.rows[row])
			}
		}
	})
}
