//go:build !race

// The reference lowering is single-threaded and slow by design; under the
// race detector it would add a minute and find nothing.

package query_test

import (
	"reflect"
	"testing"

	"rcnvm/internal/config"
	"rcnvm/internal/experiments"
	"rcnvm/internal/query"
	"rcnvm/internal/trace"
	"rcnvm/internal/workload"
)

// TestRunLoweringEqualsPerCell builds every planner path twice, walking
// the placements' runs and through the per-cell reference, and requires
// the same stored records, not only the same expansion: every streamCases
// entry on every system at the small scale, and Q1–Q13 on every system at
// the medium scale, where table-a fills the modelled L3 (skipped under
// -short).
func TestRunLoweringEqualsPerCell(t *testing.T) {
	type cell struct {
		name  string
		build func(config.System) ([]trace.Stream, error)
	}
	var cells []cell
	for _, c := range streamCases() {
		cells = append(cells, cell{"small/" + c.name, c.build})
	}
	if !testing.Short() {
		medium := experiments.ParamsFor(experiments.ScaleMedium)
		for _, q := range workload.Queries() {
			cells = append(cells, cell{"medium/" + q.ID, querySpec(q, medium)})
		}
	}
	for _, sys := range config.All() {
		for _, c := range cells {
			runs, err := c.build(sys)
			if err != nil {
				t.Fatalf("%s on %s: %v", c.name, sys.Name, err)
			}
			restore := query.LowerPerCell()
			ref, err := c.build(sys)
			restore()
			if err != nil {
				t.Fatalf("%s on %s, per cell: %v", c.name, sys.Name, err)
			}
			if !reflect.DeepEqual(runs, ref) {
				t.Errorf("%s on %s: run lowering differs from the per-cell reference", c.name, sys.Name)
			}
		}
	}
}
