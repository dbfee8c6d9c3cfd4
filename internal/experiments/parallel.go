package experiments

import (
	"context"

	"rcnvm/internal/par"
)

// The simulation sweeps are embarrassingly parallel: every (configuration x
// query) cell builds a fresh sim.System with its own event engine, caches
// and stats, so cells share no mutable state. The runner lives in
// internal/par (it is also the fan-out engine for the sharded SQL
// executor).

// Sweep is par.Sweep under this package's name: fn runs over n independent
// cells and the results come back slotted by cell index, so callers
// assemble tables in a fixed order regardless of which worker finished
// which cell first. It stays because the repo's benchmark (bench/sim.go)
// calls experiments.Sweep; the experiments here use it too, everything
// else calls internal/par directly.
func Sweep[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return par.Sweep[T](ctx, workers, n, fn)
}
