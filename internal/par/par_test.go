package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestRunCellsCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		const n = 100
		counts := make([]atomic.Int32, n)
		err := RunCells(context.Background(), workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: cell %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestRunCellsZeroCells(t *testing.T) {
	if err := RunCells(context.Background(), 4, 0, func(int) error {
		t.Fatal("cell ran")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCellsPropagatesLowestError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := RunCells(context.Background(), workers, 50, func(i int) error {
			if i%10 == 3 {
				return fmt.Errorf("cell %d failed", i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		// The lowest-indexed failing cell that ran must win; with any
		// worker count, cell 3 is dispatched before cells 13, 23, ...
		if want := "cell 3 failed"; err.Error() != want {
			t.Fatalf("workers=%d: err = %q, want %q", workers, err, want)
		}
	}
}

func TestRunCellsErrorCancelsRemaining(t *testing.T) {
	var ran atomic.Int32
	boom := errors.New("boom")
	err := RunCells(context.Background(), 2, 1000, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if got := ran.Load(); got == 1000 {
		t.Error("error did not cancel remaining cells")
	}
}

func TestRunCellsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := RunCells(ctx, 2, 1000, func(i int) error {
		if ran.Add(1) == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got == 1000 {
		t.Error("cancellation did not stop the sweep")
	}
}

func TestSweepSlotsResultsByIndex(t *testing.T) {
	out, err := Sweep(context.Background(), 8, 64, func(i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestWorkersDefault(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d, want 5", got)
	}
}
