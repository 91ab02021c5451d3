package explore

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"xring/internal/parallel"
	"xring/internal/resilience"
)

func cellsN(n int) []Cell {
	out := make([]Cell, n)
	for i := range out {
		out[i] = Cell{Index: i, ID: string(rune('a' + i))}
	}
	return out
}

func TestRunnerRunsEveryCell(t *testing.T) {
	defer parallel.SetWorkers(0)
	for _, workers := range []int{0, 1, 3} {
		parallel.SetWorkers(workers)
		var ran atomic.Int64
		if err := RunCells(context.Background(), cellsN(17), func(context.Context, Cell) { ran.Add(1) }); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ran.Load() != 17 {
			t.Errorf("workers=%d: ran %d cells, want 17", workers, ran.Load())
		}
	}
}

func TestRunnerBoundsConcurrency(t *testing.T) {
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(2)
	var cur, peak atomic.Int64
	var mu sync.Mutex
	err := RunCells(context.Background(), cellsN(12), func(context.Context, Cell) {
		n := cur.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		defer cur.Add(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("peak concurrency %d exceeds the pool width 2", p)
	}
}

func TestRunnerContainsCellPanics(t *testing.T) {
	defer parallel.SetWorkers(0)
	for _, workers := range []int{0, 2} {
		parallel.SetWorkers(workers)
		var ran atomic.Int64
		err := RunCells(context.Background(), cellsN(8), func(_ context.Context, c Cell) {
			ran.Add(1)
			if c.Index == 3 {
				panic("cell exploded")
			}
		})
		var pe *resilience.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: want *resilience.PanicError, got %v", workers, err)
		}
		if ran.Load() != 8 {
			t.Errorf("workers=%d: panic aborted siblings: ran %d of 8", workers, ran.Load())
		}
	}
}

func TestRunnerHonorsCancellation(t *testing.T) {
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	if err := RunCells(ctx, cellsN(50), func(context.Context, Cell) { ran.Add(1) }); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if ran.Load() == 50 {
		t.Error("cancelled run still executed every cell")
	}
}
