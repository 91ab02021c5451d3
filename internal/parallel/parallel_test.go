package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"xring/internal/resilience"
)

func TestMapOrdered(t *testing.T) {
	defer SetWorkers(Workers())
	for _, workers := range []int{1, 2, 8} {
		SetWorkers(workers)
		out, err := Map(context.Background(), 100, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestForEachFirstErrorInTaskOrder(t *testing.T) {
	defer SetWorkers(Workers())
	SetWorkers(8)
	errAt := func(bad map[int]bool) error {
		return ForEach(context.Background(), 50, func(i int) error {
			if bad[i] {
				return fmt.Errorf("task %d", i)
			}
			return nil
		})
	}
	err := errAt(map[int]bool{7: true, 3: true, 40: true})
	if err == nil || err.Error() != "task 3" {
		t.Fatalf("want first error in task order (task 3), got %v", err)
	}
}

// TestForEachStopsIssuingAfterError counts only the tasks that start
// after the pool has recorded task 0's error. How many start before that
// depends on scheduling alone: a worker that claims task 0 and is then
// descheduled lets the other worker run any number of tasks, none of
// which the pool could have skipped. Once the error is recorded, each
// other worker can start at most the one task it was already claiming.
func TestForEachStopsIssuingAfterError(t *testing.T) {
	defer SetWorkers(Workers())
	SetWorkers(2)
	var recorded atomic.Bool
	stopHook = func() { recorded.Store(true) }
	defer func() { stopHook = nil }()
	var late atomic.Int64
	err := ForEach(context.Background(), 1000, func(i int) error {
		if i == 0 {
			return errors.New("boom")
		}
		if recorded.Load() {
			late.Add(1)
		}
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := late.Load(); n > 10 {
		t.Fatalf("%d tasks ran after early error", n)
	}
}

func TestForEachCancellationDrainsPromptly(t *testing.T) {
	defer SetWorkers(Workers())
	SetWorkers(4)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	done := make(chan error, 1)
	release := make(chan struct{})
	go func() {
		done <- ForEach(ctx, 10000, func(i int) error {
			started.Add(1)
			if i < 4 {
				<-release // first wave blocks until released
			}
			return nil
		})
	}()
	// Let the first wave start, then cancel.
	for started.Load() < 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ForEach did not drain after cancel")
	}
	// Far fewer than n tasks must have started.
	if n := started.Load(); n > 100 {
		t.Fatalf("%d tasks started despite prompt cancel", n)
	}
}

func TestNestedForEachNoDeadlock(t *testing.T) {
	defer SetWorkers(Workers())
	SetWorkers(2) // tight budget: inner fan-outs find no spare tokens
	var sum atomic.Int64
	err := ForEach(context.Background(), 8, func(i int) error {
		return ForEach(context.Background(), 8, func(j int) error {
			sum.Add(int64(i*8 + j))
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 64*63/2 {
		t.Fatalf("sum = %d", sum.Load())
	}

	// SetWorkers(1) is the one serial mode: every task, nested fan-outs
	// included, runs inline on its caller in index order — outer i, then
	// its inner j. The order is recorded without a lock, so any
	// concurrency fails under -race.
	SetWorkers(1)
	var order [][2]int
	err = ForEach(context.Background(), 4, func(i int) error {
		order = append(order, [2]int{i, -1})
		return ForEach(context.Background(), 3, func(j int) error {
			order = append(order, [2]int{i, j})
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	var want [][2]int
	for i := 0; i < 4; i++ {
		want = append(want, [2]int{i, -1})
		for j := 0; j < 3; j++ {
			want = append(want, [2]int{i, j})
		}
	}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("one-worker order = %v, want %v", order, want)
	}
}

// TestWorkersFloor pins SetWorkers' floor: any n < 1 restores the full
// GOMAXPROCS-sized pool.
func TestWorkersFloor(t *testing.T) {
	defer SetWorkers(Workers())
	SetWorkers(0)
	if want := runtime.GOMAXPROCS(0); Workers() != want {
		t.Fatalf("Workers() = %d, want GOMAXPROCS %d", Workers(), want)
	}
	SetWorkers(4)
	if Workers() != 4 {
		t.Fatalf("Workers() = %d, want 4", Workers())
	}
}

func TestMapError(t *testing.T) {
	out, err := Map(context.Background(), 10, func(i int) (int, error) {
		if i == 5 {
			return 0, errors.New("bad")
		}
		return i, nil
	})
	if err == nil || out != nil {
		t.Fatal("want error and nil slice")
	}
}

func TestForEachContainsPanics(t *testing.T) {
	// A panicking task must surface as a *resilience.PanicError task
	// failure — never unwind through the pool — and the remaining
	// in-flight tasks must drain.
	var ran atomic.Int64
	err := ForEach(context.Background(), 64, func(i int) error {
		ran.Add(1)
		if i == 7 {
			panic("task 7 exploded")
		}
		return nil
	})
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *resilience.PanicError", err, err)
	}
	if pe.Value != "task 7 exploded" || pe.Point != "parallel.task" {
		t.Errorf("PanicError = {Point: %q, Value: %v}", pe.Point, pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic stack not captured")
	}
	if ran.Load() == 0 {
		t.Error("no tasks ran")
	}
}

func TestForEachPanicDoesNotLeakTokens(t *testing.T) {
	// Borrowed workers must return their tokens even when tasks panic:
	// after many panicking fan-outs the budget still allows a full
	// complement of borrows.
	for round := 0; round < 20; round++ {
		_ = ForEach(context.Background(), 8, func(i int) error { panic(i) })
	}
	if got, want := Workers(), Workers(); got != want {
		t.Fatalf("Workers() inconsistent: %d != %d", got, want)
	}
	var maxBusy atomic.Int64
	var busy atomic.Int64
	_ = ForEach(context.Background(), 1024, func(i int) error {
		b := busy.Add(1)
		defer busy.Add(-1)
		for {
			m := maxBusy.Load()
			if b <= m || maxBusy.CompareAndSwap(m, b) {
				break
			}
		}
		time.Sleep(10 * time.Microsecond)
		return nil
	})
	if w := Workers(); w > 1 && maxBusy.Load() < 2 {
		t.Errorf("after panicking rounds parallelism collapsed: max busy %d with %d workers", maxBusy.Load(), w)
	}
}

func TestForEachMapPanic(t *testing.T) {
	out, err := Map(context.Background(), 4, func(i int) (int, error) {
		if i == 2 {
			panic("boom")
		}
		return i, nil
	})
	if err == nil || out != nil {
		t.Fatal("want contained panic error and nil slice")
	}
}

func TestForEachFaultPoint(t *testing.T) {
	// The parallel.task fault point injects task failures and panics
	// through the context, deterministically.
	sentinel := errors.New("injected task failure")
	in := resilience.NewInjector(1, resilience.Rule{Point: "parallel.task", Err: sentinel, After: 3, Times: 1})
	ctx := resilience.WithInjector(context.Background(), in)
	err := ForEach(ctx, 16, func(i int) error { return nil })
	if !errors.Is(err, sentinel) || !errors.Is(err, resilience.ErrInjected) {
		t.Fatalf("err = %v, want the injected sentinel", err)
	}
	if in.Hits("parallel.task") < 4 {
		t.Errorf("fault point hit %d times, want >= 4", in.Hits("parallel.task"))
	}

	pin := resilience.NewInjector(1, resilience.Rule{Point: "parallel.task", Panic: true, Times: 1})
	pctx := resilience.WithInjector(context.Background(), pin)
	perr := ForEach(pctx, 16, func(i int) error { return nil })
	var pe *resilience.PanicError
	if !errors.As(perr, &pe) {
		t.Fatalf("injected panic surfaced as %v (%T), want *resilience.PanicError", perr, perr)
	}
}
