// Package parallel is the concurrency substrate of the synthesis
// engine: a bounded, shared worker budget with ordered fan-out/fan-in
// helpers. Every hot loop of the flow — the #wl sweep, placement move
// rounds, the per-signal loss walks, fault-replay scenarios and the
// Step-1 conflict-table stripes — funnels through this package, so
// total CPU oversubscription stays bounded no matter how the loops
// nest.
//
// Design rules:
//
//   - The global budget holds GOMAXPROCS-1 borrowable worker tokens;
//     the calling goroutine always participates in its own fan-out, so
//     a fan-out issued from inside another fan-out's worker can always
//     make progress without a token (no nested-pool deadlock) and a
//     single-CPU machine degrades to plain serial loops with near-zero
//     overhead.
//   - Results are reduced in input order: Map writes slot i of its
//     result slice from task i, so callers observe a deterministic
//     ordering regardless of which worker finished first.
//   - Cancellation is prompt: no new task starts after the context is
//     cancelled or a task has failed; ForEach then waits for in-flight
//     tasks to drain and reports the first error in task order.
//   - SetWorkers(1) is the one serial mode: every fan-out, nested ones
//     included, then runs inline on its caller in index order. Callers
//     keep no serial loop of their own; the pool width is the only
//     concurrency setting.
package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"xring/internal/obs"
	"xring/internal/resilience"
)

// Pool telemetry (all updates gated on the obs metrics flag):
// fan-outs issued, tasks executed, worker-token borrows, the number of
// goroutines concurrently inside a fan-out (caller + borrowed workers;
// the Max is the pool's realized parallelism), and the free-token level
// (the "queue depth" of the token budget — 0 free means further nested
// fan-outs degrade to serial).
var (
	mFanouts    = obs.NewCounter("parallel.fanouts")
	mTasks      = obs.NewCounter("parallel.tasks")
	mBorrows    = obs.NewCounter("parallel.borrows")
	mBusy       = obs.NewGauge("parallel.workers.busy")
	mTokensFree = obs.NewGauge("parallel.tokens.free")
	mPanics     = obs.NewCounter("parallel.panics")
)

// tokens is the global borrowable-worker budget. A fan-out borrows
// tokens non-blockingly: if none are free the caller simply does the
// work itself, which bounds the total number of running workers at
// roughly GOMAXPROCS across all concurrent and nested fan-outs.
var (
	tokenMu sync.Mutex
	tokens  chan struct{}
)

// stopHook, when non-nil, runs each time a fan-out records a task
// failure or cancellation, after no worker can claim another task
// without first seeing the stop. Tests use it to count the tasks issued
// after a stop without depending on scheduling.
var stopHook func()

func init() {
	SetWorkers(runtime.GOMAXPROCS(0))
	resilience.RegisterFaultPoint("parallel.task")
}

// SetWorkers resizes the shared worker budget to n; n == 1 means no
// extra workers (every fan-out runs serially on its caller) and n <= 0
// restores the GOMAXPROCS-sized default pool. It is intended for
// benchmarks and tests that compare serial and parallel execution;
// flipping it while fan-outs are in flight only affects future borrows.
func SetWorkers(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	c := make(chan struct{}, n-1)
	for i := 0; i < n-1; i++ {
		c <- struct{}{}
	}
	tokenMu.Lock()
	tokens = c
	tokenMu.Unlock()
}

// Workers returns the current worker budget (callers + borrowable
// workers), i.e. the maximum parallelism of one fan-out.
func Workers() int {
	tokenMu.Lock()
	defer tokenMu.Unlock()
	return cap(tokens) + 1
}

// borrow tries to take one worker token; release must be called iff it
// returns a non-nil channel.
func borrow() chan struct{} {
	tokenMu.Lock()
	c := tokens
	tokenMu.Unlock()
	select {
	case <-c:
		mBorrows.Inc()
		mTokensFree.Set(int64(len(c)))
		return c
	default:
		return nil
	}
}

// ForEach runs fn(i) for every i in [0, n) with bounded parallelism and
// returns the first error in task order (not completion order). The
// calling goroutine participates; extra workers are borrowed from the
// shared budget. After a cancellation or error no further task starts,
// but in-flight tasks run to completion before ForEach returns.
//
// A panicking task never unwinds through the pool: the panic is
// recovered into a *resilience.PanicError task failure carrying the
// panic value and stack, borrowed tokens are returned, and the fan-out
// reports it like any other error. Callers that rely on panics for
// fail-loudly semantics must check the returned error and re-panic.
func ForEach(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	mFanouts.Inc()
	var (
		next    atomic.Int64 // next task index to claim
		stopped atomic.Bool  // set on error or cancellation
		mu      sync.Mutex
		firstI  = n // task index of the lowest-index error
		firstE  error
	)
	fail := func(i int, err error) {
		stopped.Store(true)
		if stopHook != nil {
			stopHook()
		}
		mu.Lock()
		if i < firstI {
			firstI, firstE = i, err
		}
		mu.Unlock()
	}
	// call isolates one task: a panicking fn surfaces as a
	// *resilience.PanicError task failure (stack captured) instead of
	// unwinding through the pool and killing the process, and the
	// "parallel.task" fault point lets tests force failures, panics, or
	// latency into arbitrary tasks.
	call := func(i int) (err error) {
		defer resilience.RecoverTo(&err, "parallel.task")
		if err := resilience.Fire(ctx, "parallel.task"); err != nil {
			return err
		}
		return fn(i)
	}
	run := func() {
		mBusy.Add(1)
		defer mBusy.Add(-1)
		for {
			if stopped.Load() {
				return
			}
			if err := ctx.Err(); err != nil {
				fail(int(next.Load()), err)
				return
			}
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			mTasks.Inc()
			if err := call(i); err != nil {
				var pe *resilience.PanicError
				if errors.As(err, &pe) {
					mPanics.Inc()
				}
				fail(i, err)
				return
			}
		}
	}

	// Borrow up to n-1 extra workers (never more than the budget).
	var wg sync.WaitGroup
	for extra := 0; extra < n-1; extra++ {
		c := borrow()
		if c == nil {
			break
		}
		wg.Add(1)
		go func(c chan struct{}) {
			defer wg.Done()
			defer func() {
				c <- struct{}{}
				mTokensFree.Set(int64(len(c)))
			}()
			run()
		}(c)
	}
	run() // the caller always works too
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	return firstE
}

// Map runs fn(i) for every i in [0, n) with bounded parallelism and
// returns the results in input order. On error the first error in task
// order is returned and the result slice is nil.
func Map[T any](ctx context.Context, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
