package explore

import (
	"context"
	"sync"

	"xring/internal/parallel"
	"xring/internal/resilience"
)

// RunCells fans a study's cells out over the shared internal/parallel
// worker pool, so one budget bounds engine-internal and cross-cell
// parallelism together and a grid never oversubscribes the machine
// (parallel.SetWorkers(1) runs the cells serially in index order). run
// is invoked once per cell; it owns all per-cell error handling (a
// cell that fails must record its failure, not abort its siblings —
// the per-cell isolation contract), so it has no error return. A panic
// in run is contained to its cell as a *resilience.PanicError and
// reported without stopping the remaining cells. Cancellation stops
// un-started cells (in-flight cells complete) and returns the context
// error.
func RunCells(ctx context.Context, cells []Cell, run func(ctx context.Context, c Cell)) error {
	var mu sync.Mutex
	var firstPanic error
	err := parallel.ForEach(ctx, len(cells), func(i int) error {
		// The pool contains task panics itself, but a cell panic must
		// not cancel its siblings: swallow it per cell and keep only
		// the first for the caller.
		perr := func() (err error) {
			defer resilience.RecoverTo(&err, "explore.cell")
			run(ctx, cells[i])
			return nil
		}()
		if perr != nil {
			mu.Lock()
			if firstPanic == nil {
				firstPanic = perr
			}
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return err // cancellation (tasks themselves never fail)
	}
	return firstPanic
}
