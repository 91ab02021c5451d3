package placement

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"xring/internal/core"
	"xring/internal/noc"
	"xring/internal/obs"
	"xring/internal/parallel"
)

// pollCancelCtx cancels itself after a fixed number of Err polls,
// stopping the search at a reproducible point without timing races.
type pollCancelCtx struct {
	context.Context
	polls atomic.Int64
	limit int64
}

func (c *pollCancelCtx) Err() error {
	if c.polls.Add(1) > c.limit {
		return context.Canceled
	}
	return c.Context.Err()
}

// TestOptimizeCancelledWithinOneRound: a context cancelled during a
// round must surface at the next round boundary — the search returns
// the context error having evaluated at most the initial synthesis
// plus one round of proposals, not the full iteration budget.
func TestOptimizeCancelledWithinOneRound(t *testing.T) {
	prevM := obs.MetricsEnabled()
	obs.EnableMetrics(true)
	obs.ResetMetrics()
	t.Cleanup(func() {
		obs.EnableMetrics(prevM)
		obs.ResetMetrics()
	})
	parallel.SetWorkers(1) // deterministic poll sequence
	t.Cleanup(func() { parallel.SetWorkers(0) })

	net := noc.Floorplan8()
	opt := Options{
		Objective:         MinWorstIL,
		Synth:             core.Options{MaxWL: 8},
		Iterations:        64,
		ProposalsPerRound: 4,
		StepMM:            1,
		Seed:              7,
	}

	// Probe: poll count of the initial synthesis alone (warm ring cache
	// first so the counts line up with the run below).
	if _, err := core.Synthesize(net, opt.Synth); err != nil {
		t.Fatal(err)
	}
	probe := &pollCancelCtx{Context: context.Background(), limit: 1 << 62}
	if _, err := core.SynthesizeCtx(probe, net, opt.Synth); err != nil {
		t.Fatal(err)
	}
	initialPolls := probe.polls.Load()

	// Cancel just after the initial synthesis completes: the first
	// round may start, but no second round is allowed.
	synthCalls := obs.SnapshotMetrics().Counters["core.synthesize.calls"]
	cctx := &pollCancelCtx{Context: context.Background(), limit: initialPolls + 1}
	_, _, _, err := OptimizeCtx(cctx, net, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled optimize returned err = %v, want context.Canceled", err)
	}
	evaluated := obs.SnapshotMetrics().Counters["core.synthesize.calls"] - synthCalls
	maxOneRound := int64(1 + opt.ProposalsPerRound)
	if evaluated > maxOneRound {
		t.Fatalf("cancelled optimize ran %d synthesis calls, want <= %d (initial + one round)",
			evaluated, maxOneRound)
	}
}
