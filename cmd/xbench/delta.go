package main

// Placement hot-loop micro-benchmark (-delta): the cost of scoring one
// placement proposal on the 16-node seeded floorplan, evaluated two
// ways — a full re-synthesis of the whole XRing flow (what the
// placement optimizer did before the incremental engine existed) and a
// delta evaluation against an attached evaluator (internal/delta).
// Every delta-scored proposal is also cross-checked bit-for-bit against
// a full analysis recompute, so the speedup number is only reported for
// an engine that is provably equivalent.
//
// Wall-clock is machine-dependent, so the record gates a *ratio*, which
// normalizes the machine away. The gated recompute_speedup divides the
// cost of scoring a proposal by a full recompute (EvalMove's move and
// PDN rebuild, then Evaluator.FullRecompute) by the cost of EvalMove.
// Both sides run the same move, PDN and crosstalk code and no synthesis
// step, so a synthesis speedup cannot move it; losing more than 25% of
// it means incremental scoring stopped paying. The speedup over full
// re-synthesis moves with every synthesis
// speedup, so it is recorded only, but its >=5x acceptance floor is
// enforced on every run, with or without -check.

import (
	"context"
	"fmt"
	"math/rand"
	"os"

	"xring/internal/core"
	"xring/internal/delta"
	"xring/internal/geom"
	"xring/internal/noc"
)

const (
	// deltaBenchProposals is the delta-pass proposal count; the full
	// pass scores deltaBenchFullProposals of the same sequence.
	deltaBenchProposals     = 64
	deltaBenchFullProposals = 6
	// deltaBenchTimingReps is how many paired samples of the gated
	// ratio one run takes; the record keeps their median.
	deltaBenchTimingReps = 5
	// deltaSpeedupFloor is the acceptance bar: delta evaluation must be
	// at least this much faster per proposal than full re-synthesis.
	deltaSpeedupFloor = 5.0
)

// deltaBenchNet is the 16-node seeded floorplan the placement16 stage
// of the -json benchmark searches.
func deltaBenchNet() *noc.Network { return noc.Irregular(16, 16, 16, 2.5, 5) }

// drawProposals generates spacing-valid single-node moves against the
// base placement, the way a placement round does.
func drawProposals(net *noc.Network, count int, seed int64) []struct {
	node int
	to   geom.Point
} {
	rng := rand.New(rand.NewSource(seed))
	props := make([]struct {
		node int
		to   geom.Point
	}, 0, count)
	for len(props) < count {
		node := rng.Intn(net.N())
		p := net.Nodes[node].Pos
		p.X += (rng.Float64()*2 - 1) * 1.5
		p.Y += (rng.Float64()*2 - 1) * 1.5
		ok := true
		for i, other := range net.Nodes {
			if i != node && geom.Manhattan(p, other.Pos) < 1 {
				ok = false
				break
			}
		}
		if ok {
			props = append(props, struct {
				node int
				to   geom.Point
			}{node, p})
		}
	}
	return props
}

func runDeltaBench() (*record, error) {
	net := deltaBenchNet()
	opt := core.Options{MaxWL: 16, WithPDN: true}
	res, err := core.Synthesize(net, opt)
	if err != nil {
		return nil, fmt.Errorf("delta bench: base synthesis: %w", err)
	}
	props := drawProposals(net, deltaBenchProposals, 1)

	// Full pass: clone + complete re-synthesis per proposal, exactly
	// what the pre-delta placement hot loop paid. Each rep gets a fresh
	// engine: the Step-1 cache is keyed by geometry, so a repeat rep over
	// the same proposals would otherwise skip the ring search entirely.
	ctx := context.Background()
	fullMS, err := timeFastest(2, func() error {
		eng := core.NewEngine(nil)
		for _, pr := range props[:deltaBenchFullProposals] {
			cand := &noc.Network{DieW: net.DieW, DieH: net.DieH}
			cand.Nodes = append([]noc.Node(nil), net.Nodes...)
			cand.Nodes[pr.node].Pos = pr.to
			if _, err := eng.SynthesizeCtx(ctx, cand, opt); err != nil {
				return fmt.Errorf("full synthesis of proposal: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("delta bench: %w", err)
	}
	fullPerProposal := fullMS / float64(deltaBenchFullProposals)

	// Delta pass: attach once, score every proposal incrementally.
	// Periodic cross-checking is disabled inside the timed loop (it
	// would bill full recomputes to the delta engine); equivalence is
	// verified separately below.
	ev, err := delta.Attach(res, delta.Options{CrossCheckEvery: -1})
	if err != nil {
		return nil, fmt.Errorf("delta bench: attach: %w", err)
	}
	// The delta pass and a reference pass scoring the same proposals by
	// a full recompute alternate pass by pass in pairedSample, each side
	// for at least sampleMinBatchMS with the collector off, and the
	// record keeps the median of deltaBenchTimingReps samples. Neither
	// side fans out over the worker pool, so their ratio does not depend
	// on the core count.
	pass := func(score func(int, geom.Point) (*delta.Reports, error), what string) func() error {
		return func() error {
			for _, pr := range props {
				if _, err := score(pr.node, pr.to); err != nil {
					return fmt.Errorf("delta bench: %s of proposal: %w", what, err)
				}
			}
			return nil
		}
	}
	var deltas, recomputes, ratios []float64
	for r := 0; r < deltaBenchTimingReps; r++ {
		deltaMS, recomputeMS, err := pairedSample(pass(ev.EvalMove, "delta eval"), 1, pass(ev.RecomputeMove, "full recompute"))
		if err != nil {
			return nil, err
		}
		deltas = append(deltas, deltaMS)
		recomputes = append(recomputes, recomputeMS)
		ratios = append(ratios, recomputeMS/deltaMS)
	}
	deltaPerProposal := median(deltas) / float64(len(props))
	recomputePerProposal := median(recomputes) / float64(len(props))
	recomputeSpeedup := median(ratios)

	// Equivalence: every proposal's delta reports must be bit-identical
	// to a full analysis recompute at the same geometry, and a committed
	// walk with per-commit cross-checks must hold as well.
	for i, pr := range props {
		if _, err := ev.CheckMove(pr.node, pr.to); err != nil {
			return nil, fmt.Errorf("delta bench: proposal %d NOT equivalent to full recompute: %w", i, err)
		}
	}
	walker, err := delta.Attach(res, delta.Options{CrossCheckEvery: 1})
	if err != nil {
		return nil, fmt.Errorf("delta bench: attach walker: %w", err)
	}
	for i, pr := range props[:8] {
		if _, err := walker.Commit(pr.node, pr.to); err != nil {
			return nil, fmt.Errorf("delta bench: committed walk diverged at move %d: %w", i, err)
		}
	}
	checked := len(props) + 8

	speedup := fullPerProposal / deltaPerProposal
	fmt.Fprintf(os.Stderr,
		"delta bench: full %.2f ms/proposal | recompute %.4f | delta %.4f | speedup %.0fx | vs recompute %.2fx | %d equivalence checks OK\n",
		fullPerProposal, recomputePerProposal, deltaPerProposal, speedup, recomputeSpeedup, checked)

	// Acceptance floor, enforced on every run.
	if speedup < deltaSpeedupFloor {
		return nil, fmt.Errorf("delta bench: speedup %.2fx below the %.0fx floor", speedup, deltaSpeedupFloor)
	}

	rec := newRecord("delta")
	rec.add("nodes", float64(net.N()), "")
	// The full pass samples fewer proposals than the delta pass: full
	// re-synthesis is orders of magnitude slower.
	rec.add("full_proposals", deltaBenchFullProposals, "")
	rec.add("delta_proposals", float64(len(props)), "")
	rec.add("full_ms_per_proposal", fullPerProposal, "")
	rec.add("recompute_ms_per_proposal", recomputePerProposal, "")
	rec.add("delta_ms_per_proposal", deltaPerProposal, "")
	// Proposals whose delta reports were verified bit-identical to a
	// full analysis recompute.
	rec.add("equivalence_checked", float64(checked), "")
	rec.add("speedup", speedup, "")
	rec.add("recompute_speedup", recomputeSpeedup, gateRatio)
	return rec, nil
}
