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
// Wall-clock is machine-dependent; -check therefore compares the
// delta-vs-full *ratio* against the committed BENCH_delta.json and
// fails on >25% regression. The >=5x acceptance floor is enforced on
// every run, with or without -check.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"xring/internal/core"
	"xring/internal/delta"
	"xring/internal/geom"
	"xring/internal/noc"
)

// deltaReport is the BENCH_delta.json schema.
type deltaReport struct {
	GoVersion string `json:"goVersion"`
	GoOS      string `json:"goos"`
	GoArch    string `json:"goarch"`
	Cores     int    `json:"cores"`
	Nodes     int    `json:"nodes"`
	// FullProposals / DeltaProposals are the proposal counts each pass
	// scored (full re-synthesis is orders of magnitude slower, so the
	// full pass samples fewer).
	FullProposals  int `json:"fullProposals"`
	DeltaProposals int `json:"deltaProposals"`
	// Per-proposal evaluation cost and throughput for each mode.
	FullMSPerProposal  float64 `json:"fullMSPerProposal"`
	DeltaMSPerProposal float64 `json:"deltaMSPerProposal"`
	FullPerSec         float64 `json:"fullPerSec"`
	DeltaPerSec        float64 `json:"deltaPerSec"`
	// Speedup is fullMSPerProposal / deltaMSPerProposal.
	Speedup float64 `json:"speedup"`
	// EquivalenceChecked counts proposals whose delta reports were
	// verified bit-identical to a full analysis recompute.
	EquivalenceChecked int    `json:"equivalenceChecked"`
	Timestamp          string `json:"timestampUTC,omitempty"`
	TimingReps         int    `json:"timingReps"`
}

const (
	// deltaBenchProposals is the delta-pass proposal count; the full
	// pass scores deltaBenchFullProposals of the same sequence.
	deltaBenchProposals     = 64
	deltaBenchFullProposals = 6
	deltaBenchTimingReps    = 5
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

func runDeltaBench(out string, checkPath string) error {
	net := deltaBenchNet()
	opt := core.Options{MaxWL: 16, WithPDN: true}
	res, err := core.Synthesize(net, opt)
	if err != nil {
		return fmt.Errorf("delta bench: base synthesis: %w", err)
	}
	props := drawProposals(net, deltaBenchProposals, 1)

	rep := deltaReport{
		GoVersion:      runtime.Version(),
		GoOS:           runtime.GOOS,
		GoArch:         runtime.GOARCH,
		Cores:          runtime.NumCPU(),
		Nodes:          net.N(),
		FullProposals:  deltaBenchFullProposals,
		DeltaProposals: len(props),
		Timestamp:      time.Now().UTC().Format(time.RFC3339),
		TimingReps:     deltaBenchTimingReps,
	}

	// Full pass: clone + complete re-synthesis per proposal, exactly
	// what the pre-delta placement hot loop paid. The Step-1 cache is
	// dropped each rep — it is keyed by geometry, so a repeat rep over
	// the same proposals would otherwise skip the ring search entirely.
	fullMS, err := timeFastest(2, func() error {
		core.ResetRingCache()
		for _, pr := range props[:deltaBenchFullProposals] {
			cand := &noc.Network{DieW: net.DieW, DieH: net.DieH}
			cand.Nodes = append([]noc.Node(nil), net.Nodes...)
			cand.Nodes[pr.node].Pos = pr.to
			if _, err := core.Synthesize(cand, opt); err != nil {
				return fmt.Errorf("full synthesis of proposal: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("delta bench: %w", err)
	}
	rep.FullMSPerProposal = fullMS / float64(deltaBenchFullProposals)

	// Delta pass: attach once, score every proposal incrementally.
	// Periodic cross-checking is disabled inside the timed loop (it
	// would bill full recomputes to the delta engine); equivalence is
	// verified separately below.
	ev, err := delta.Attach(res, delta.Options{CrossCheckEvery: -1})
	if err != nil {
		return fmt.Errorf("delta bench: attach: %w", err)
	}
	deltaMS, err := timeFastest(deltaBenchTimingReps, func() error {
		for _, pr := range props {
			if _, err := ev.EvalMove(pr.node, pr.to); err != nil {
				return fmt.Errorf("delta eval of proposal: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("delta bench: %w", err)
	}
	rep.DeltaMSPerProposal = deltaMS / float64(len(props))

	// Equivalence: every proposal's delta reports must be bit-identical
	// to a full analysis recompute at the same geometry, and a committed
	// walk with per-commit cross-checks must hold as well.
	for i, pr := range props {
		if _, err := ev.CheckMove(pr.node, pr.to); err != nil {
			return fmt.Errorf("delta bench: proposal %d NOT equivalent to full recompute: %w", i, err)
		}
	}
	walker, err := delta.Attach(res, delta.Options{CrossCheckEvery: 1})
	if err != nil {
		return fmt.Errorf("delta bench: attach walker: %w", err)
	}
	for i, pr := range props[:8] {
		if _, err := walker.Commit(pr.node, pr.to); err != nil {
			return fmt.Errorf("delta bench: committed walk diverged at move %d: %w", i, err)
		}
	}
	rep.EquivalenceChecked = len(props) + 8

	if rep.FullMSPerProposal > 0 {
		rep.FullPerSec = 1000 / rep.FullMSPerProposal
	}
	if rep.DeltaMSPerProposal > 0 {
		rep.DeltaPerSec = 1000 / rep.DeltaMSPerProposal
		rep.Speedup = rep.FullMSPerProposal / rep.DeltaMSPerProposal
	}
	fmt.Fprintf(os.Stderr,
		"delta bench: full %.2f ms/proposal (%.1f/s) | delta %.4f ms/proposal (%.0f/s) | speedup %.0fx | %d equivalence checks OK\n",
		rep.FullMSPerProposal, rep.FullPerSec,
		rep.DeltaMSPerProposal, rep.DeltaPerSec,
		rep.Speedup, rep.EquivalenceChecked)

	// Acceptance floor, enforced on every run.
	if rep.Speedup < deltaSpeedupFloor {
		return fmt.Errorf("delta bench: speedup %.2fx below the %.0fx floor", rep.Speedup, deltaSpeedupFloor)
	}

	if out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if checkPath != "" {
		return checkDeltaReport(rep, checkPath)
	}
	return nil
}

// checkDeltaReport compares a fresh run against the committed
// BENCH_delta.json: the delta-vs-full speedup ratio normalizes the
// machine away, so losing more than 25% of it means the engine (not the
// hardware) got slower relative to full synthesis.
func checkDeltaReport(got deltaReport, path string) error {
	var want deltaReport
	return checkAgainst("delta", path, &want, func() []string {
		return checkRatio("speedup", want.Speedup, got.Speedup)
	})
}
