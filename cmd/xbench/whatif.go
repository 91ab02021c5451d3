package main

// Fault-replay benchmark (-bench whatif): a k=1 fault-tolerant 16-node
// design is replayed under its exhaustive single-fault universe (MRR,
// segment and detune faults). Two properties are pinned:
//
//   - Survivability: the k=1 synthesis must survive every single-MRR
//     scenario with zero lost signals, promoting at least one spare —
//     the same acceptance property the faults package tests, re-checked
//     here on the larger design.
//   - Replay throughput: the delta replay must beat re-running the full
//     nominal loss+crosstalk analysis per scenario. The gated
//     serial_amplification (scenarios x nominal analysis time / serial
//     replay wall-clock) runs both sides on one worker, so the host's
//     core count cannot move it. The parallel replay is recorded beside
//     the host's core count for information only.

import (
	"context"
	"fmt"
	"os"
	"runtime"

	"xring/internal/core"
	"xring/internal/faults"
	"xring/internal/loss"
	"xring/internal/noc"
	"xring/internal/parallel"
	"xring/internal/xtalk"
)

const (
	// whatifTimingReps: best-of reps damp scheduler noise, like the
	// other benches.
	whatifTimingReps = 5
	// whatifNominalRuns is how many nominal analyses one timed batch
	// averages over. A single analysis takes a fraction of a
	// millisecond, too short to time on its own.
	whatifNominalRuns = 200
)

func runWhatifBench() (*record, error) {
	res, err := core.Synthesize(noc.Floorplan16(), core.Options{
		MaxWL: 12, WithPDN: true, FaultTolerance: 1,
	})
	if err != nil {
		return nil, fmt.Errorf("whatif bench: synthesize: %w", err)
	}
	d, plan := res.Design, res.Plan
	ctx := context.Background()

	// The full mixed universe is the timed workload.
	universe := faults.Universe(d, []faults.Kind{faults.KindMRR, faults.KindSegment, faults.KindDetune}, 0)
	scenarios, err := faults.EnumerateK(universe, 1)
	if err != nil {
		return nil, fmt.Errorf("whatif bench: %w", err)
	}

	// nominal is one full loss+crosstalk analysis: what each scenario
	// would cost without delta replay.
	nominal := func() error {
		lrep, err := loss.AnalyzeCtx(ctx, d, plan)
		if err != nil {
			return fmt.Errorf("nominal loss: %w", err)
		}
		if _, err := xtalk.AnalyzeCtx(ctx, d, plan, lrep); err != nil {
			return fmt.Errorf("nominal xtalk: %w", err)
		}
		return nil
	}
	replay := func(serial bool) (*faults.Report, error) {
		return faults.Analyze(ctx, d, plan, scenarios, faults.Options{Serial: serial})
	}

	// Both sides of the gated ratio run on one worker, alternating so a
	// change in machine load between reps slows both alike.
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	var nominalMS, serialMS float64
	for r := 0; r < whatifTimingReps; r++ {
		runtime.GC()
		batch, err := timeFastest(1, func() error {
			for i := 0; i < whatifNominalRuns; i++ {
				if err := nominal(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("whatif bench: %w", err)
		}
		runtime.GC()
		ms, err := timeFastest(1, func() error { _, err := replay(true); return err })
		if err != nil {
			return nil, fmt.Errorf("whatif bench: serial replay: %w", err)
		}
		if r == 0 || batch/whatifNominalRuns < nominalMS {
			nominalMS = batch / whatifNominalRuns
		}
		if r == 0 || ms < serialMS {
			serialMS = ms
		}
	}
	parallel.SetWorkers(0)

	var full *faults.Report
	parallelMS, err := timeFastest(whatifTimingReps, func() error {
		var err error
		full, err = replay(false)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("whatif bench: parallel replay: %w", err)
	}

	// Survivability acceptance on the MRR-only universe.
	mrrScs, err := faults.EnumerateK(faults.Universe(d, []faults.Kind{faults.KindMRR}, 0), 1)
	if err != nil {
		return nil, fmt.Errorf("whatif bench: %w", err)
	}
	mrr, err := faults.Analyze(ctx, d, plan, mrrScs, faults.Options{})
	if err != nil {
		return nil, fmt.Errorf("whatif bench: MRR replay: %w", err)
	}
	promotions := 0
	for _, o := range mrr.Outcomes {
		promotions += len(o.Promoted)
	}

	amplification := 0.0
	if serialMS > 0 {
		amplification = float64(len(scenarios)) * nominalMS / serialMS
	}
	fmt.Fprintf(os.Stderr,
		"whatif replay %d scenarios over %d signals: serial %.1f ms (nominal analysis %.3f ms) | %.1fx vs naive | parallel %.1f ms | MRR survival %v (%d promotions)\n",
		len(scenarios), full.Signals, serialMS, nominalMS, amplification, parallelMS,
		mrr.FullSetSurvives, promotions)

	// Acceptance floors, independent of any committed record.
	if !mrr.FullSetSurvives || mrr.MaxLost != 0 {
		return nil, fmt.Errorf("whatif bench: k=1 design lost %d signals under single-MRR replay", mrr.MaxLost)
	}
	if promotions == 0 {
		return nil, fmt.Errorf("whatif bench: no fault ever promoted a spare")
	}
	if amplification <= 1.0 {
		return nil, fmt.Errorf("whatif bench: delta replay (%.2fx) was not faster than naive per-scenario re-analysis", amplification)
	}

	rec := newRecord("whatif")
	rec.add("signals", float64(full.Signals), gateExact)
	rec.add("universe", float64(len(universe)), gateExact)
	rec.add("scenarios", float64(len(scenarios)), gateExact)
	rec.add("promotions", float64(promotions), gateMin)
	rec.add("nominal_ms", nominalMS, "")
	rec.add("serial_ms", serialMS, "")
	rec.add("parallel_ms", parallelMS, "")
	rec.add("serial_amplification", amplification, gateRatio)
	return rec, nil
}
