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
//     core count cannot move it. It is the median of 5 samples, each
//     alternating the two sides for at least 100 ms apiece with the
//     collector off (pairedSample). The parallel replay is recorded
//     beside the host's core count for information only.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"

	"xring/internal/core"
	"xring/internal/faults"
	"xring/internal/loss"
	"xring/internal/noc"
	"xring/internal/parallel"
	"xring/internal/xtalk"
)

const (
	// whatifTimingReps is how many samples of the gated ratio one run
	// takes; the record keeps their median.
	whatifTimingReps = 5
	// sampleMinBatchMS is the least time each side of one pairedSample
	// runs for. One nominal analysis (a fraction of a millisecond) or one
	// serial replay (about ten) is short enough for a scheduler hiccup
	// to move it by a third.
	sampleMinBatchMS = 100
	// whatifNominalChunk is how many nominal analyses run between two
	// replays of a sample: together they take about as long as one
	// replay.
	whatifNominalChunk = 50
)

// pairedSample times one sample of a gated ratio: it alternates one call
// of single with chunk calls of chunked until each side has run for at
// least sampleMinBatchMS, and returns the mean milliseconds per call of
// each. Alternating at that grain exposes both sides to the same host
// load. The collector is off while the sample runs (the whatif sample
// makes about 120 MB of garbage), because its cycles land on either
// side at random and moved single samples by up to a third.
func pairedSample(chunked func() error, chunk int, single func() error) (chunkedMS, singleMS float64, err error) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	chunks, singles := 0, 0
	batch := func() error {
		for i := 0; i < chunk; i++ {
			if err := chunked(); err != nil {
				return err
			}
		}
		return nil
	}
	for chunkedMS < sampleMinBatchMS || singleMS < sampleMinBatchMS {
		ms, err := timeFastest(1, single)
		if err != nil {
			return 0, 0, err
		}
		singleMS += ms
		singles++
		if ms, err = timeFastest(1, batch); err != nil {
			return 0, 0, err
		}
		chunkedMS += ms
		chunks += chunk
	}
	return chunkedMS / float64(chunks), singleMS / float64(singles), nil
}

// median returns the median of xs, reordering them.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	if n := len(xs); n%2 == 0 {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
	return xs[len(xs)/2]
}

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

	// Both sides of the gated ratio run on one worker.
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	var nominals, serials, amps []float64
	for r := 0; r < whatifTimingReps; r++ {
		nominalMS, serialMS, err := pairedSample(nominal, whatifNominalChunk, func() error {
			if _, err := replay(true); err != nil {
				return fmt.Errorf("serial replay: %w", err)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("whatif bench: %w", err)
		}
		nominals = append(nominals, nominalMS)
		serials = append(serials, serialMS)
		amps = append(amps, float64(len(scenarios))*nominalMS/serialMS)
	}
	nominalMS, serialMS, amplification := median(nominals), median(serials), median(amps)
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
