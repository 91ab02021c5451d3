package main

// Fault-replay benchmark (-whatif): a k=1 fault-tolerant 16-node
// design is replayed under its exhaustive single-fault universe (MRR,
// segment and detune faults), serial and parallel. Two properties are
// pinned:
//
//   - Survivability: the k=1 synthesis must survive every single-MRR
//     scenario with zero lost signals — the same acceptance property
//     the faults package tests, re-checked here on the larger design.
//   - Replay throughput: the delta replay must beat re-running the full
//     nominal loss+crosstalk analysis per scenario. The amplification
//     ratio (scenarios x nominal analysis time / replay wall-clock) is
//     machine-independent and is what -check gates, mirroring the
//     explore bench.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"xring/internal/core"
	"xring/internal/faults"
	"xring/internal/loss"
	"xring/internal/noc"
	"xring/internal/xtalk"
)

// whatifReport is the BENCH_whatif.json schema.
type whatifReport struct {
	GoVersion string `json:"goVersion"`
	GoOS      string `json:"goos"`
	GoArch    string `json:"goarch"`
	Cores     int    `json:"cores"`

	Signals   int `json:"signals"`
	Universe  int `json:"universe"`
	Scenarios int `json:"scenarios"`

	FullSetSurvivesMRR bool `json:"fullSetSurvivesMRR"`
	MaxLost            int  `json:"maxLost"`
	Promotions         int  `json:"promotions"`

	NominalMS  float64 `json:"nominalMS"`
	SerialMS   float64 `json:"serialMS"`
	ParallelMS float64 `json:"parallelMS"`
	// ReplaysPerSec is parallel replay throughput (machine-dependent,
	// informational); Amplification is scenarios*nominalMS/parallelMS —
	// how much cheaper delta replay is than naive full re-analysis per
	// scenario (machine-independent, gated by -check).
	ReplaysPerSec float64 `json:"replaysPerSec"`
	Amplification float64 `json:"amplification"`

	Timestamp string `json:"timestampUTC,omitempty"`
}

// whatifTimingReps: best-of reps damp scheduler noise, like the other
// benches.
const whatifTimingReps = 3

func runWhatifBench(out string, checkPath string) error {
	res, err := core.Synthesize(noc.Floorplan16(), core.Options{
		MaxWL: 12, WithPDN: true, FaultTolerance: 1,
	})
	if err != nil {
		return fmt.Errorf("whatif bench: synthesize: %w", err)
	}
	d, plan := res.Design, res.Plan
	ctx := context.Background()

	// The full mixed universe is the timed workload.
	universe := faults.Universe(d, []faults.Kind{faults.KindMRR, faults.KindSegment, faults.KindDetune}, 0)
	scenarios, err := faults.EnumerateK(universe, 1)
	if err != nil {
		return fmt.Errorf("whatif bench: %w", err)
	}

	// Baseline: one full nominal loss+crosstalk analysis (what each
	// scenario would cost without delta replay).
	nominalMS := 0.0
	for rep := 0; rep < whatifTimingReps; rep++ {
		t0 := time.Now()
		lrep, err := loss.AnalyzeCtx(ctx, d, plan)
		if err != nil {
			return fmt.Errorf("whatif bench: nominal loss: %w", err)
		}
		if _, err := xtalk.AnalyzeCtx(ctx, d, plan, lrep); err != nil {
			return fmt.Errorf("whatif bench: nominal xtalk: %w", err)
		}
		ms := float64(time.Since(t0).Microseconds()) / 1000
		if rep == 0 || ms < nominalMS {
			nominalMS = ms
		}
	}

	timeReplay := func(serial bool) (*faults.Report, float64, error) {
		var best float64
		var rep *faults.Report
		for i := 0; i < whatifTimingReps; i++ {
			t0 := time.Now()
			r, err := faults.Analyze(ctx, d, plan, scenarios, faults.Options{Serial: serial})
			ms := float64(time.Since(t0).Microseconds()) / 1000
			if err != nil {
				return nil, 0, err
			}
			if i == 0 || ms < best {
				best = ms
			}
			rep = r
		}
		return rep, best, nil
	}
	_, serialMS, err := timeReplay(true)
	if err != nil {
		return fmt.Errorf("whatif bench: serial replay: %w", err)
	}
	full, parallelMS, err := timeReplay(false)
	if err != nil {
		return fmt.Errorf("whatif bench: parallel replay: %w", err)
	}

	// Survivability acceptance on the MRR-only universe.
	mrrScs, err := faults.EnumerateK(faults.Universe(d, []faults.Kind{faults.KindMRR}, 0), 1)
	if err != nil {
		return fmt.Errorf("whatif bench: %w", err)
	}
	mrr, err := faults.Analyze(ctx, d, plan, mrrScs, faults.Options{})
	if err != nil {
		return fmt.Errorf("whatif bench: MRR replay: %w", err)
	}
	promotions := 0
	for _, o := range mrr.Outcomes {
		promotions += len(o.Promoted)
	}

	rep := whatifReport{
		GoVersion: runtime.Version(),
		GoOS:      runtime.GOOS,
		GoArch:    runtime.GOARCH,
		Cores:     runtime.NumCPU(),

		Signals:   full.Signals,
		Universe:  len(universe),
		Scenarios: len(scenarios),

		FullSetSurvivesMRR: mrr.FullSetSurvives,
		MaxLost:            mrr.MaxLost,
		Promotions:         promotions,

		NominalMS:  nominalMS,
		SerialMS:   serialMS,
		ParallelMS: parallelMS,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	if parallelMS > 0 {
		rep.ReplaysPerSec = float64(len(scenarios)) / (parallelMS / 1000)
		rep.Amplification = float64(len(scenarios)) * nominalMS / parallelMS
	}
	fmt.Fprintf(os.Stderr,
		"whatif replay %d scenarios over %d signals: parallel %.1f ms (serial %.1f, nominal analysis %.2f) | %.0f replays/s | %.1fx vs naive | MRR survival %v (%d promotions)\n",
		rep.Scenarios, rep.Signals, rep.ParallelMS, rep.SerialMS, rep.NominalMS,
		rep.ReplaysPerSec, rep.Amplification, rep.FullSetSurvivesMRR, rep.Promotions)

	// Acceptance floors, independent of any committed report.
	if !mrr.FullSetSurvives || mrr.MaxLost != 0 {
		return fmt.Errorf("whatif bench: k=1 design lost %d signals under single-MRR replay", mrr.MaxLost)
	}
	if promotions == 0 {
		return fmt.Errorf("whatif bench: no fault ever promoted a spare")
	}
	if rep.Amplification <= 1.0 {
		return fmt.Errorf("whatif bench: delta replay (%.2fx) was not faster than naive per-scenario re-analysis", rep.Amplification)
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
		return checkWhatifReport(rep, checkPath)
	}
	return nil
}

// checkWhatifReport compares a fresh run against the committed
// BENCH_whatif.json: universe shape and survivability are deterministic
// (exact match); the replay amplification ratio is machine-independent
// (25% slack).
func checkWhatifReport(got whatifReport, path string) error {
	var want whatifReport
	return checkAgainst("whatif", path, &want, func() []string {
		var failures []string
		if got.Signals != want.Signals || got.Universe != want.Universe || got.Scenarios != want.Scenarios {
			failures = append(failures, fmt.Sprintf(
				"universe shape changed: %d signals/%d faults/%d scenarios -> %d/%d/%d (regenerate %s)",
				want.Signals, want.Universe, want.Scenarios,
				got.Signals, got.Universe, got.Scenarios, path))
		}
		if !got.FullSetSurvivesMRR || got.MaxLost != 0 {
			failures = append(failures, fmt.Sprintf(
				"single-MRR survivability lost: survives=%v maxLost=%d", got.FullSetSurvivesMRR, got.MaxLost))
		}
		if got.Promotions < want.Promotions {
			failures = append(failures, fmt.Sprintf(
				"spare promotions fell %d -> %d on a deterministic universe", want.Promotions, got.Promotions))
		}
		return append(failures, checkRatio("replay amplification", want.Amplification, got.Amplification)...)
	})
}
