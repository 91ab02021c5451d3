// Package core orchestrates the complete XRing synthesis flow
// (Sec. III): Step 1 ring waveguide construction, Step 2 shortcut
// construction, Step 3 signal mapping and ring opening, Step 4 PDN
// design, followed by the insertion-loss and crosstalk analyses. It
// also provides the #wl sweep the paper's evaluation uses ("we vary the
// settings of #wl and pick the one with the minimum power and maximum
// SNR"). The sweep's candidates fan out over the shared worker pool
// and reduce in canonical order; parallel.SetWorkers(1) is the serial
// mode and returns the identical winner.
package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"xring/internal/resilience"

	"xring/internal/geom"
	"xring/internal/loss"
	"xring/internal/mapping"
	"xring/internal/noc"
	"xring/internal/obs"
	"xring/internal/parallel"
	"xring/internal/pdn"
	"xring/internal/phys"
	"xring/internal/ring"
	"xring/internal/router"
	"xring/internal/shortcut"
	"xring/internal/xtalk"
)

// Sweep telemetry: candidates evaluated (feasible + infeasible) and the
// chosen winner's #wl, for correlating a sweep's cost with its outcome.
var (
	mSweepCandidates  = obs.NewCounter("core.sweep.candidates")
	mSweepInfeasible  = obs.NewCounter("core.sweep.infeasible")
	mSweepWinnerWL    = obs.NewGauge("core.sweep.winner.wl")
	mSynthesizeCalls  = obs.NewCounter("core.synthesize.calls")
	mSynthesizeErrors = obs.NewCounter("core.synthesize.errors")
	// Degraded-mode fallbacks: Step-1 requests that fell back to the
	// heuristic ring constructor, split by trigger.
	mFallbackBudget   = obs.NewCounter("core.fallback.budget")
	mFallbackDeadline = obs.NewCounter("core.fallback.deadline")
)

// Options configures a synthesis run.
type Options struct {
	// Par supplies the technology parameters; the zero value selects
	// phys.Default().
	Par *phys.Params
	// MaxWL is the per-ring wavelength budget #wl. Zero selects N.
	MaxWL int
	// WithPDN synthesizes the Step-4 tree PDN and enables the power and
	// crosstalk analyses to include it (Tables II/III configuration).
	// Without it the router matches Table I ("we do not perform PDN
	// design for XRing" there).
	WithPDN bool

	// Traffic restricts the signals the router must support; nil means
	// all-to-all (the paper's evaluation pattern). Application-specific
	// communication graphs go here.
	Traffic []noc.Signal

	// ShareWavelengths maps signals with ORing-style wavelength reuse
	// (Sec. III-C inherits the method of [17]): fewer ring waveguides at
	// the price of drop-leakage noise along reuse chains. The default
	// policy gives every signal a fresh (waveguide, wavelength) slot.
	// Sweep explores both.
	ShareWavelengths bool

	// Ablation switches.
	DisableShortcuts bool // skip Step 2 entirely
	NoCSE            bool // Step 2 without CSE merging of crossing shortcuts
	NoOpenings       bool // Step 3 without ring openings (implies no tree PDN)
	DisableConflicts bool // Step 1 without the Eq. (3) conflict constraints

	// RingMaxNodes caps the Step-1 branch and bound (0 = default).
	RingMaxNodes int

	// NoFallback disables degraded-mode synthesis: when the Step-1
	// exact solver exhausts its budget (milp.ErrBudget) or the deadline
	// is nearly spent, the flow normally falls back to the heuristic
	// ring constructor and marks the result Degraded. With NoFallback
	// the original error is returned instead — for callers that would
	// rather fail than serve a non-optimal ring.
	NoFallback bool

	// FaultTolerance requests a k-fault-tolerant design: Step 3
	// additionally maps a cold-standby spare route per signal onto
	// dedicated protection waveguides (see mapping.Options.FaultTolerance),
	// so the full signal set survives any single MRR failure or
	// ring-segment cut. Supported values: 0 (off, the nominal flow —
	// byte-identical results to builds without this field) and 1.
	FaultTolerance int
}

// Result is a fully synthesized and analyzed XRing router.
type Result struct {
	Design   *router.Design
	Ring     *ring.Result
	MapStats *mapping.Stats
	Plan     *pdn.Plan // nil without PDN
	Loss     *loss.Report
	Xtalk    *xtalk.Report
	// Opt records the options the design was synthesized with (sweeps
	// vary MaxWL and ShareWavelengths).
	Opt Options
	// SynthTime covers synthesis only (Steps 1-4), excluding analyses,
	// matching the paper's T column.
	SynthTime time.Duration
	// Degraded marks a result produced through a fallback path (the
	// heuristic ring constructor stood in for the exact solver);
	// DegradedReason says why. The design is still fully routed and
	// validated — only Step-1 optimality is forfeited.
	Degraded       bool
	DegradedReason string
}

// Synthesize runs the full flow on a network with the default engine.
// Step 1 results are served from the floorplan-keyed ring cache when
// the same geometry was synthesized before.
func Synthesize(net *noc.Network, opt Options) (*Result, error) {
	return SynthesizeCtx(context.Background(), net, opt)
}

// SynthesizeCtx is Engine.SynthesizeCtx on the default engine.
func SynthesizeCtx(ctx context.Context, net *noc.Network, opt Options) (*Result, error) {
	return defaultEngine.SynthesizeCtx(ctx, net, opt)
}

// SynthesizeCtx runs the full flow on a network under a context: trace
// spans nest beneath the caller's span, and cancellation is honoured
// between the pipeline stages and inside the analysis fan-outs. Step 1
// goes through the engine's ring cache.
func (e *Engine) SynthesizeCtx(ctx context.Context, net *noc.Network, opt Options) (*Result, error) {
	ctx, span := obs.Start(ctx, "core.synthesize",
		obs.Int("nodes", net.N()), obs.Int("max_wl", opt.MaxWL),
		obs.Bool("share", opt.ShareWavelengths), obs.Bool("pdn", opt.WithPDN))
	defer span.End()
	t0 := time.Now()
	rres, degradedReason, err := e.constructRingResilient(ctx, net, ring.Options{
		MaxNodes:         opt.RingMaxNodes,
		DisableConflicts: opt.DisableConflicts,
	}, opt.NoFallback)
	ringTime := time.Since(t0)
	if err != nil {
		return nil, err
	}
	res, err := SynthesizeOnRingCtx(ctx, net, rres, opt)
	if err != nil {
		return nil, err
	}
	res.SynthTime += ringTime
	res.Degraded = degradedReason != ""
	res.DegradedReason = degradedReason
	return res, nil
}

func init() {
	resilience.RegisterFaultPoint("core.ring",
		"core.stage.entry", "core.stage.mapping", "core.stage.pdn",
		"core.stage.loss", "core.stage.xtalk")
}

// stageGate is the per-stage boundary check: cancellation first (so
// deadlines keep their stage-boundary promptness), then the named
// "core.stage.<stage>" fault point, which lets tests force failures,
// panics, or latency at any boundary of the pipeline.
func stageGate(ctx context.Context, stage string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return resilience.Fire(ctx, "core.stage."+stage)
}

// SynthesizeOnRingCtx runs Steps 2-4 and the analyses on a precomputed
// Step-1 result, so #wl sweeps share the ring construction. ctx
// cancels between stages and before each analysis and carries the
// nested trace spans.
func SynthesizeOnRingCtx(ctx context.Context, net *noc.Network, rres *ring.Result, opt Options) (*Result, error) {
	return synthesizeOnRing(ctx, net, rres, opt, nil)
}

// shortcutSkeleton is a precomputed Step-2 result: the selected
// shortcuts before any channel is mapped onto them. Step 2 depends only
// on the geometry, the traffic and the shortcut ablation switches —
// never on the #wl budget or the sharing policy a sweep varies — so a
// sweep constructs it once and hands every candidate a private clone.
type shortcutSkeleton struct {
	shortcuts []*router.Shortcut
}

// clone returns candidate-private shortcut structs: mapping appends
// channels and must not see a sibling candidate's assignment.
func (s *shortcutSkeleton) clone() []*router.Shortcut {
	if s.shortcuts == nil {
		return nil
	}
	out := make([]*router.Shortcut, len(s.shortcuts))
	for i, sc := range s.shortcuts {
		cp := *sc
		cp.PathAB = append([]geom.Point(nil), sc.PathAB...)
		cp.Channels = nil
		out[i] = &cp
	}
	return out
}

// synthesizeOnRing runs Steps 2-4 and the analyses. With a non-nil
// skeleton, Step 2 is skipped and the skeleton's shortcut clones are
// installed instead (the sweep's shared-prefix path).
func synthesizeOnRing(ctx context.Context, net *noc.Network, rres *ring.Result, opt Options, skel *shortcutSkeleton) (*Result, error) {
	mSynthesizeCalls.Inc()
	if err := stageGate(ctx, "entry"); err != nil {
		return nil, err
	}
	par := phys.Default()
	if opt.Par != nil {
		par = *opt.Par
	}
	maxWL := opt.MaxWL
	if maxWL == 0 {
		maxWL = net.N()
	}
	start := time.Now()

	d, err := router.NewDesign(net, par, rres.Tour, rres.Orders)
	if err != nil {
		mSynthesizeErrors.Inc()
		return nil, err
	}
	if skel != nil {
		d.Shortcuts = skel.clone()
	} else {
		_, scSpan := obs.Start(ctx, "shortcut.construct")
		err = shortcut.Construct(d, shortcut.Options{
			Disable: opt.DisableShortcuts,
			NoCSE:   opt.NoCSE,
			Traffic: opt.Traffic,
		})
		scSpan.Set(obs.Int("shortcuts", len(d.Shortcuts)))
		scSpan.End()
		if err != nil {
			mSynthesizeErrors.Inc()
			return nil, err
		}
	}
	if err := stageGate(ctx, "mapping"); err != nil {
		return nil, err
	}
	noOpenings := opt.NoOpenings || !opt.WithPDN
	_, mapSpan := obs.Start(ctx, "mapping.run", obs.Int("max_wl", maxWL))
	stats, err := mapping.Run(d, mapping.Options{
		MaxWL:          maxWL,
		NoOpenings:     noOpenings,
		AlignOpenings:  true,
		PreferSharing:  opt.ShareWavelengths,
		MaxWaveguides:  mapping.WaveguideCap(net, par),
		Traffic:        opt.Traffic,
		FaultTolerance: opt.FaultTolerance,
	})
	if stats != nil {
		mapSpan.Set(obs.Int("waveguides", len(d.Waveguides)),
			obs.Int("ring_signals", stats.RingSignals),
			obs.Int("shortcut_signals", stats.ShortcutSignals))
	}
	mapSpan.End()
	if err != nil {
		mSynthesizeErrors.Inc()
		return nil, err
	}
	if err := stageGate(ctx, "pdn"); err != nil {
		return nil, err
	}
	// Step 4 always gets a span so a trace shows the decision even when
	// PDN design is skipped (Table-I configurations).
	var plan *pdn.Plan
	_, pdnSpan := obs.Start(ctx, "pdn.design")
	if opt.WithPDN {
		if opt.NoOpenings {
			// Ablation: XRing mapping but a comb PDN (no openings to
			// thread a tree through).
			plan, err = pdn.BuildComb(d)
		} else {
			plan, err = pdn.BuildTree(d)
		}
	}
	if plan != nil {
		pdnSpan.Set(obs.String("kind", plan.Kind.String()),
			obs.Int("crossings", plan.CrossingsAdded))
	} else {
		pdnSpan.Set(obs.String("kind", "none"))
	}
	pdnSpan.End()
	if err != nil {
		mSynthesizeErrors.Inc()
		return nil, err
	}
	synthTime := time.Since(start)

	if err := d.Validate(); err != nil {
		mSynthesizeErrors.Inc()
		return nil, fmt.Errorf("core: synthesized design invalid: %w", err)
	}
	// Poll before each analysis as well: loss and crosstalk dominate the
	// per-candidate cost at larger N, so a deadline that fires during
	// Step 4 must not pay for them.
	if err := stageGate(ctx, "loss"); err != nil {
		return nil, err
	}
	lrep, err := loss.AnalyzeCtx(ctx, d, plan)
	if err != nil {
		mSynthesizeErrors.Inc()
		return nil, err
	}
	if err := stageGate(ctx, "xtalk"); err != nil {
		return nil, err
	}
	xrep, err := xtalk.AnalyzeCtx(ctx, d, plan, lrep)
	if err != nil {
		mSynthesizeErrors.Inc()
		return nil, err
	}
	return &Result{
		Design:    d,
		Ring:      rres,
		MapStats:  stats,
		Plan:      plan,
		Loss:      lrep,
		Xtalk:     xrep,
		Opt:       opt,
		SynthTime: synthTime,
	}, nil
}

// buildShortcutSkeleton runs Step 2 once for a sweep: a throwaway
// design carries the construction, and its shortcuts become the shared
// skeleton every candidate clones.
func buildShortcutSkeleton(ctx context.Context, net *noc.Network, rres *ring.Result, opt Options) (*shortcutSkeleton, error) {
	par := phys.Default()
	if opt.Par != nil {
		par = *opt.Par
	}
	d, err := router.NewDesign(net, par, rres.Tour, rres.Orders)
	if err != nil {
		return nil, err
	}
	_, scSpan := obs.Start(ctx, "shortcut.construct")
	err = shortcut.Construct(d, shortcut.Options{
		Disable: opt.DisableShortcuts,
		NoCSE:   opt.NoCSE,
		Traffic: opt.Traffic,
	})
	scSpan.Set(obs.Int("shortcuts", len(d.Shortcuts)))
	scSpan.End()
	if err != nil {
		return nil, err
	}
	return &shortcutSkeleton{shortcuts: d.Shortcuts}, nil
}

// Objective selects what a #wl sweep optimizes.
type Objective int

// Sweep objectives, matching the paper's selection rules.
const (
	// MinWorstIL picks the setting with the minimum worst-case
	// insertion loss (Table I).
	MinWorstIL Objective = iota
	// MinPower picks the setting with the minimum total laser power
	// (Tables II/III "setting for min. power").
	MinPower
	// MaxSNR picks the setting with the maximum worst-case SNR, breaking
	// ties toward lower power (Tables II/III "setting for max. SNR").
	MaxSNR
)

func (o Objective) String() string {
	switch o {
	case MinWorstIL:
		return "min-il"
	case MinPower:
		return "min-power"
	default:
		return "max-snr"
	}
}

// Score returns the value the objective minimizes for a result.
func (o Objective) Score(r *Result) float64 {
	switch o {
	case MinWorstIL:
		return r.Loss.WorstIL
	case MinPower:
		return r.Loss.TotalPowerMW
	default:
		// Maximize worst SNR: minimize its negation. Noise-free designs
		// (SNR = +Inf) score best; ties resolved by power below.
		return -r.Xtalk.WorstSNR
	}
}

// sweepCandidate is one point of the sweep's design space.
type sweepCandidate struct {
	WL    int
	Share bool
}

// sweepCandidates expands a #wl candidate list (nil = 1..N) into the
// canonical candidate order: ascending #wl, deduplicated, the fresh
// wavelength policy before the sharing policy. The reduction walks
// this order, so the winner does not depend on how the caller ordered
// the input or on which worker finished first.
func sweepCandidates(net *noc.Network, candidates []int) []sweepCandidate {
	if candidates == nil {
		for wl := 1; wl <= net.N(); wl++ {
			candidates = append(candidates, wl)
		}
	}
	sorted := append([]int(nil), candidates...)
	sort.Ints(sorted)
	out := make([]sweepCandidate, 0, 2*len(sorted))
	for i, wl := range sorted {
		if i > 0 && wl == sorted[i-1] {
			continue
		}
		out = append(out, sweepCandidate{WL: wl, Share: false}, sweepCandidate{WL: wl, Share: true})
	}
	return out
}

// betterResult reports whether a beats b under the objective, applying
// the documented tie-breaks in order: better score, then lower laser
// power, then lower #wl, then the fresh-wavelength policy. The chain
// is total over distinct sweep candidates, which is what makes the
// winner independent of evaluation order.
func betterResult(objective Objective, a, b *Result) bool {
	better, _ := compareResults(objective, a, b)
	return better
}

// compareResults is betterResult plus the decisive criterion: which
// level of the tie-break chain ("score", "power", "#wl", "policy")
// separated the two results. Sweeps record it so a trace explains why
// the winner won.
func compareResults(objective Objective, a, b *Result) (better bool, decidedBy string) {
	if b == nil {
		return a != nil, "score"
	}
	if a == nil {
		return false, "score"
	}
	sa, sb := objective.Score(a), objective.Score(b)
	if sa < sb-1e-12 {
		return true, "score"
	}
	if sb < sa-1e-12 {
		return false, "score"
	}
	pa, pb := a.Loss.TotalPowerMW, b.Loss.TotalPowerMW
	if pa < pb-1e-15 {
		return true, "power"
	}
	if pb < pa-1e-15 {
		return false, "power"
	}
	if a.Opt.MaxWL != b.Opt.MaxWL {
		return a.Opt.MaxWL < b.Opt.MaxWL, "#wl"
	}
	return !a.Opt.ShareWavelengths && b.Opt.ShareWavelengths, "policy"
}

// Sweep synthesizes the network on the default engine once per (#wl,
// sharing-policy) candidate and returns the best result under the
// objective, with ties broken by lower laser power, then lower #wl,
// then the fresh wavelength policy. Candidates may be nil, selecting
// 1..N; the list is deduplicated and evaluated in canonical order, so
// shuffled or repeated candidate lists select the same winner.
//
// Candidates are dispatched to the shared worker pool and reduced in
// canonical order, so any pool width (parallel.SetWorkers(1) is the
// serial mode) returns the identical winner.
func Sweep(net *noc.Network, opt Options, objective Objective, candidates []int) (*Result, int, error) {
	return SweepCtx(context.Background(), net, opt, objective, candidates)
}

// SweepCtx is Engine.SweepCtx on the default engine.
func SweepCtx(ctx context.Context, net *noc.Network, opt Options, objective Objective, candidates []int) (*Result, int, error) {
	return defaultEngine.SweepCtx(ctx, net, opt, objective, candidates)
}

// SweepCtx is Sweep under a context on this engine. Cancellation stops
// the sweep between candidates (no new candidate starts once ctx is
// done; the context error is returned) and propagates into each
// candidate's analysis fan-outs.
func (e *Engine) SweepCtx(ctx context.Context, net *noc.Network, opt Options, objective Objective, candidates []int) (*Result, int, error) {
	cands := sweepCandidates(net, candidates)
	if len(cands) == 0 {
		return nil, 0, fmt.Errorf("core: empty #wl candidate list")
	}
	ctx, span := obs.Start(ctx, "core.sweep",
		obs.String("objective", objective.String()), obs.Int("candidates", len(cands)))
	defer span.End()
	rres, degradedReason, err := e.constructRingResilient(ctx, net, ring.Options{
		MaxNodes:         opt.RingMaxNodes,
		DisableConflicts: opt.DisableConflicts,
	}, opt.NoFallback)
	if err != nil {
		return nil, 0, err
	}
	// Shared Step-2 prefix: shortcut construction depends only on the
	// geometry and traffic, not on the (#wl, policy) point a candidate
	// sits at, so it runs once per sweep; every candidate maps onto a
	// private clone of the skeleton. A construction failure fails every
	// candidate identically, so it fails the sweep.
	skel, err := buildShortcutSkeleton(ctx, net, rres, opt)
	if err != nil {
		return nil, 0, err
	}
	synth := func(i int) *Result {
		o := opt
		o.MaxWL = cands[i].WL
		o.ShareWavelengths = cands[i].Share
		cctx, cspan := obs.Start(ctx, "sweep.candidate",
			obs.Int("wl", cands[i].WL), obs.Bool("share", cands[i].Share))
		r, err := synthesizeOnRing(cctx, net, rres, o, skel)
		mSweepCandidates.Inc()
		if err != nil {
			mSweepInfeasible.Inc()
			cspan.Set(obs.Bool("feasible", false))
			cspan.End()
			return nil // a setting may be infeasible; skip it
		}
		cspan.Set(obs.Bool("feasible", true),
			obs.Float("score", objective.Score(r)),
			obs.Float("power_mw", r.Loss.TotalPowerMW))
		cspan.End()
		return r
	}
	results := make([]*Result, len(cands))
	if err := parallel.ForEach(ctx, len(cands), func(i int) error {
		results[i] = synth(i)
		return nil
	}); err != nil {
		// A context error, an injected parallel.task fault, or a
		// contained candidate panic: synth itself never fails the
		// fan-out.
		return nil, 0, err
	}
	// Reduce in canonical candidate order, then explain the winner: the
	// decisive tie-break level is judged against the runner-up (the best
	// of the remaining candidates under the same total order).
	var best, runnerUp *Result
	for _, r := range results {
		if r == nil {
			continue
		}
		if betterResult(objective, r, best) {
			runnerUp = best
			best = r
		} else if betterResult(objective, r, runnerUp) {
			runnerUp = r
		}
	}
	if best == nil {
		return nil, 0, fmt.Errorf("core: no feasible #wl setting among %v", candidates)
	}
	// A degraded ring degrades every candidate equally; stamp the winner.
	best.Degraded = degradedReason != ""
	best.DegradedReason = degradedReason
	_, decidedBy := compareResults(objective, best, runnerUp)
	if runnerUp == nil {
		decidedBy = "only-feasible"
	}
	mSweepWinnerWL.Set(int64(best.Opt.MaxWL))
	span.Set(obs.Int("winner_wl", best.Opt.MaxWL),
		obs.Bool("winner_share", best.Opt.ShareWavelengths),
		obs.String("decided_by", decidedBy))
	if log := obs.Logger("core"); log.Enabled(ctx, obs.LevelInfo) {
		attrs := []any{
			"objective", objective.String(),
			"winner_wl", best.Opt.MaxWL,
			"winner_policy", policyName(best.Opt.ShareWavelengths),
			"score", objective.Score(best),
			"power_mw", best.Loss.TotalPowerMW,
			"decided_by", decidedBy,
		}
		if runnerUp != nil {
			attrs = append(attrs,
				"runner_up_wl", runnerUp.Opt.MaxWL,
				"runner_up_policy", policyName(runnerUp.Opt.ShareWavelengths),
				"runner_up_score", objective.Score(runnerUp))
		}
		log.Info("sweep winner", attrs...)
	}
	return best, best.Opt.MaxWL, nil
}

func policyName(share bool) string {
	if share {
		return "share"
	}
	return "fresh"
}
