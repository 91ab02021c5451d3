package main

// The three library workloads: closed loop, one caller, in this
// process. Each op's output is checked outside its timed region.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"xring/internal/core"
	"xring/internal/delta"
	"xring/internal/designio"
	"xring/internal/faults"
	"xring/internal/geom"
	"xring/internal/noc"
	"xring/internal/ring"
	"xring/internal/verify"
)

const (
	// libSetupReps is how many times a library run sets up; setup_s is
	// the median.
	libSetupReps = 7
	// minLibOps keeps at least ten samples above a library workload's
	// p90 tail.
	minLibOps = 100
	// maxPhase caps a measurement phase whatever its op count.
	maxPhase = 60 * time.Second
)

// libOut is the checked output of one op.
type libOut struct {
	digest         opDigest
	power, il, snr float64 // snr +Inf when noise-free
	degraded       bool
	// counts are per-op layer counts summed into the per-layer metrics.
	counts map[string]float64
}

// libCase is a library workload after set-up.
type libCase struct {
	slo        time.Duration // latency limit of slo_frac
	qualityOps int           // ops whose outputs feed the quality metrics and the digest check
	// tracedAlt selects the path traced runs time: the stagewise
	// composition for the synthesis workloads, which has a span per
	// layer call.
	tracedAlt bool
	// run executes and times op i; alt selects the alternative path,
	// whose outputs must equal the main path's.
	run func(ctx context.Context, i int, tr *tracer, alt bool) (any, time.Duration, error)
	// post checks op i's output outside the timed region.
	post func(ctx context.Context, i int, v any, tr *tracer) (*libOut, error)
	// signoff checks the workload's fixed designs once per run.
	signoff func() error
}

// phase is one measurement phase of a library workload.
type phase struct {
	lat                         latencies
	attempted, failed, degraded int
	busy                        time.Duration
	// digests are the outputs of the ops below qualityOps that passed
	// their checks; digestOps holds their op indices.
	digests   []opDigest
	digestOps []int
	q         *quality
	counts    map[string]float64
	firstErr  error
}

func newPhase() *phase { return &phase{q: newQuality(), counts: map[string]float64{}} }

func (ph *phase) fail(err error) {
	ph.failed++
	if ph.firstErr == nil {
		ph.firstErr = err
	}
}

// step runs op i once on one path and records it in ph. An op that
// errors or fails its output check counts as failed; a failed check
// also makes the run incorrect.
func (c *libCase) step(ctx context.Context, i int, tr *tracer, alt bool, ph *phase, rep *report) time.Duration {
	ph.attempted++
	v, lat, err := c.run(ctx, i, tr, alt)
	if err != nil {
		ph.fail(fmt.Errorf("op %d: %w", i, err))
		return 0
	}
	out, err := c.post(ctx, i, v, tr)
	if err != nil {
		ph.fail(fmt.Errorf("op %d check: %w", i, err))
		rep.problem("op %d: %v", i, err)
		return 0
	}
	ph.lat.add(lat)
	ph.busy += lat
	if out.degraded {
		ph.degraded++
	}
	if i < c.qualityOps {
		ph.digests = append(ph.digests, out.digest)
		ph.digestOps = append(ph.digestOps, i)
		ph.q.add(out.power, out.il, out.snr)
	}
	for k, v := range out.counts {
		ph.counts[k] += v
	}
	return lat
}

// done reports whether a phase that has run i ops since start is over.
func done(ctx context.Context, i int, start time.Time, seconds float64, minOps int) bool {
	el := time.Since(start)
	return ctx.Err() != nil || (i >= minOps && el.Seconds() >= seconds) || el >= maxPhase
}

func (c *libCase) measure(ctx context.Context, seconds float64, minOps int, rep *report) *phase {
	ph := newPhase()
	start := time.Now()
	for i := 0; !done(ctx, i, start, seconds, minOps); i++ {
		c.step(ctx, i, nil, false, ph, rep)
	}
	return ph
}

// tracedPhases are the three runs of every op of a traced run.
type tracedPhases struct {
	engine *phase // the main path, untraced: the program's own time
	traced *phase // the traced path, recording spans
	plain  *phase // the traced path with a nil tracer
	// engineMS sums the engine's op latencies; the residual compares the
	// traced ops' stage time with it.
	engineMS float64
	gostats  goDelta // Go runtime counters over the engine runs
}

// measureTraced runs each op three times back to back: on the main path
// untraced, on the traced path with spans, and on the traced path with a
// nil tracer (the last two alternate their order). Running the three
// next to each other keeps host speed drift out of the comparisons.
func (c *libCase) measureTraced(ctx context.Context, seconds float64, minOps int, tr *tracer, rep *report) *tracedPhases {
	tp := &tracedPhases{engine: newPhase(), traced: newPhase(), plain: newPhase()}
	start := time.Now()
	for i := 0; !done(ctx, i, start, seconds, minOps); i++ {
		g := readGoStats()
		lat := c.step(ctx, i, nil, false, tp.engine, rep)
		tp.gostats.add(g, readGoStats(), 1)
		tp.engineMS += ms(lat)
		if i%2 == 0 {
			c.step(ctx, i, tr, c.tracedAlt, tp.traced, rep)
			c.step(ctx, i, nil, c.tracedAlt, tp.plain, rep)
		} else {
			c.step(ctx, i, nil, c.tracedAlt, tp.plain, rep)
			c.step(ctx, i, tr, c.tracedAlt, tp.traced, rep)
		}
	}
	return tp
}

// reference recomputes a phase's digested ops through the other path
// and fails the run on any output that differs.
func (c *libCase) reference(ctx context.Context, ph *phase, alt bool, rep *report) {
	want := make([]opDigest, 0, len(ph.digests))
	for _, i := range ph.digestOps {
		v, _, err := c.run(ctx, i, nil, alt)
		if err != nil {
			rep.problem("reference op %d: %v", i, err)
			return
		}
		out, err := c.post(ctx, i, v, nil)
		if err != nil {
			rep.problem("reference op %d: %v", i, err)
			return
		}
		want = append(want, out.digest)
	}
	if err := compareDigests(ph.digestOps, ph.digests, want); err != nil {
		rep.problem("%v", err)
	}
}

// comparePhases fails the run when two phases checked different ops or
// produced different outputs for the same op.
func comparePhases(what string, a, b *phase, rep *report) {
	if !slices.Equal(a.digestOps, b.digestOps) {
		rep.problem("%s: ops %v checked against ops %v", what, a.digestOps, b.digestOps)
		return
	}
	if err := compareDigests(a.digestOps, a.digests, b.digests); err != nil {
		rep.problem("%s: %v", what, err)
	}
}

// prepareFunc draws a workload's inputs from the seed, once per run,
// and returns the workload's set-up, which runLibrary repeats.
type prepareFunc func(ctx context.Context, seed int64) (func(ctx context.Context) (*libCase, error), error)

// runLibrary sets a library workload up several times, measures it and
// checks its outputs.
func runLibrary(ctx context.Context, cfg config, prepare prepareFunc) (*report, error) {
	rep := &report{metrics: map[string]float64{}, info: map[string]any{}}
	setup, err := prepare(ctx, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	var c *libCase
	var setups []float64
	for k := 0; k < libSetupReps; k++ {
		// The first set-up counts from process start, input generation
		// included; the median reports the repeated set-ups.
		t0 := time.Now()
		if k == 0 {
			t0 = processStart
		}
		if c, err = setup(ctx); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.metrics["setup_s"] = median(setups)

	var main *phase
	if !cfg.trace {
		rss := startRSS()
		main = c.measure(ctx, cfg.seconds, minLibOps, rep)
		if rep.metrics["peak_rss_mb"], err = rss.finish(); err != nil {
			return nil, err
		}
		c.reference(ctx, main, true, rep)
		main.lat.summarize(0.9, rep.metrics, rep.info)
		rep.metrics["ops_per_s"] = float64(len(main.lat.ms)) / main.busy.Seconds()
		rep.metrics["slo_frac"] = sloFrac(main.lat.ms, main.attempted, c.slo)
		main.q.set(rep.metrics)
	} else {
		tr := newTracer()
		tp := c.measureTraced(ctx, cfg.seconds, c.qualityOps, tr, rep)
		main = tp.traced
		comparePhases("traced vs engine", tp.traced, tp.engine, rep)
		comparePhases("untraced vs engine", tp.plain, tp.engine, rep)
		main.lat.summarize(0.9, rep.metrics, rep.info)
		if p := median(append([]float64(nil), tp.plain.lat.ms...)); p > 0 {
			rep.metrics["trace.overhead_frac"] = rep.metrics["p50_ms"]/p - 1
		}
		s := tr.summarize()
		libLayerMetrics(s, main, rep.metrics)
		tp.gostats.set(rep.metrics)
		if tp.engineMS > 0 {
			rep.metrics["residual_frac"] = 1 - s.stagedMS()/tp.engineMS
		}
		for _, ph := range []*phase{tp.engine, tp.plain} {
			if ph.firstErr != nil {
				rep.failure(ph.firstErr.Error())
			}
		}
		main.attempted += tp.engine.attempted + tp.plain.attempted
		main.failed += tp.engine.failed + tp.plain.failed
		main.degraded += tp.engine.degraded + tp.plain.degraded
		path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		rep.info["spans"] = path
	}
	if c.signoff != nil {
		if err := c.signoff(); err != nil {
			rep.problem("signoff: %v", err)
		}
	}
	rep.attempted, rep.failed = main.attempted, main.failed
	if main.firstErr != nil {
		rep.failure(main.firstErr.Error())
	}
	rep.info["digest"] = orderedDigest(main.digests)
	rep.info["digest_ops"] = len(main.digests)
	rep.metrics["fail_frac"] = float64(main.failed) / float64(max(main.attempted, 1))
	rep.metrics["degraded_frac"] = float64(main.degraded) / float64(max(main.attempted-main.failed, 1))
	return rep, nil
}

// libLayerMetrics turns the traced phase's spans and counts into the
// per-layer metrics.
func libLayerMetrics(s *traceSummary, ph *phase, m map[string]float64) {
	for _, name := range []string{"ring", "shortcut", "mapping", "pdn", "validate", "loss", "xtalk"} {
		m[name+".ms"] = s.meanSelfMS(name)
	}
	m["designio.save_ms"] = s.meanSelfMS("designio.save")
	ok := float64(max(ph.attempted-ph.failed, 1))
	if n := float64(s.calls("ring")); n > 0 {
		m["ring.bb_nodes"] = ph.counts["ring.bb_nodes"] / n
		m["ring.optimal_frac"] = ph.counts["ring.optimal"] / n
	}
	if n := float64(s.calls("mapping")); n > 0 {
		m["mapping.waveguides"] = ph.counts["mapping.waveguides"] / n
	}
	if n := float64(s.calls("designio.save")); n > 0 {
		m["designio.bytes"] = ph.counts["designio.bytes"] / n
	}
	m["sweep.candidates"] = ph.counts["sweep.candidates"] / ok
	m["sweep.infeasible"] = ph.counts["sweep.infeasible"] / ok
	if s.rootUS > 0 && s.calls("sweep.candidate") > 0 {
		m["sweep.par_eff"] = s.totalMS("sweep.candidate") * 1000 / (s.rootUS * float64(runtime.GOMAXPROCS(0)))
	}
	if n := ph.counts["faults.scenarios"]; n > 0 {
		m["faults.scenario_us"] = s.totalMS("faults.analyze") * 1000 / n
	}
	m["delta.move_us"] = s.meanSelfMS("delta.eval") * 1000
	m["delta.commit_us"] = s.meanSelfMS("delta.commit") * 1000
}

// checkDesign is the signoff every library design must pass: every
// verify check except radial-geometry, whose +8d offset model is known
// to disagree with the true offset perimeter on some irregular tours.
func checkDesign(res *core.Result) error {
	vr, err := verify.Run(res.Design, res.Plan, res.Loss, verify.Options{})
	if err != nil {
		return err
	}
	for _, c := range vr.Checks {
		if !c.Passed && c.Name != "radial-geometry" {
			return fmt.Errorf("verify %s: %s", c.Name, c.Detail)
		}
	}
	return nil
}

// designOut checks a synthesized design and digests it: the Save bytes
// plus the headline numbers.
func designOut(res *core.Result, tr *tracer, op int, extra ...float64) (*libOut, error) {
	if err := checkDesign(res); err != nil {
		return nil, err
	}
	root := tr.root(op, "check")
	s := tr.begin(root, "designio.save")
	b, err := designio.Save(res.Design)
	tr.end(s)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	snr := res.Xtalk.WorstSNR
	out := &libOut{
		power: res.Loss.TotalPowerMW, il: res.Loss.WorstIL, snr: snr,
		degraded: res.Degraded,
		counts: map[string]float64{
			"designio.bytes":     float64(len(b)),
			"mapping.waveguides": float64(len(res.Design.Waveguides)),
		},
	}
	nums := append([]float64{res.Loss.TotalPowerMW, res.Loss.WorstIL, snr}, extra...)
	out.digest = digestOf(b, floatBytes(nums...))
	return out, nil
}

// ---------------------------------------------------------------------
// synth-cold
// ---------------------------------------------------------------------

// synthColdSizes cycles the floorplan size of successive ops: the median
// falls among the 21-node ops and the p90 among the 24-node ones; no
// size has a heavy enough tail of Step-1 solve times for one floorplan
// to dominate a run.
var synthColdSizes = []int{18, 21, 24}

// synthColdPool is the number of floorplans synth-cold cycles through,
// a third of each size. The pool is the same for every seed, so the op
// population, and with it the run's latency distribution and quality,
// does not hinge on which floorplans a seed draws; the seed sets where
// in the pool a run starts. The engine's caches are emptied whenever an
// op starts a new pass over the pool, so every op misses the ring cache.
const synthColdPool = 48

func runSynthCold(ctx context.Context, cfg config) (*report, error) {
	return runLibrary(ctx, cfg, prepareSynthCold)
}

func prepareSynthCold(ctx context.Context, seed int64) (func(ctx context.Context) (*libCase, error), error) {
	// The pool is screened once, here: about one seeded floorplan in a
	// hundred has no feasible ring and is replaced (feasibleIrregular).
	pool := make([]*noc.Network, synthColdPool)
	for k := range pool {
		var err error
		if pool[k], err = feasibleIrregular(ctx, synthColdSizes[k%len(synthColdSizes)], 0, "synth-cold", k); err != nil {
			return nil, err
		}
	}
	start := int(subSeed(seed, "synth-cold-start", 0) % synthColdPool)
	// Warm-up floorplans, one of each op size, lie outside the pool.
	var warmup []*noc.Network
	for _, n := range synthColdSizes {
		net, err := feasibleIrregular(ctx, n, 0, "synth-cold-warmup", 0)
		if err != nil {
			return nil, err
		}
		warmup = append(warmup, net)
	}
	return func(ctx context.Context) (*libCase, error) {
		core.ResetRingCache()
		core.ResetHintCache()
		for _, net := range warmup {
			if _, err := core.SynthesizeCtx(ctx, net, core.Options{MaxWL: net.N() / 2, WithPDN: true}); err != nil {
				return nil, err
			}
		}
		return &libCase{
			slo:        250 * time.Millisecond,
			qualityOps: synthColdPool,
			tracedAlt:  true,
			run: func(ctx context.Context, i int, tr *tracer, alt bool) (any, time.Duration, error) {
				if i%synthColdPool == 0 {
					core.ResetRingCache()
					core.ResetHintCache()
				}
				net := pool[(start+i)%synthColdPool]
				opt := core.Options{MaxWL: net.N() / 2, WithPDN: true}
				root := tr.root(i, "op")
				t0 := time.Now()
				var res *core.Result
				var err error
				if alt {
					res, err = synthStagewise(ctx, tr, root, net, opt)
				} else {
					res, err = core.SynthesizeCtx(ctx, net, opt)
				}
				lat := time.Since(t0)
				tr.end(root)
				return res, lat, err
			},
			post: func(ctx context.Context, i int, v any, tr *tracer) (*libOut, error) {
				res := v.(*core.Result)
				out, err := designOut(res, tr, i)
				if err != nil {
					return nil, err
				}
				out.counts["ring.bb_nodes"] = float64(res.Ring.Nodes)
				if res.Ring.Optimal {
					out.counts["ring.optimal"] = 1
				}
				return out, nil
			},
		}, nil
	}, nil
}

// ---------------------------------------------------------------------
// sweep-warm
// ---------------------------------------------------------------------

const (
	sweepFloorplans = 8
	sweepNodes      = 17
)

var sweepObjectives = []core.Objective{core.MinPower, core.MaxSNR, core.MinWorstIL}

func runSweepWarm(ctx context.Context, cfg config) (*report, error) {
	return runLibrary(ctx, cfg, prepareSweepWarm)
}

// The floorplan set is the same for every seed, so an op's cost and the
// designs' quality do not hinge on which eight floorplans a seed draws;
// the seed sets where in the cycle of (floorplan, objective) pairs a
// run starts.
func prepareSweepWarm(ctx context.Context, seed int64) (func(ctx context.Context) (*libCase, error), error) {
	nets := make([]*noc.Network, sweepFloorplans)
	for f := range nets {
		var err error
		if nets[f], err = feasibleIrregular(ctx, sweepNodes, 0, "sweep-warm", f); err != nil {
			return nil, err
		}
	}
	opt := core.Options{WithPDN: true}
	// Ops cycle through every (floorplan, objective) pair; 8 and 3 are
	// coprime, so any 24 consecutive ops cover all 24 pairs.
	pairs := len(nets) * len(sweepObjectives)
	start := int(subSeed(seed, "sweep-warm-start", 0) % int64(pairs))
	input := func(i int) (*noc.Network, core.Objective) {
		k := start + i
		return nets[k%len(nets)], sweepObjectives[k%len(sweepObjectives)]
	}
	type sweepOut struct {
		res    *core.Result
		counts sweepCounts
	}
	return func(ctx context.Context) (*libCase, error) {
		core.ResetRingCache()
		core.ResetHintCache()
		// Step 1 for the fixed set happens here, so every timed sweep
		// finds its ring in the engine's cache.
		for _, net := range nets {
			if _, err := core.ConstructRingShared(ctx, net, ring.Options{}); err != nil {
				return nil, err
			}
		}
		if _, _, err := core.SweepCtx(ctx, nets[0], opt, core.MinPower, nil); err != nil {
			return nil, err
		}
		return &libCase{
			slo:        400 * time.Millisecond,
			qualityOps: 24,
			tracedAlt:  true,
			run: func(ctx context.Context, i int, tr *tracer, alt bool) (any, time.Duration, error) {
				net, obj := input(i)
				root := tr.root(i, "op")
				t0 := time.Now()
				var out sweepOut
				var err error
				if alt {
					out.res, out.counts, err = sweepStagewise(ctx, tr, root, net, opt, obj)
				} else {
					out.res, _, err = core.SweepCtx(ctx, net, opt, obj, nil)
				}
				lat := time.Since(t0)
				tr.end(root)
				return out, lat, err
			},
			post: func(ctx context.Context, i int, v any, tr *tracer) (*libOut, error) {
				so := v.(sweepOut)
				share := 0.0
				if so.res.Opt.ShareWavelengths {
					share = 1
				}
				out, err := designOut(so.res, tr, i, float64(so.res.Opt.MaxWL), share)
				if err != nil {
					return nil, err
				}
				out.counts["ring.bb_nodes"] = float64(so.res.Ring.Nodes)
				if so.res.Ring.Optimal {
					out.counts["ring.optimal"] = 1
				}
				out.counts["sweep.candidates"] = float64(so.counts.candidates)
				out.counts["sweep.infeasible"] = float64(so.counts.infeasible)
				out.counts["mapping.waveguides"] = float64(so.counts.waveguides)
				return out, nil
			},
		}, nil
	}, nil
}

// ---------------------------------------------------------------------
// replay
// ---------------------------------------------------------------------

const (
	replayBatches  = 8  // distinct batches of each kind; ops cycle through them
	faultsPerBatch = 32 // scenarios per batch and per k (k=1 and k=2)
	movesPerBatch  = 64
)

// Ops cycle faults, faults, delta: whichever kind is faster, the median
// falls inside the faults batches' distribution rather than in a gap
// between the two kinds, and the p90 among the slower kind.
const replayCycle = 3

func isDeltaOp(i int) bool { return i%replayCycle == replayCycle-1 }

// commitAt are the proposals of a delta batch that are committed; the
// batch commits them back at its end, so every batch starts from the
// same placement.
var commitAt = map[int]bool{20: true, 44: true}

type move struct {
	node int
	to   geom.Point
}

func runReplay(ctx context.Context, cfg config) (*report, error) {
	return runLibrary(ctx, cfg, prepareReplay)
}

// drawMoves draws one batch of spacing-valid single-node moves, checking
// each against the placement as the batch's commits leave it.
func drawMoves(net *noc.Network, seed int64, batch int) []move {
	rng := rngFor(seed, "replay-moves", batch)
	pos := net.Positions()
	var out []move
	for len(out) < movesPerBatch {
		node := rng.Intn(len(pos))
		p := pos[node]
		p.X += (rng.Float64()*2 - 1) * 1.5
		p.Y += (rng.Float64()*2 - 1) * 1.5
		ok := p.X > 0.5 && p.Y > 0.5 && p.X < net.DieW-0.5 && p.Y < net.DieH-0.5
		for j, q := range pos {
			if j != node && geom.Manhattan(p, q) < 1 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if commitAt[len(out)] {
			pos[node] = p
		}
		out = append(out, move{node, p})
	}
	return out
}

// The replay designs are fixed, so an op's cost does not hinge on which
// two floorplans a seed draws; the seed draws the fault scenarios and
// the placement moves. The fault-tolerant design sits on the paper's
// 16-node grid, the delta evaluator on a 16-node irregular floorplan.
func prepareReplay(ctx context.Context, seed int64) (func(ctx context.Context) (*libCase, error), error) {
	ftNet, baseNet := noc.Floorplan16(), irregular(16, 5)
	moves := make([][]move, replayBatches)
	for b := range moves {
		moves[b] = drawMoves(baseNet, seed, b)
	}
	return func(ctx context.Context) (*libCase, error) {
		core.ResetRingCache()
		core.ResetHintCache()
		ft, err := core.SynthesizeCtx(ctx, ftNet, core.Options{MaxWL: 8, WithPDN: true, FaultTolerance: 1})
		if err != nil {
			return nil, err
		}
		universe := faults.Universe(ft.Design, []faults.Kind{faults.KindMRR, faults.KindSegment, faults.KindDetune}, 0)
		scenarios := make([][]faults.Scenario, replayBatches)
		for b := range scenarios {
			for k := 1; k <= 2; k++ {
				s, err := faults.SampleK(universe, k, faultsPerBatch, subSeed(seed, "replay-faults", 2*b+k))
				if err != nil {
					return nil, err
				}
				scenarios[b] = append(scenarios[b], s...)
			}
		}
		base, err := core.SynthesizeCtx(ctx, baseNet, core.Options{MaxWL: 16, WithPDN: true})
		if err != nil {
			return nil, err
		}
		// Cross-checking happens after each batch, outside the timed
		// region.
		ev, err := delta.Attach(base, delta.Options{CrossCheckEvery: -1})
		if err != nil {
			return nil, err
		}
		c := replayCase(ft, base, ev, scenarios, moves)
		// Warm-up: one op of each kind (a delta batch leaves the
		// evaluator where it found it).
		for i := 0; i < replayCycle; i++ {
			if _, _, err := c.run(ctx, i, nil, false); err != nil {
				return nil, err
			}
		}
		return c, nil
	}, nil
}

func replayCase(ft, base *core.Result, ev *delta.Evaluator, scenarios [][]faults.Scenario, moves [][]move) *libCase {
	type faultsOut struct {
		rep       *faults.Report
		scenarios int
	}
	type deltaOut struct {
		ev   *delta.Evaluator
		nums []float64 // per call: worst IL, power, worst SNR, noisy signals
	}
	runFaults := func(ctx context.Context, i int, tr *tracer, alt bool) (any, time.Duration, error) {
		sc := scenarios[(i-i/replayCycle)%replayBatches]
		root := tr.root(i, "op")
		t0 := time.Now()
		s := tr.begin(root, "faults.analyze")
		// The timed path replays serially: on a 2-vCPU host the parallel
		// fan-out's speed swings with the second CPU's availability, and
		// sweep-warm already measures the worker pool. The reference is
		// the parallel fan-out.
		rep, err := faults.Analyze(ctx, ft.Design, ft.Plan, sc, faults.Options{Serial: !alt})
		tr.end(s)
		lat := time.Since(t0)
		tr.end(root)
		return faultsOut{rep, len(sc)}, lat, err
	}
	runDelta := func(ctx context.Context, i int, tr *tracer, alt bool) (any, time.Duration, error) {
		e := ev
		if alt {
			// The reference replays the batch on a fresh evaluator.
			var err error
			if e, err = delta.Attach(base, delta.Options{CrossCheckEvery: -1}); err != nil {
				return nil, 0, err
			}
		}
		batch := moves[(i/replayCycle)%replayBatches]
		out := deltaOut{ev: e, nums: make([]float64, 0, 4*(len(batch)+len(commitAt)))}
		record := func(r *delta.Reports) {
			out.nums = append(out.nums, r.Loss.WorstIL, r.Loss.TotalPowerMW, r.Xtalk.WorstSNR, float64(r.Xtalk.NumNoisy))
		}
		var undo []move
		root := tr.root(i, "op")
		t0 := time.Now()
		for j, m := range batch {
			name, call := "delta.eval", e.EvalMove
			if commitAt[j] {
				name, call = "delta.commit", e.Commit
				undo = append(undo, move{m.node, e.Network().Nodes[m.node].Pos})
			}
			s := tr.begin(root, name)
			r, err := call(m.node, m.to)
			tr.end(s)
			if err != nil {
				tr.end(root)
				return nil, 0, err
			}
			record(r)
		}
		for k := len(undo) - 1; k >= 0; k-- {
			s := tr.begin(root, "delta.commit")
			r, err := e.Commit(undo[k].node, undo[k].to)
			tr.end(s)
			if err != nil {
				tr.end(root)
				return nil, 0, err
			}
			record(r)
		}
		lat := time.Since(t0)
		tr.end(root)
		return out, lat, nil
	}
	return &libCase{
		slo:        200 * time.Millisecond,
		qualityOps: replayCycle * replayBatches,
		run: func(ctx context.Context, i int, tr *tracer, alt bool) (any, time.Duration, error) {
			if isDeltaOp(i) {
				return runDelta(ctx, i, tr, alt)
			}
			return runFaults(ctx, i, tr, alt)
		},
		post: func(ctx context.Context, i int, v any, tr *tracer) (*libOut, error) {
			switch o := v.(type) {
			case faultsOut:
				for _, oc := range o.rep.Outcomes {
					if len(oc.Scenario) == 1 && len(oc.Lost) > 0 {
						return nil, fmt.Errorf("faults: the k=1 fault-tolerant design lost %d signals to %v",
							len(oc.Lost), oc.Scenario)
					}
				}
				b, err := json.Marshal(o.rep)
				if err != nil {
					return nil, err
				}
				snr := o.rep.WorstSNR
				if snr == 0 { // the report's encoding of "no crosstalk terms"
					snr = math.Inf(1)
				}
				return &libOut{
					digest: digestOf(b),
					power:  o.rep.NominalPowerMW, il: o.rep.WorstIL, snr: snr,
					counts: map[string]float64{"faults.scenarios": float64(o.scenarios)},
				}, nil
			case deltaOut:
				if err := o.ev.CrossCheck(); err != nil {
					return nil, err
				}
				// Quality of a batch: its lowest-power proposal, the
				// one a placement search would keep.
				best := 0
				for k := 4; k < len(o.nums); k += 4 {
					if o.nums[k+1] < o.nums[best+1] {
						best = k
					}
				}
				return &libOut{
					digest: digestOf(floatBytes(o.nums...)),
					power:  o.nums[best+1], il: o.nums[best], snr: o.nums[best+2],
				}, nil
			}
			return nil, fmt.Errorf("unexpected op output %T", v)
		},
		signoff: func() error {
			if err := checkDesign(ft); err != nil {
				return fmt.Errorf("fault-tolerant design: %w", err)
			}
			if err := checkDesign(base); err != nil {
				return fmt.Errorf("delta base design: %w", err)
			}
			return nil
		},
	}
}
