// Package placement closes the loop the paper's reference [20]
// (PSION+) opens: when the floorplanner still has slack, the node
// positions themselves are a design variable. Optimize perturbs node
// positions inside their allowed region and re-runs the XRing flow,
// keeping moves that improve the chosen objective — combining logical
// topology and physical layout optimization on top of the Step 1-4
// synthesis.
//
// The optimizer is a deterministic round-based hill climber: every
// round draws a batch of per-node move proposals from the seeded
// generator, evaluates all of them against the incumbent placement —
// concurrently on the shared worker pool, serially under
// parallel.SetWorkers(1) — and applies the best improving move, with
// ties broken by proposal index. The proposal sequence depends only on
// Seed and the option values, never on worker count or completion
// order, so serial and parallel runs walk the identical trajectory. Each accepted move is
// recorded in a trace for inspection.
package placement

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"xring/internal/core"
	"xring/internal/delta"
	"xring/internal/geom"
	"xring/internal/loss"
	"xring/internal/noc"
	"xring/internal/obs"
	"xring/internal/parallel"
)

// Search telemetry: proposals drawn and evaluated, moves accepted, and
// proposals rejected by the spacing check before evaluation.
var (
	mProposals      = obs.NewCounter("placement.proposals")
	mAccepted       = obs.NewCounter("placement.accepted")
	mSpacingRejects = obs.NewCounter("placement.spacing_rejects")
)

// Objective selects what the optimizer minimizes.
type Objective int

const (
	// MinWorstIL minimizes the worst-case insertion loss.
	MinWorstIL Objective = iota
	// MinPower minimizes the total laser power.
	MinPower
)

func (o Objective) String() string {
	if o == MinWorstIL {
		return "min-il"
	}
	return "min-power"
}

// Options tunes the optimizer.
type Options struct {
	// Objective to minimize.
	Objective Objective
	// Synth configures the inner synthesis runs (MaxWL etc.).
	Synth core.Options
	// Iterations is the total number of move proposals (default 100).
	Iterations int
	// ProposalsPerRound is how many proposals each round draws and
	// evaluates against the same incumbent placement (default 8). The
	// trajectory depends on this value, but not on worker count.
	ProposalsPerRound int
	// StepMM is the maximum per-axis perturbation per move (default 1).
	StepMM float64
	// MinSpacingMM is the minimum pairwise node distance to respect
	// (default 1).
	MinSpacingMM float64
	// MarginMM keeps nodes away from the die edge (default 0.5).
	MarginMM float64
	// Seed drives the proposal sequence.
	Seed int64
	// Delta scores proposals with the incremental evaluation engine
	// (internal/delta) instead of a full re-synthesis per proposal: the
	// structure synthesized at the initial placement is held fixed while
	// the search moves nodes, and each move re-prices the loss and
	// crosstalk analyses on that structure from cached exact counts and
	// refreshed geometry (no Step 1–3 re-run). The returned Result is a
	// fresh full synthesis at the final placement. The search trajectory
	// can differ from full mode, which re-synthesizes (and may therefore
	// restructure) at every proposal.
	Delta bool
	// DeltaCrossCheckEvery sets the evaluator's full-recompute
	// cross-check cadence (0 = the delta package default, negative
	// disables). Only meaningful with Delta.
	DeltaCrossCheckEvery int
}

// Move records one accepted improvement.
type Move struct {
	Iteration int
	Node      int
	From, To  geom.Point
	Score     float64
}

// Trace is the optimization history.
type Trace struct {
	Initial float64
	Final   float64
	Moves   []Move
	// Evaluated counts scoring runs: the initial synthesis, every
	// proposal evaluation (full synthesis or delta evaluation), and in
	// delta mode the final synthesis.
	Evaluated int
	// ProposalsEvaluated counts proposal evaluations only — the hot
	// loop the benchmarks track.
	ProposalsEvaluated int
	// EvalTime is the wall time spent evaluating proposals.
	EvalTime time.Duration
}

// EvalRate returns the proposal-evaluation throughput in proposals per
// second (0 when nothing was evaluated).
func (t *Trace) EvalRate() float64 {
	if t.EvalTime <= 0 || t.ProposalsEvaluated == 0 {
		return 0
	}
	return float64(t.ProposalsEvaluated) / t.EvalTime.Seconds()
}

// proposal is one candidate move, drawn before a round is evaluated.
type proposal struct {
	node int
	to   geom.Point
}

// Optimize hill-climbs the node placement. It returns the improved
// network (a copy — the input is untouched), the synthesis result at
// the final placement, and the trace.
func Optimize(net *noc.Network, opt Options) (*noc.Network, *core.Result, *Trace, error) {
	return OptimizeCtx(context.Background(), net, opt)
}

// OptimizeCtx is Optimize under a context: trace spans nest beneath the
// caller's span, cancellation stops the search between rounds (the
// incumbent so far is abandoned and the context error returned), and
// the context propagates into every inner synthesis.
func OptimizeCtx(ctx context.Context, net *noc.Network, opt Options) (*noc.Network, *core.Result, *Trace, error) {
	if opt.Iterations == 0 {
		opt.Iterations = 100
	}
	if opt.ProposalsPerRound == 0 {
		opt.ProposalsPerRound = 8
	}
	if opt.StepMM == 0 {
		opt.StepMM = 1
	}
	if opt.MinSpacingMM == 0 {
		opt.MinSpacingMM = 1
	}
	if opt.MarginMM == 0 {
		opt.MarginMM = 0.5
	}
	cur := cloneNetwork(net)
	rng := rand.New(rand.NewSource(opt.Seed))

	ctx, span := obs.Start(ctx, "placement.optimize",
		obs.Int("nodes", net.N()), obs.Int("iterations", opt.Iterations),
		obs.String("objective", opt.Objective.String()))
	defer span.End()

	t0 := time.Now()
	best, err := core.SynthesizeCtx(ctx, cur, opt.Synth)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("placement: initial synthesis: %w", err)
	}
	synthDur := time.Since(t0)
	score := objective(best, opt.Objective)
	trace := &Trace{Initial: score, Evaluated: 1}

	var ev *delta.Evaluator
	if opt.Delta {
		ev, err = delta.Attach(best, delta.Options{CrossCheckEvery: opt.DeltaCrossCheckEvery})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("placement: delta attach: %w", err)
		}
	}
	// Fanning a round out to the worker pool only pays when there is
	// real work to hide behind the dispatch overhead: with one effective
	// worker, or with proposals cheaper than the overhead itself (the
	// initial synthesis duration is the per-proposal cost estimate),
	// evaluate rounds serially on the calling goroutine. Either path
	// walks the identical trajectory.
	serialRounds := parallel.Workers() == 1 || synthDur < serialEvalThreshold

	for it := 0; it < opt.Iterations; {
		if err := ctx.Err(); err != nil {
			return nil, nil, nil, err
		}
		round := opt.ProposalsPerRound
		if it+round > opt.Iterations {
			round = opt.Iterations - it
		}
		// Draw the round's proposals up front; the generator consumes
		// the same variates per proposal regardless of what earlier
		// rounds accepted, and spacing is checked here (against the
		// incumbent) so the evaluation set is fixed before any worker
		// starts.
		props := make([]proposal, 0, round)
		for k := 0; k < round; k++ {
			node := rng.Intn(cur.N())
			dx := (rng.Float64()*2 - 1) * opt.StepMM
			dy := (rng.Float64()*2 - 1) * opt.StepMM
			p := cur.Nodes[node].Pos
			p.X = clamp(p.X+dx, opt.MarginMM, cur.DieW-opt.MarginMM)
			p.Y = clamp(p.Y+dy, opt.MarginMM, cur.DieH-opt.MarginMM)
			if !spacedEnoughAt(cur, node, p, opt.MinSpacingMM) {
				mSpacingRejects.Inc()
				continue
			}
			props = append(props, proposal{node: node, to: p})
		}
		trace.Evaluated += len(props)
		trace.ProposalsEvaluated += len(props)
		mProposals.Add(int64(len(props)))

		rctx, rspan := obs.Start(ctx, "placement.round",
			obs.Int("iteration", it), obs.Int("proposals", len(props)))
		tEval := time.Now()

		// Score the round. Delta mode holds the synthesized structure
		// fixed and evaluates moves incrementally (apply → re-price
		// → revert), which is inherently serial and cheap;
		// full mode re-synthesizes per proposal. Ties break toward the
		// lowest proposal index either way, so the pick is independent
		// of worker count.
		bestK := -1
		bestS := score
		var evals []*core.Result
		if opt.Delta {
			for k := range props {
				rep, err := ev.EvalMove(props[k].node, props[k].to)
				if err != nil {
					continue // infeasible move; reject it
				}
				if s := objectiveLoss(rep.Loss, opt.Objective); s < bestS-1e-12 {
					bestK, bestS = k, s
				}
			}
		} else {
			evalOne := func(k int) *core.Result {
				cand := cloneNetwork(cur)
				cand.Nodes[props[k].node].Pos = props[k].to
				res, err := core.SynthesizeCtx(rctx, cand, opt.Synth)
				if err != nil {
					return nil // infeasible placement; reject the move
				}
				return res
			}
			evals = make([]*core.Result, len(props))
			if serialRounds || len(props) < 2 {
				for k := range props {
					evals[k] = evalOne(k)
				}
			} else {
				_ = parallel.ForEach(rctx, len(props), func(k int) error {
					evals[k] = evalOne(k)
					return nil
				})
			}
			for k, res := range evals {
				if res == nil {
					continue
				}
				if s := objective(res, opt.Objective); s < bestS-1e-12 {
					bestK, bestS = k, s
				}
			}
		}
		trace.EvalTime += time.Since(tEval)

		if bestK >= 0 {
			pr := props[bestK]
			trace.Moves = append(trace.Moves, Move{
				Iteration: it + bestK, Node: pr.node,
				From: cur.Nodes[pr.node].Pos, To: pr.to, Score: bestS,
			})
			next := cloneNetwork(cur)
			next.Nodes[pr.node].Pos = pr.to
			cur = next
			if opt.Delta {
				if _, err := ev.Commit(pr.node, pr.to); err != nil {
					return nil, nil, nil, fmt.Errorf("placement: delta commit: %w", err)
				}
			} else {
				best = evals[bestK]
			}
			score = bestS
			mAccepted.Inc()
		}
		rspan.Set(obs.Bool("accepted", bestK >= 0), obs.Float("score", score))
		rspan.End()
		it += round
	}
	if opt.Delta {
		// The search scored moves against the structure synthesized at
		// the initial placement; the returned result is a fresh full
		// synthesis (which may restructure) at the final placement.
		best, err = core.SynthesizeCtx(ctx, cur, opt.Synth)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("placement: final synthesis: %w", err)
		}
		trace.Evaluated++
	}
	trace.Final = score
	span.Set(obs.Float("initial", trace.Initial), obs.Float("final", trace.Final),
		obs.Int("moves", len(trace.Moves)))
	return cur, best, trace, nil
}

// serialEvalThreshold is the per-proposal cost below which a round is
// evaluated serially: dispatching to the pool costs on the order of
// tens of microseconds per task, so synthesis runs cheaper than this
// lose more to fan-out overhead than they gain from overlap.
const serialEvalThreshold = 500 * time.Microsecond

func objective(res *core.Result, o Objective) float64 {
	return objectiveLoss(res.Loss, o)
}

func objectiveLoss(l *loss.Report, o Objective) float64 {
	if o == MinPower {
		return l.TotalPowerMW
	}
	return l.WorstIL
}

func cloneNetwork(net *noc.Network) *noc.Network {
	out := &noc.Network{DieW: net.DieW, DieH: net.DieH}
	out.Nodes = append([]noc.Node(nil), net.Nodes...)
	return out
}

// spacedEnoughAt reports whether node moved placed at p keeps the
// minimum pairwise distance to every other node of net.
func spacedEnoughAt(net *noc.Network, moved int, p geom.Point, minSpacing float64) bool {
	for i, n := range net.Nodes {
		if i == moved {
			continue
		}
		if geom.Manhattan(p, n.Pos) < minSpacing {
			return false
		}
	}
	return true
}

func clamp(v, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, v))
}
