// Package delta implements the incremental (delta) evaluation engine
// for the placement and sweep hot loops. A placement proposal moves one
// node; re-synthesizing the whole design to score it repeats work that
// the move cannot have changed. The Evaluator attaches to a synthesized
// design and keeps what its structure fixes: a loss.Pricer (canonical
// signal order, exact element counts, PDN feeds) and an xtalk.Engine
// (walker node orders and receiver maps). A move re-derives everything
// floating-point and position-derived from fresh geometry — arc
// lengths, bends, the perimeter-dependent radial scale, shortcut paths,
// PDN feed losses and ring-crossing positions — with the expressions
// the full analysis uses. Caching only exact integers is what makes a
// delta evaluation bit-identical to a full recompute.
//
// The synthesized structure (tour, waveguides, channels, routes,
// shortcut pairings) is held fixed for the lifetime of an Evaluator;
// "full recompute" means re-running the loss and crosstalk analyses on
// that structure with refreshed geometry, which is exactly what the
// placement search compares proposals with. A configurable periodic
// cross-check (every K commits, default on) re-runs the full analyses
// and hard-fails if any delta-maintained aggregate drifts beyond
// milp.Eps — mirroring the serial-vs-parallel determinism gate in CI.
package delta

import (
	"context"
	"fmt"
	"math"

	"xring/internal/core"
	"xring/internal/geom"
	"xring/internal/loss"
	"xring/internal/milp"
	"xring/internal/noc"
	"xring/internal/obs"
	"xring/internal/pdn"
	"xring/internal/router"
	"xring/internal/xtalk"
)

// Metrics: evaluation, commit and cross-check counts.
var (
	mEvals       = obs.NewCounter("delta.evals")
	mCommits     = obs.NewCounter("delta.commits")
	mCrossChecks = obs.NewCounter("delta.crosschecks")
)

// DefaultCrossCheckEvery is the default cross-check cadence: one full
// recompute per this many committed moves.
const DefaultCrossCheckEvery = 16

// Options configures an Evaluator.
type Options struct {
	// CrossCheckEvery runs a full-recompute cross-check every K
	// committed moves. Zero selects DefaultCrossCheckEvery; negative
	// disables periodic cross-checking.
	CrossCheckEvery int
}

// Reports bundles the two analysis reports a proposal is scored with.
type Reports struct {
	Loss  *loss.Report
	Xtalk *xtalk.Report
}

// pdnKind says how to rebuild the PDN after a geometry change.
type pdnKind int

const (
	pdnNone pdnKind = iota
	pdnTree
	pdnComb
)

// Evaluator incrementally evaluates single-node moves against a fixed
// synthesized structure. It owns a private clone of the network, so
// moves never touch the caller's data. Not safe for concurrent use.
type Evaluator struct {
	opt  Options
	net  *noc.Network
	d    *router.Design
	kind pdnKind
	plan *pdn.Plan

	pricer *loss.Pricer
	engine *xtalk.Engine
	// scOrders[i] is the L-routing order shortcut i's PathAB was built
	// with, so the path can be rebuilt when an endpoint moves.
	scOrders []geom.LOrder

	last    *Reports
	commits int

	// savedX and spareX double-buffer the waveguide crossing lists
	// across a tentative move: savedX[i] holds waveguide i's pre-move
	// list while the move's PDN rebuild (BuildComb rewrites crossings in
	// place) works on a copy in spareX[i]'s storage.
	savedX, spareX [][]router.Crossing
}

// Attach builds an Evaluator over a synthesized result. The result's
// structure (tour, channel assignment, routes, shortcut pairings) is
// frozen; its geometry is cloned so the evaluator can move nodes freely.
// The initial evaluation is cross-checked against a full recompute
// unless cross-checking is disabled.
func Attach(res *core.Result, opt Options) (*Evaluator, error) {
	if res == nil || res.Design == nil {
		return nil, fmt.Errorf("delta: nil result")
	}
	if opt.CrossCheckEvery == 0 {
		opt.CrossCheckEvery = DefaultCrossCheckEvery
	}
	src := res.Design
	net := &noc.Network{DieW: src.Net.DieW, DieH: src.Net.DieH}
	net.Nodes = append([]noc.Node(nil), src.Net.Nodes...)

	d, err := router.NewDesign(net, src.Par, src.Tour, src.EdgeOrders)
	if err != nil {
		return nil, err
	}
	d.MaxWL = src.MaxWL
	// Own waveguide structs (the comb PDN rebuild mutates Crossings);
	// channel slices are read-only and shared.
	d.Waveguides = make([]*router.Waveguide, len(src.Waveguides))
	for i, w := range src.Waveguides {
		cp := *w
		cp.Crossings = append([]router.Crossing(nil), w.Crossings...)
		d.Waveguides[i] = &cp
	}
	// Own shortcut structs (moves rebuild PathAB); channels shared.
	d.Shortcuts = make([]*router.Shortcut, len(src.Shortcuts))
	orders := make([]geom.LOrder, len(src.Shortcuts))
	for i, s := range src.Shortcuts {
		cp := *s
		cp.PathAB = append(geom.Polyline(nil), s.PathAB...)
		d.Shortcuts[i] = &cp
		orders[i] = geom.LOrderOf(s.PathAB)
	}
	d.Routes = src.Routes // read-only

	e := &Evaluator{opt: opt, net: net, d: d, scOrders: orders,
		savedX: make([][]router.Crossing, len(d.Waveguides)),
		spareX: make([][]router.Crossing, len(d.Waveguides)),
	}
	switch {
	case res.Plan == nil:
		e.kind = pdnNone
	case res.Plan.Kind == pdn.Tree:
		e.kind = pdnTree
	default:
		e.kind = pdnComb
	}
	if err := e.rebuildPlan(); err != nil {
		return nil, err
	}
	if e.pricer, err = loss.NewPricer(d); err != nil {
		return nil, err
	}
	e.engine = xtalk.NewEngine(d)
	rep, err := e.evaluate()
	if err != nil {
		return nil, err
	}
	e.last = rep
	if opt.CrossCheckEvery > 0 {
		if err := e.CrossCheck(); err != nil {
			return nil, fmt.Errorf("delta: attach cross-check: %w", err)
		}
	}
	return e, nil
}

// rebuildPlan re-synthesizes the PDN from the current geometry.
func (e *Evaluator) rebuildPlan() error {
	var err error
	switch e.kind {
	case pdnNone:
		e.plan = nil
	case pdnTree:
		e.plan, err = pdn.BuildTree(e.d)
	case pdnComb:
		e.plan, err = pdn.BuildComb(e.d)
	}
	return err
}

// moveNode sets one node's position and refreshes the geometry derived
// from positions: the tour coordinates and the paths of shortcuts
// ending at the node. Pure recomputation — moving a node back restores
// this state bit for bit.
func (e *Evaluator) moveNode(node int, p geom.Point) error {
	e.net.Nodes[node].Pos = p
	if err := e.d.RefreshGeometry(); err != nil {
		return err
	}
	for si, s := range e.d.Shortcuts {
		if s.A == node || s.B == node {
			s.PathAB = geom.LPath(e.net.Nodes[s.A].Pos, e.net.Nodes[s.B].Pos, e.scOrders[si])
		}
	}
	return nil
}

// applyGeometry moves one node and rebuilds the PDN at the new geometry.
func (e *Evaluator) applyGeometry(node int, p geom.Point) error {
	if err := e.moveNode(node, p); err != nil {
		return err
	}
	return e.rebuildPlan()
}

// tentative applies a move (geometry and PDN rebuild), runs fn at the
// moved geometry and reverts. Both PDN builders are deterministic pure
// functions of structure and geometry, so a rebuild at the restored
// geometry would reproduce the pre-move plan and crossing lists bit for
// bit; the revert puts the saved ones back instead of rebuilding them.
// fn's error is returned after the revert.
func (e *Evaluator) tentative(node int, p geom.Point, fn func() error) error {
	if node < 0 || node >= e.net.N() {
		return fmt.Errorf("delta: node %d out of range", node)
	}
	old, plan := e.net.Nodes[node].Pos, e.plan
	for i, w := range e.d.Waveguides {
		e.savedX[i] = w.Crossings
		w.Crossings = append(e.spareX[i][:0], w.Crossings...)
	}
	err := e.applyGeometry(node, p)
	if err == nil {
		err = fn()
	}
	for i, w := range e.d.Waveguides {
		e.spareX[i], w.Crossings = w.Crossings, e.savedX[i]
	}
	e.plan = plan
	if rerr := e.moveNode(node, old); rerr != nil {
		return rerr
	}
	return err
}

// evaluate produces the analysis reports for the current geometry
// from the cached structure.
func (e *Evaluator) evaluate() (*Reports, error) {
	ctx := context.Background()
	lrep, err := e.pricer.Price(ctx, e.plan)
	if err != nil {
		return nil, err
	}
	xrep, err := e.engine.Analyze(ctx, e.plan, lrep, xtalk.Options{})
	if err != nil {
		return nil, err
	}
	mEvals.Inc()
	return &Reports{Loss: lrep, Xtalk: xrep}, nil
}

// EvalMove scores moving node to position p without committing: the
// move is applied, evaluated, and reverted.
// The evaluator state afterwards is bit-identical to the state before.
func (e *Evaluator) EvalMove(node int, p geom.Point) (*Reports, error) {
	var rep *Reports
	err := e.tentative(node, p, func() (err error) {
		rep, err = e.evaluate()
		return err
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// Commit applies a move permanently: geometry is updated and the
// committed reports become the evaluator's current reports. Every CrossCheckEvery commits, a full
// recompute verifies the delta-maintained reports.
func (e *Evaluator) Commit(node int, p geom.Point) (*Reports, error) {
	if node < 0 || node >= e.net.N() {
		return nil, fmt.Errorf("delta: node %d out of range", node)
	}
	if err := e.applyGeometry(node, p); err != nil {
		return nil, err
	}
	rep, err := e.evaluate()
	if err != nil {
		return nil, err
	}
	e.last = rep
	e.commits++
	mCommits.Inc()
	if e.opt.CrossCheckEvery > 0 && e.commits%e.opt.CrossCheckEvery == 0 {
		if err := e.CrossCheck(); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// RecomputeMove scores moving node to position p the slow way: the
// move and PDN rebuild of EvalMove, then FullRecompute in place of the
// cached-structure evaluation, then the same revert. It is the reference the
// xbench delta gate divides by EvalMove.
func (e *Evaluator) RecomputeMove(node int, p geom.Point) (*Reports, error) {
	var rep *Reports
	err := e.tentative(node, p, func() (err error) {
		rep, err = e.FullRecompute()
		return err
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// CheckMove is EvalMove plus an immediate full-recompute equivalence
// check at the proposed geometry, for tests and the xbench gate. The
// move is reverted either way; a non-nil error means the delta engine
// and the full analysis disagree.
func (e *Evaluator) CheckMove(node int, p geom.Point) (*Reports, error) {
	var rep *Reports
	var checkErr error
	err := e.tentative(node, p, func() (err error) {
		if rep, err = e.evaluate(); err != nil {
			return err
		}
		var full *Reports
		if full, checkErr = e.FullRecompute(); checkErr == nil {
			checkErr = CompareReports(rep, full, 0)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, checkErr
}

// FullRecompute runs the full loss and crosstalk analyses on the
// evaluator's structure at its current geometry — the reference every
// delta evaluation must match bit for bit.
func (e *Evaluator) FullRecompute() (*Reports, error) {
	ctx := context.Background()
	lrep, err := loss.AnalyzeCtx(ctx, e.d, e.plan)
	if err != nil {
		return nil, err
	}
	xrep, err := xtalk.AnalyzeCtx(ctx, e.d, e.plan, lrep)
	if err != nil {
		return nil, err
	}
	return &Reports{Loss: lrep, Xtalk: xrep}, nil
}

// CrossCheck verifies the current delta-maintained reports against a
// full recompute, hard-failing on any mismatch beyond milp.Eps.
func (e *Evaluator) CrossCheck() error {
	mCrossChecks.Inc()
	full, err := e.FullRecompute()
	if err != nil {
		return err
	}
	if err := CompareReports(e.last, full, milp.Eps); err != nil {
		return fmt.Errorf("delta: cross-check failed after %d commits: %w", e.commits, err)
	}
	return nil
}

// Reports returns the evaluator's current (last committed) reports.
func (e *Evaluator) Reports() *Reports { return e.last }

// Network returns the evaluator's private network. Callers must treat
// it as read-only; positions change through EvalMove/Commit only.
func (e *Evaluator) Network() *noc.Network { return e.net }

// Design returns the evaluator's private design (read-only).
func (e *Evaluator) Design() *router.Design { return e.d }

// Commits returns the number of committed moves.
func (e *Evaluator) Commits() int { return e.commits }

// CompareReports checks two report bundles for equality within eps
// (eps 0 demands bit-identity). It compares every per-signal loss
// field, the report aggregates, and the crosstalk noise maps.
func CompareReports(a, b *Reports, eps float64) error {
	if a == nil || b == nil {
		return fmt.Errorf("delta: nil reports")
	}
	if err := compareLoss(a.Loss, b.Loss, eps); err != nil {
		return err
	}
	return compareXtalk(a.Xtalk, b.Xtalk, a.Loss.Sigs, eps)
}

func compareLoss(a, b *loss.Report, eps float64) error {
	if len(a.Sigs) != len(b.Sigs) || len(a.Losses) != len(b.Losses) {
		return fmt.Errorf("signal count %d vs %d", len(a.Sigs), len(b.Sigs))
	}
	for i, sig := range a.Sigs {
		if b.Sigs[i] != sig {
			return fmt.Errorf("signal %d is %v vs %v", i, sig, b.Sigs[i])
		}
		sa, sb := a.Losses[i], b.Losses[i]
		if sa.Throughs != sb.Throughs || sa.Drops != sb.Drops ||
			sa.Crossings != sb.Crossings || sa.Bends != sb.Bends || sa.WL != sb.WL {
			return fmt.Errorf("signal %v counts %+v vs %+v", sig, *sa, *sb)
		}
		for _, f := range [...]struct {
			name   string
			va, vb float64
		}{
			{"IL", sa.IL, sb.IL},
			{"ILBeforeDrop", sa.ILBeforeDrop, sb.ILBeforeDrop},
			{"PDNLoss", sa.PDNLoss, sb.PDNLoss},
			{"PathLen", sa.PathLen, sb.PathLen},
			{"LaserMW", sa.LaserMW, sb.LaserMW},
			{"DetectorGain", sa.DetectorGain, sb.DetectorGain},
		} {
			if !closeEnough(f.va, f.vb, eps) {
				return fmt.Errorf("signal %v %s %v vs %v", sig, f.name, f.va, f.vb)
			}
		}
	}
	if a.Worst != b.Worst || a.WorstCrossings != b.WorstCrossings ||
		a.WavelengthCount != b.WavelengthCount {
		return fmt.Errorf("worst/aggregate mismatch: %v/%d/%d vs %v/%d/%d",
			a.Worst, a.WorstCrossings, a.WavelengthCount,
			b.Worst, b.WorstCrossings, b.WavelengthCount)
	}
	if !closeEnough(a.WorstIL, b.WorstIL, eps) {
		return fmt.Errorf("WorstIL %v vs %v", a.WorstIL, b.WorstIL)
	}
	if !closeEnough(a.WorstLen, b.WorstLen, eps) {
		return fmt.Errorf("WorstLen %v vs %v", a.WorstLen, b.WorstLen)
	}
	if !closeEnough(a.TotalPowerMW, b.TotalPowerMW, eps) {
		return fmt.Errorf("TotalPowerMW %v vs %v", a.TotalPowerMW, b.TotalPowerMW)
	}
	if len(a.WavelengthPower) != len(b.WavelengthPower) {
		return fmt.Errorf("wavelength slots %d vs %d", len(a.WavelengthPower), len(b.WavelengthPower))
	}
	for wl, pa := range a.WavelengthPower {
		if !closeEnough(pa, b.WavelengthPower[wl], eps) {
			return fmt.Errorf("wavelength %d power %v vs %v", wl, pa, b.WavelengthPower[wl])
		}
	}
	return nil
}

// compareXtalk compares two crosstalk reports whose per-signal slices
// are both aligned with sigs (the loss reports compared equal).
func compareXtalk(a, b *xtalk.Report, sigs []noc.Signal, eps float64) error {
	if a.NumNoisy != b.NumNoisy || a.WorstSNRSignal != b.WorstSNRSignal {
		return fmt.Errorf("noisy %d/%v vs %d/%v",
			a.NumNoisy, a.WorstSNRSignal, b.NumNoisy, b.WorstSNRSignal)
	}
	if !closeEnough(a.WorstSNR, b.WorstSNR, eps) {
		return fmt.Errorf("WorstSNR %v vs %v", a.WorstSNR, b.WorstSNR)
	}
	if !closeEnough(a.NoiseFreeFrac, b.NoiseFreeFrac, eps) {
		return fmt.Errorf("NoiseFreeFrac %v vs %v", a.NoiseFreeFrac, b.NoiseFreeFrac)
	}
	if len(a.NoiseMW) != len(b.NoiseMW) || len(a.SignalMW) != len(b.SignalMW) {
		return fmt.Errorf("noise/signal sizes %d/%d vs %d/%d",
			len(a.NoiseMW), len(a.SignalMW), len(b.NoiseMW), len(b.SignalMW))
	}
	for i, na := range a.NoiseMW {
		if !closeEnough(na, b.NoiseMW[i], eps) {
			return fmt.Errorf("noise for %v: %v vs %v", sigs[i], na, b.NoiseMW[i])
		}
	}
	for i, sa := range a.SignalMW {
		if !closeEnough(sa, b.SignalMW[i], eps) {
			return fmt.Errorf("signal power for %v: %v vs %v", sigs[i], sa, b.SignalMW[i])
		}
	}
	return nil
}

// closeEnough compares within eps; infinities must match exactly (a
// noise-free design has WorstSNR = +Inf in both reports).
func closeEnough(a, b, eps float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= eps
}
