package main

// Stagewise synthesis: the same flow core.SynthesizeCtx and
// core.SweepCtx run, composed here from the public layer calls so the
// benchmark can put one span around each. Traced runs time these; the
// untraced runs use the engine's own entry points and check their
// outputs against these (and the traced runs the other way round), so
// a divergence between the two compositions fails the run.

import (
	"context"
	"errors"

	"xring/internal/core"
	"xring/internal/geom"
	"xring/internal/loss"
	"xring/internal/mapping"
	"xring/internal/noc"
	"xring/internal/parallel"
	"xring/internal/pdn"
	"xring/internal/phys"
	"xring/internal/ring"
	"xring/internal/router"
	"xring/internal/shortcut"
	"xring/internal/xtalk"
)

// synthStagewise is core.SynthesizeCtx for options without ablations,
// fault tolerance or custom parameters: Step 1 straight from the ring
// constructor, then synthOnRing.
func synthStagewise(ctx context.Context, tr *tracer, parent int, net *noc.Network, opt core.Options) (*core.Result, error) {
	s := tr.begin(parent, "ring")
	rres, err := ring.ConstructCtx(ctx, net, ring.Options{})
	tr.end(s)
	if err != nil {
		return nil, err
	}
	return synthOnRing(ctx, tr, parent, net, rres, opt, nil)
}

// synthOnRing runs Steps 2-4, the validator and both analyses on a
// Step-1 result. A non-nil skeleton replaces Step 2 with clones of a
// shared shortcut construction, as a sweep does.
func synthOnRing(ctx context.Context, tr *tracer, parent int, net *noc.Network, rres *ring.Result, opt core.Options, skeleton []*router.Shortcut) (*core.Result, error) {
	par := phys.Default()
	maxWL := opt.MaxWL
	if maxWL == 0 {
		maxWL = net.N()
	}
	s := tr.begin(parent, "router.new")
	d, err := router.NewDesign(net, par, rres.Tour, rres.Orders)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if skeleton != nil {
		d.Shortcuts = cloneShortcuts(skeleton)
	} else {
		s = tr.begin(parent, "shortcut")
		err = shortcut.Construct(d, shortcut.Options{})
		tr.end(s)
		if err != nil {
			return nil, err
		}
	}
	s = tr.begin(parent, "mapping")
	stats, err := mapping.Run(d, mapping.Options{
		MaxWL:         maxWL,
		NoOpenings:    !opt.WithPDN,
		AlignOpenings: true,
		PreferSharing: opt.ShareWavelengths,
		MaxWaveguides: mapping.WaveguideCap(net, par),
	})
	tr.end(s)
	if err != nil {
		return nil, err
	}
	var plan *pdn.Plan
	if opt.WithPDN {
		s = tr.begin(parent, "pdn")
		plan, err = pdn.BuildTree(d)
		tr.end(s)
		if err != nil {
			return nil, err
		}
	}
	s = tr.begin(parent, "validate")
	err = d.Validate()
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin(parent, "loss")
	lrep, err := loss.AnalyzeCtx(ctx, d, plan)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin(parent, "xtalk")
	xrep, err := xtalk.AnalyzeCtx(ctx, d, plan, lrep)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	return &core.Result{Design: d, Ring: rres, MapStats: stats, Plan: plan, Loss: lrep, Xtalk: xrep, Opt: opt}, nil
}

// cloneShortcuts gives a sweep candidate private shortcut structs:
// mapping appends channels to them.
func cloneShortcuts(src []*router.Shortcut) []*router.Shortcut {
	out := make([]*router.Shortcut, len(src))
	for i, sc := range src {
		cp := *sc
		cp.PathAB = append([]geom.Point(nil), sc.PathAB...)
		cp.Channels = nil
		out[i] = &cp
	}
	return out
}

// sweepCounts is what a stagewise sweep reports besides its winner.
type sweepCounts struct {
	candidates, infeasible int
	waveguides             int // summed over the feasible candidates
}

// sweepStagewise is core.SweepCtx over every #wl budget and both
// sharing policies: the ring from the engine's cache, one shared Step-2
// skeleton, candidates fanned out over the shared worker pool, then the
// engine's reduction rule.
func sweepStagewise(ctx context.Context, tr *tracer, parent int, net *noc.Network, opt core.Options, obj core.Objective) (*core.Result, sweepCounts, error) {
	var counts sweepCounts
	s := tr.begin(parent, "ring")
	rres, err := core.ConstructRingShared(ctx, net, ring.Options{})
	tr.end(s)
	if err != nil {
		return nil, counts, err
	}
	s = tr.begin(parent, "shortcut")
	d0, err := router.NewDesign(net, phys.Default(), rres.Tour, rres.Orders)
	if err == nil {
		err = shortcut.Construct(d0, shortcut.Options{})
	}
	tr.end(s)
	if err != nil {
		return nil, counts, err
	}
	type cand struct {
		wl    int
		share bool
	}
	var cands []cand
	for wl := 1; wl <= net.N(); wl++ {
		cands = append(cands, cand{wl, false}, cand{wl, true})
	}
	results := make([]*core.Result, len(cands))
	fan := tr.begin(parent, "sweep.fanout")
	err = parallel.ForEach(ctx, len(cands), func(i int) error {
		cs := tr.begin(fan, "sweep.candidate")
		o := opt
		o.MaxWL, o.ShareWavelengths = cands[i].wl, cands[i].share
		r, err := synthOnRing(ctx, tr, cs, net, rres, o, d0.Shortcuts)
		tr.end(cs)
		if err == nil {
			results[i] = r
		}
		return nil // an infeasible budget is skipped, as the engine does
	})
	tr.end(fan)
	if err != nil {
		return nil, counts, err
	}
	s = tr.begin(parent, "sweep.reduce")
	var best *core.Result
	for _, r := range results {
		counts.candidates++
		if r == nil {
			counts.infeasible++
			continue
		}
		counts.waveguides += len(r.Design.Waveguides)
		if better(obj, r, best) {
			best = r
		}
	}
	tr.end(s)
	if best == nil {
		return nil, counts, errNoFeasible
	}
	return best, counts, nil
}

var errNoFeasible = errors.New("sweep: no feasible #wl setting")

// better is the engine's sweep order: objective score, then laser power,
// then lower #wl, then the fresh-wavelength policy.
func better(obj core.Objective, a, b *core.Result) bool {
	if b == nil {
		return a != nil
	}
	if a == nil {
		return false
	}
	sa, sb := obj.Score(a), obj.Score(b)
	if sa < sb-1e-12 {
		return true
	}
	if sb < sa-1e-12 {
		return false
	}
	pa, pb := a.Loss.TotalPowerMW, b.Loss.TotalPowerMW
	if pa < pb-1e-15 {
		return true
	}
	if pb < pa-1e-15 {
		return false
	}
	if a.Opt.MaxWL != b.Opt.MaxWL {
		return a.Opt.MaxWL < b.Opt.MaxWL
	}
	return !a.Opt.ShareWavelengths && b.Opt.ShareWavelengths
}
