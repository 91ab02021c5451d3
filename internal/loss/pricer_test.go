package loss_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"xring/internal/core"
	"xring/internal/geom"
	"xring/internal/loss"
	"xring/internal/noc"
	"xring/internal/pdn"
	"xring/internal/phys"
	"xring/internal/router"
)

// refAnalyze is the per-signal analysis loop the Pricer replaced, kept
// as the reference of the differential test: sort the routed signals,
// walk each route from scratch with refForRoute, summarize.
func refAnalyze(d *router.Design, plan *pdn.Plan) (*loss.Report, error) {
	banks := loss.NewBanks(d)
	sigs := make([]noc.Signal, 0, len(d.Routes))
	for sig := range d.Routes {
		sigs = append(sigs, sig)
	}
	noc.SortSignals(sigs)
	losses := make([]*loss.SignalLoss, len(sigs))
	for i, sig := range sigs {
		var err error
		if losses[i], err = refForRoute(d, banks, plan, sig, d.Routes[sig]); err != nil {
			return nil, err
		}
	}
	return loss.Summarize(sigs, losses, d.WavelengthsUsed()), nil
}

// refForRoute prices one signal over one route by walking it from
// scratch.
func refForRoute(d *router.Design, banks *loss.Banks, plan *pdn.Plan, sig noc.Signal, r *router.Route) (*loss.SignalLoss, error) {
	par := d.Par
	sl := &loss.SignalLoss{Sig: sig, WL: r.WL}
	switch r.Kind {
	case router.OnRing:
		w := d.Waveguides[r.WG]
		sl.PathLen = d.ArcLen(sig.Src, sig.Dst, w.Dir) * d.RadialScale(w)
		sl.Throughs = banks.Senders[r.WG][sig.Src] - 1
		d.ForEachGapNode(sig.Src, sig.Dst, w.Dir, func(k int) {
			sl.Throughs += banks.Senders[r.WG][k] + banks.Receivers[r.WG][k]
		})
		sl.Throughs += banks.Receivers[r.WG][sig.Dst] - 1
		sl.Drops = 1
		sl.Crossings = d.CrossingsOnArc(w, sig.Src, sig.Dst)
		sl.Bends = d.BendsOnArc(sig.Src, sig.Dst, w.Dir)
	case router.OnShortcut:
		sl.Throughs, sl.Drops, sl.Crossings = refShortcutCounts(d, sig, r)
		sc := d.Shortcuts[r.SC]
		sl.PathLen, sl.Bends = sc.Length(), sc.PathAB.Bends()
		if r.ViaCSE {
			p := d.Shortcuts[sc.Partner]
			x, ok := geom.PolylineCrossingPoint(sc.PathAB, p.PathAB)
			if ok {
				sl.PathLen = geom.DistAlong(sc.PathAB, d.Net.Nodes[sig.Src].Pos, x) +
					geom.DistAlong(p.PathAB, x, d.Net.Nodes[sig.Dst].Pos)
			} else {
				sl.PathLen = sc.Length()/2 + p.Length()/2
			}
			sl.Bends = sc.PathAB.Bends() + p.PathAB.Bends() + 1
		}
	default:
		return nil, fmt.Errorf("unknown route kind for %v", sig)
	}
	if plan != nil {
		key := pdn.FeedKey{OnShortcut: r.Kind == router.OnShortcut, Node: sig.Src, Index: r.WG}
		if r.Kind == router.OnShortcut {
			key.Index = r.SC
		}
		var err error
		if sl.PDNLoss, err = plan.SenderLossDB(par, key); err != nil {
			return nil, err
		}
	}
	sl.ILBeforeDrop = sl.PathLen*par.PropagationDBPerMM +
		float64(sl.Throughs)*par.ThroughDB +
		float64(sl.Crossings)*par.CrossingDB +
		float64(sl.Bends)*par.BendDB
	sl.IL = sl.ILBeforeDrop + float64(sl.Drops)*par.DropDB + par.PhotodetectorDB
	if r.ViaCSE {
		sl.ILBeforeDrop += par.DropDB
	}
	sl.LaserMW = phys.LaserPowerMW(sl.IL+sl.PDNLoss, par.ReceiverSensitivityDBm)
	sl.DetectorGain = phys.DBToLinear(-(sl.PDNLoss + sl.IL))
	return sl, nil
}

// refShortcutCounts counts a shortcut route's through MRRs (entry bank,
// CSE MRRs, exit bank), drops and the CSE crossing passed straight
// through.
func refShortcutCounts(d *router.Design, sig noc.Signal, r *router.Route) (throughs, drops, crossings int) {
	sc := d.Shortcuts[r.SC]
	count := func(s *router.Shortcut, dst bool) int {
		n := 0
		for _, c := range s.Channels {
			if (dst && c.Sig.Dst == sig.Dst) || (!dst && c.Sig.Src == sig.Src) {
				n++
			}
		}
		return n
	}
	throughs = count(sc, false) - 1
	exit := count(sc, true)
	drops = 1
	if r.ViaCSE {
		drops = 2
		exit += count(d.Shortcuts[sc.Partner], true)
	} else if sc.Partner != -1 {
		crossings = 1
		throughs += 2
	}
	throughs += max(exit-1, 0)
	return max(throughs, 0), drops, crossings
}

// sameLoss demands bit-identical breakdowns.
func sameLoss(a, b *loss.SignalLoss) bool {
	for _, f := range [...][2]float64{{a.IL, b.IL}, {a.ILBeforeDrop, b.ILBeforeDrop},
		{a.PDNLoss, b.PDNLoss}, {a.PathLen, b.PathLen}, {a.LaserMW, b.LaserMW},
		{a.DetectorGain, b.DetectorGain}} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			return false
		}
	}
	return *a == *b
}

// sameReport demands bit-identical reports.
func sameReport(a, b *loss.Report) error {
	if !slices.Equal(a.Sigs, b.Sigs) || len(a.Losses) != len(b.Losses) {
		return fmt.Errorf("signal order differs: %d vs %d signals", len(a.Sigs), len(b.Sigs))
	}
	for i := range a.Losses {
		if !sameLoss(a.Losses[i], b.Losses[i]) {
			return fmt.Errorf("signal %v: %+v vs %+v", a.Sigs[i], *a.Losses[i], *b.Losses[i])
		}
	}
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	if a.Worst != b.Worst || a.WorstCrossings != b.WorstCrossings || a.WavelengthCount != b.WavelengthCount ||
		!slices.Equal(bits([]float64{a.WorstIL, a.WorstLen, a.TotalPowerMW}), bits([]float64{b.WorstIL, b.WorstLen, b.TotalPowerMW})) ||
		!slices.Equal(bits(a.WavelengthPower), bits(b.WavelengthPower)) {
		return fmt.Errorf("aggregates differ: %+v vs %+v", *a, *b)
	}
	return nil
}

// TestPricerMatchesPerSignalWalk is the differential test of the
// Pricer: on grid and seeded irregular floorplans, with tree, comb and
// no PDN, shortcuts with CSE traffic and fault-tolerant spare routes,
// Price must equal the per-signal reference walk bit for bit, and
// PriceRoute must price every spare route as the reference does.
func TestPricerMatchesPerSignalWalk(t *testing.T) {
	var cse, spares, crossed int
	for _, tc := range []struct {
		name string
		net  *noc.Network
		opt  core.Options
	}{
		{"grid8-tree", noc.Floorplan8(), core.Options{MaxWL: 8, WithPDN: true}},
		{"grid8-comb", noc.Floorplan8(), core.Options{MaxWL: 8, WithPDN: true, NoOpenings: true}},
		{"grid16-tree-ft1", noc.Floorplan16(), core.Options{MaxWL: 8, WithPDN: true, FaultTolerance: 1}},
		{"grid8-comb-ft1", noc.Floorplan8(), core.Options{MaxWL: 8, WithPDN: true, NoOpenings: true, FaultTolerance: 1}},
		{"irregular10-cse", noc.Irregular(10, 30, 30, 3, 8), core.Options{MaxWL: 10}},
		{"irregular10-cse-tree", noc.Irregular(10, 30, 30, 3, 8), core.Options{MaxWL: 10, WithPDN: true}},
		{"irregular12-tree-ft1", noc.Irregular(12, 18, 18, 2.5, 4), core.Options{MaxWL: 6, WithPDN: true, FaultTolerance: 1}},
		{"irregular16-comb", noc.Irregular(16, 16, 16, 2.5, 5), core.Options{MaxWL: 16, WithPDN: true, NoOpenings: true}},
		{"irregular24-tree", noc.Irregular(24, 24, 24, 2.5, 3), core.Options{MaxWL: 12, WithPDN: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := core.Synthesize(tc.net, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			d := res.Design
			p, err := loss.NewPricer(d)
			if err != nil {
				t.Fatal(err)
			}
			plans := []*pdn.Plan{nil}
			if res.Plan != nil {
				plans = append(plans, res.Plan)
			}
			for _, plan := range plans {
				want, err := refAnalyze(d, plan)
				if err != nil {
					t.Fatal(err)
				}
				got, err := p.Price(context.Background(), plan)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameReport(got, want); err != nil {
					t.Fatalf("plan %v: Price: %v", plan != nil, err)
				}
				if got, err = loss.AnalyzeCtx(context.Background(), d, plan); err != nil {
					t.Fatal(err)
				}
				if err := sameReport(got, want); err != nil {
					t.Fatalf("plan %v: AnalyzeCtx: %v", plan != nil, err)
				}
				banks := loss.NewBanks(d)
				for sig, r := range d.SpareRoutes {
					want, err := refForRoute(d, banks, plan, sig, r)
					if err != nil {
						t.Fatal(err)
					}
					got, err := p.PriceRoute(plan, sig, r)
					if err != nil {
						t.Fatal(err)
					}
					if !sameLoss(got, want) {
						t.Fatalf("spare %v: %+v vs %+v", sig, *got, *want)
					}
					spares++
				}
				for _, sl := range want.Losses {
					if d.Routes[sl.Sig].ViaCSE {
						cse++
					}
					if d.Routes[sl.Sig].Kind == router.OnRing && sl.Crossings > 0 {
						crossed++
					}
				}
			}
		})
	}
	if cse == 0 || spares == 0 || crossed == 0 {
		t.Fatalf("fixtures cover %d CSE signals, %d spare routes, %d ring signals passing crossings; want all > 0", cse, spares, crossed)
	}
}

// BenchmarkAnalyze24 times one loss analysis of the 24-node irregular
// tree-PDN design (#wl 12): NewPricer plus Price.
func BenchmarkAnalyze24(b *testing.B) {
	res, err := core.Synthesize(noc.Irregular(24, 24, 24, 2.5, 3), core.Options{MaxWL: 12, WithPDN: true})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loss.AnalyzeCtx(ctx, res.Design, res.Plan); err != nil {
			b.Fatal(err)
		}
	}
}
