package xtalk

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"xring/internal/geom"
	"xring/internal/loss"
	"xring/internal/mapping"
	"xring/internal/noc"
	"xring/internal/pdn"
	"xring/internal/phys"
	"xring/internal/ring"
	"xring/internal/router"
	"xring/internal/shortcut"
)

// grid8 builds a bare design on the 8-node floorplan.
func grid8(t *testing.T) *router.Design {
	t.Helper()
	net := noc.Floorplan8()
	d, err := router.NewDesign(net, phys.Default(), []int{0, 1, 2, 3, 7, 6, 5, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// addChannel registers a channel and its route.
func addChannel(d *router.Design, wg int, src, dst, wl int) {
	sig := noc.Signal{Src: src, Dst: dst}
	d.Waveguides[wg].Channels = append(d.Waveguides[wg].Channels, router.Channel{Sig: sig, WL: wl})
	d.Routes[sig] = &router.Route{Sig: sig, Kind: router.OnRing, WG: wg, WL: wl}
}

func analyze(t *testing.T, d *router.Design, plan *pdn.Plan) (*loss.Report, *Report) {
	t.Helper()
	return analyzeOpts(t, d, plan, Options{})
}

// analyzeLeaky runs the analysis in the terminator-less ablation mode,
// where receiver drop leakage counts as noise.
func analyzeLeaky(t *testing.T, d *router.Design, plan *pdn.Plan) (*loss.Report, *Report) {
	t.Helper()
	return analyzeOpts(t, d, plan, Options{IncludeDropLeakage: true})
}

func analyzeOpts(t *testing.T, d *router.Design, plan *pdn.Plan, opts Options) (*loss.Report, *Report) {
	t.Helper()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	lrep, err := loss.AnalyzeCtx(context.Background(), d, plan)
	if err != nil {
		t.Fatal(err)
	}
	xrep, err := AnalyzeOptsCtx(context.Background(), d, plan, lrep, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The cached-index engine must reproduce the parallel path bit for bit.
	erep, err := NewEngine(d).Analyze(context.Background(), plan, lrep, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameReport(erep, xrep); err != nil {
		t.Fatalf("engine vs AnalyzeOptsCtx: %v", err)
	}
	return lrep, xrep
}

// sameReport demands bit-identical crosstalk reports.
func sameReport(a, b *Report) error {
	if a.NumNoisy != b.NumNoisy || a.WorstSNRSignal != b.WorstSNRSignal ||
		math.Float64bits(a.WorstSNR) != math.Float64bits(b.WorstSNR) ||
		math.Float64bits(a.NoiseFreeFrac) != math.Float64bits(b.NoiseFreeFrac) {
		return fmt.Errorf("aggregates %d/%v/%v/%v vs %d/%v/%v/%v",
			a.NumNoisy, a.WorstSNRSignal, a.WorstSNR, a.NoiseFreeFrac,
			b.NumNoisy, b.WorstSNRSignal, b.WorstSNR, b.NoiseFreeFrac)
	}
	if len(a.NoiseMW) != len(b.NoiseMW) || len(a.SignalMW) != len(b.SignalMW) {
		return fmt.Errorf("map sizes %d/%d vs %d/%d", len(a.NoiseMW), len(a.SignalMW), len(b.NoiseMW), len(b.SignalMW))
	}
	for sig, v := range a.NoiseMW {
		if w, ok := b.NoiseMW[sig]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return fmt.Errorf("noise for %v: %v vs %v", sig, v, w)
		}
	}
	for sig, v := range a.SignalMW {
		if w, ok := b.SignalMW[sig]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return fmt.Errorf("signal power for %v: %v vs %v", sig, v, w)
		}
	}
	return nil
}

func TestDropLeakageReachesNextReceiver(t *testing.T) {
	d := grid8(t)
	d.Waveguides = []*router.Waveguide{{ID: 0, Dir: router.CW, Opening: -1}}
	addChannel(d, 0, 0, 3, 0) // leak source
	addChannel(d, 0, 3, 6, 0) // head-to-tail reuse: the victim
	lrep, xrep := analyzeLeaky(t, d, nil)

	victim := noc.Signal{Src: 3, Dst: 6}
	n := xrep.NoiseMW[victim]
	if n <= 0 {
		t.Fatal("head-to-tail reuse must leak noise into the next receiver")
	}
	// Leakage is symmetric: the victim's own drop leakage circulates on
	// and reaches the first signal's receiver too.
	if xrep.NumNoisy != 2 {
		t.Fatalf("NumNoisy = %d, want 2", xrep.NumNoisy)
	}
	// Closed-form check for the victim: SNR = noise chain − IL_victim,
	// where the noise chain is ILBeforeDrop(source) + |XtalkDrop| +
	// through(sender bank at 3) + prop(3->7->6) + drop + PD.
	par := d.Par
	src := lrep.Signals[noc.Signal{Src: 0, Dst: 3}]
	vic := lrep.Signals[victim]
	noiseDB := src.ILBeforeDrop - par.XtalkDropDB +
		1*par.ThroughDB + // sender bank at node 3
		4*par.PropagationDBPerMM + // 3->7->6 is 4 mm
		par.DropDB + par.PhotodetectorDB
	wantSNR := noiseDB - vic.IL
	gotSNR := 10 * math.Log10(xrep.SignalMW[victim]/n)
	if math.Abs(gotSNR-wantSNR) > 1e-6 {
		t.Fatalf("victim SNR = %v, want %v", gotSNR, wantSNR)
	}
	if xrep.WorstSNR > wantSNR+1e-9 {
		t.Fatalf("worst SNR %v should be at most the victim's %v", xrep.WorstSNR, wantSNR)
	}
}

func TestOpeningTerminatesLeakage(t *testing.T) {
	// Channels (0,3) and (6,5) on λ0: (0,3)'s leakage travels via node 7
	// toward the receiver at 5; an opening at 7 blocks exactly that
	// path. (6,5)'s own leakage reaches (0,3)'s receiver either way.
	sigA := noc.Signal{Src: 0, Dst: 3}
	sigB := noc.Signal{Src: 6, Dst: 5}

	d := grid8(t)
	d.Waveguides = []*router.Waveguide{{ID: 0, Dir: router.CW, Opening: 7}}
	addChannel(d, 0, 0, 3, 0)
	addChannel(d, 0, 6, 5, 0)
	_, xrep := analyzeLeaky(t, d, nil)
	if xrep.NoiseMW[sigB] != 0 {
		t.Fatalf("opening at 7 should block leakage into %v", sigB)
	}
	if xrep.NoiseMW[sigA] <= 0 {
		t.Fatalf("leakage from %v into %v is not blocked by the opening", sigB, sigA)
	}
	if xrep.NumNoisy != 1 {
		t.Fatalf("NumNoisy = %d, want 1", xrep.NumNoisy)
	}

	// Without the opening both directions of leakage land.
	d2 := grid8(t)
	d2.Waveguides = []*router.Waveguide{{ID: 0, Dir: router.CW, Opening: -1}}
	addChannel(d2, 0, 0, 3, 0)
	addChannel(d2, 0, 6, 5, 0)
	_, xrep2 := analyzeLeaky(t, d2, nil)
	if xrep2.NumNoisy != 2 {
		t.Fatalf("without opening NumNoisy = %d, want 2", xrep2.NumNoisy)
	}
	if math.IsInf(xrep2.WorstSNR, 1) {
		t.Fatal("noisy design must report a finite worst SNR")
	}
}

func TestSelfReabsorptionIsNotNoise(t *testing.T) {
	d := grid8(t)
	d.Waveguides = []*router.Waveguide{{ID: 0, Dir: router.CW, Opening: -1}}
	addChannel(d, 0, 0, 3, 0)
	_, xrep := analyzeLeaky(t, d, nil)
	if xrep.NumNoisy != 0 {
		t.Fatal("a signal's own circulating leakage must not count as noise")
	}
}

func TestDifferentWavelengthImmune(t *testing.T) {
	d := grid8(t)
	d.Waveguides = []*router.Waveguide{{ID: 0, Dir: router.CW, Opening: -1}}
	addChannel(d, 0, 0, 3, 0)
	addChannel(d, 0, 3, 6, 1) // different wavelength: immune
	_, xrep := analyzeLeaky(t, d, nil)
	if xrep.NumNoisy != 0 {
		t.Fatal("noise must only affect same-wavelength receivers")
	}
}

func TestPDNCrossingInjection(t *testing.T) {
	// Full pipeline with a comb PDN: crossings inject laser leakage.
	net := noc.Floorplan16()
	res, err := ring.Construct(net, ring.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := router.NewDesign(net, phys.Default(), res.Tour, res.Orders)
	if err != nil {
		t.Fatal(err)
	}
	if err := shortcut.Construct(d, shortcut.Options{Disable: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := mapping.Run(d, mapping.Options{MaxWL: 16, NoOpenings: true}); err != nil {
		t.Fatal(err)
	}
	plan, err := pdn.BuildComb(d)
	if err != nil {
		t.Fatal(err)
	}
	if plan.CrossingsAdded == 0 {
		t.Skip("instance produced a single-ring design with no crossings")
	}
	_, xrep := analyze(t, d, plan)
	if xrep.NumNoisy == 0 {
		t.Fatal("comb PDN crossings must inject noise")
	}
	if math.IsInf(xrep.WorstSNR, 1) || xrep.WorstSNR > 60 {
		t.Fatalf("implausible worst SNR %v for a comb PDN", xrep.WorstSNR)
	}
}

func TestXRingTreePDNNoiseHeadline(t *testing.T) {
	// The paper's headline: >98% of XRing signals suffer no first-order
	// noise (16- and 32-node networks with full PDN).
	for _, n := range []int{16, 32} {
		net, err := noc.FloorplanFor(n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ring.Construct(net, ring.Options{})
		if err != nil {
			t.Fatal(err)
		}
		d, err := router.NewDesign(net, phys.Default(), res.Tour, res.Orders)
		if err != nil {
			t.Fatal(err)
		}
		if err := shortcut.Construct(d, shortcut.Options{}); err != nil {
			t.Fatal(err)
		}
		if _, err := mapping.Run(d, mapping.Options{MaxWL: n - 2, AlignOpenings: true}); err != nil {
			t.Fatal(err)
		}
		plan, err := pdn.BuildTree(d)
		if err != nil {
			t.Fatal(err)
		}
		_, xrep := analyze(t, d, plan)
		if xrep.NoiseFreeFrac < 0.98 {
			t.Fatalf("n=%d: noise-free fraction %.3f < 0.98", n, xrep.NoiseFreeFrac)
		}
	}
}

func TestCSEWavelengthRuleMatters(t *testing.T) {
	// Manual merged pair: with the paper's wavelength rule (λ0/λ1) the
	// crossing leaks onto off-resonance receivers (no noise); an
	// ablation giving both shortcuts λ0 shows noise.
	build := func(wlPartner int) *Report {
		pos := []geom.Point{
			{X: 1, Y: 0}, {X: 3, Y: 0},
			{X: 4, Y: 1}, {X: 4, Y: 3},
			{X: 3, Y: 4}, {X: 1, Y: 4},
			{X: 0, Y: 3}, {X: 0, Y: 1},
		}
		net := &noc.Network{DieW: 4, DieH: 4}
		for i, p := range pos {
			net.Nodes = append(net.Nodes, noc.Node{ID: i, Name: "n", Pos: p})
		}
		orders := []geom.LOrder{
			geom.VH, geom.HV, geom.VH, geom.VH, geom.VH, geom.HV, geom.VH, geom.VH,
		}
		d, err := router.NewDesign(net, phys.Default(), []int{0, 1, 2, 3, 4, 5, 6, 7}, orders)
		if err != nil {
			t.Fatal(err)
		}
		s1 := &router.Shortcut{A: 1, B: 4, Partner: 1, PathAB: geom.Polyline{pos[1], pos[4]}}
		s2 := &router.Shortcut{A: 2, B: 7, Partner: 0, PathAB: geom.Polyline{pos[2], pos[7]}}
		d.Shortcuts = []*router.Shortcut{s1, s2}
		sig1 := noc.Signal{Src: 1, Dst: 4}
		sig2 := noc.Signal{Src: 2, Dst: 7}
		s1.Channels = []router.ShortcutChannel{{Sig: sig1, WL: 0}}
		s2.Channels = []router.ShortcutChannel{{Sig: sig2, WL: wlPartner}}
		d.Routes[sig1] = &router.Route{Sig: sig1, Kind: router.OnShortcut, SC: 0, WL: 0}
		d.Routes[sig2] = &router.Route{Sig: sig2, Kind: router.OnShortcut, SC: 1, WL: wlPartner}
		_, xrep := analyze(t, d, nil)
		return xrep
	}
	if rep := build(1); rep.NumNoisy != 0 {
		t.Fatalf("distinct wavelengths: NumNoisy = %d, want 0", rep.NumNoisy)
	}
	if rep := build(0); rep.NumNoisy == 0 {
		t.Fatal("equal wavelengths on crossed shortcuts must show noise")
	}
}

func TestAnalyzeRequiresLossReport(t *testing.T) {
	d := grid8(t)
	if _, err := AnalyzeCtx(context.Background(), d, nil, nil); err == nil {
		t.Fatal("want error without loss report")
	}
	if _, err := NewEngine(d).Analyze(context.Background(), nil, nil, Options{}); err == nil {
		t.Fatal("engine: want error without loss report")
	}
}

// TestEngineAnalyzeCancelled asserts a cancelled context stops the
// engine's analysis with the context error instead of a report.
func TestEngineAnalyzeCancelled(t *testing.T) {
	d, plan, lrep := synthesizeForTest(t, noc.Floorplan8())
	e := NewEngine(d)
	if _, err := e.Analyze(context.Background(), plan, lrep, Options{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opts := range []Options{{}, {IncludeDropLeakage: true}} {
		rep, err := e.Analyze(ctx, plan, lrep, opts)
		if !errors.Is(err, context.Canceled) || rep != nil {
			t.Fatalf("opts %+v: cancelled analysis returned %v, %v", opts, rep, err)
		}
	}
}

func TestSignalPowerPositive(t *testing.T) {
	d := grid8(t)
	d.Waveguides = []*router.Waveguide{{ID: 0, Dir: router.CW, Opening: -1}}
	addChannel(d, 0, 0, 3, 0)
	addChannel(d, 0, 1, 7, 1)
	_, xrep := analyze(t, d, nil)
	for sig, p := range xrep.SignalMW {
		if p <= 0 {
			t.Fatalf("signal %v has non-positive detector power", sig)
		}
	}
	if len(xrep.SignalMW) != 2 {
		t.Fatal("detector power for every signal")
	}
}
