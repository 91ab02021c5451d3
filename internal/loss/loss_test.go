package loss

import (
	"context"
	"math"
	"testing"

	"xring/internal/mapping"
	"xring/internal/noc"
	"xring/internal/pdn"
	"xring/internal/phys"
	"xring/internal/ring"
	"xring/internal/router"
	"xring/internal/shortcut"
)

// synth builds a full XRing design (Steps 1-3) for a network.
func synth(t *testing.T, net *noc.Network, withShortcuts, withOpenings bool) *router.Design {
	t.Helper()
	res, err := ring.Construct(net, ring.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := router.NewDesign(net, phys.Default(), res.Tour, res.Orders)
	if err != nil {
		t.Fatal(err)
	}
	if err := shortcut.Construct(d, shortcut.Options{Disable: !withShortcuts}); err != nil {
		t.Fatal(err)
	}
	if _, err := mapping.Run(d, mapping.Options{MaxWL: net.N(), NoOpenings: !withOpenings, AlignOpenings: true}); err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAnalyzeRequiresRoutes(t *testing.T) {
	net := noc.Floorplan8()
	res, err := ring.Construct(net, ring.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := router.NewDesign(net, phys.Default(), res.Tour, res.Orders)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeCtx(context.Background(), d, nil); err == nil {
		t.Fatal("want error for unmapped design")
	}
}

func TestAnalyzeGrid8NoPDN(t *testing.T) {
	d := synth(t, noc.Floorplan8(), true, false)
	rep, err := AnalyzeCtx(context.Background(), d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Signals) != 56 {
		t.Fatalf("analyzed %d signals, want 56", len(rep.Signals))
	}
	par := d.Par
	for sig, sl := range rep.Signals {
		if sl.IL <= 0 {
			t.Fatalf("signal %v has non-positive IL", sig)
		}
		// IL must include at least one drop + photodetector.
		if sl.IL < par.DropDB+par.PhotodetectorDB {
			t.Fatalf("signal %v IL=%v below floor", sig, sl.IL)
		}
		if sl.PDNLoss != 0 {
			t.Fatalf("no-PDN analysis must have zero PDN loss")
		}
		// No crossings exist in an XRing ring without a comb PDN.
		if sl.Crossings != 0 && d.Routes[sig].Kind == router.OnRing {
			t.Fatalf("ring signal %v passes %d crossings, want 0", sig, sl.Crossings)
		}
	}
	if rep.WorstIL <= 0 || rep.WorstLen <= 0 {
		t.Fatalf("worst-case columns: il=%v L=%v", rep.WorstIL, rep.WorstLen)
	}
	// Worst signal's breakdown matches the report columns.
	w := rep.Signals[rep.Worst]
	if w.IL != rep.WorstIL || w.PathLen != rep.WorstLen || w.Crossings != rep.WorstCrossings {
		t.Fatal("worst-signal columns inconsistent")
	}
}

func TestShortcutsImproveSupportedSignals(t *testing.T) {
	// On a regular grid every lattice point hosts a node, so chords for
	// the ring-opposite pairs are blocked and il_w barely moves; the
	// supported signals themselves, however, must improve strictly.
	dNo := synth(t, noc.Floorplan8(), false, false)
	dYes := synth(t, noc.Floorplan8(), true, false)
	repNo, err := AnalyzeCtx(context.Background(), dNo, nil)
	if err != nil {
		t.Fatal(err)
	}
	repYes, err := AnalyzeCtx(context.Background(), dYes, nil)
	if err != nil {
		t.Fatal(err)
	}
	sig := noc.Signal{Src: 1, Dst: 5}
	if r := dYes.Routes[sig]; r.Kind != router.OnShortcut {
		t.Fatalf("1->5 should ride a shortcut")
	}
	sl := repYes.Signals[sig]
	if math.Abs(sl.PathLen-2) > 1e-9 {
		t.Fatalf("shortcut path length = %v, want 2", sl.PathLen)
	}
	if sl.IL >= repNo.Signals[sig].IL {
		t.Fatalf("shortcut should cut 1->5 IL: %v >= %v", sl.IL, repNo.Signals[sig].IL)
	}
	// And il_w must not regress beyond one through-loss of packing noise.
	if repYes.WorstIL > repNo.WorstIL+2*dNo.Par.ThroughDB {
		t.Fatalf("il_w regressed with shortcuts: %v vs %v", repYes.WorstIL, repNo.WorstIL)
	}
}

func TestShortcutsReduceWorstILIrregular(t *testing.T) {
	// On irregular floorplans (the paper's motivating case, Fig. 2),
	// physically-close ring-opposite nodes get shortcuts and il_w drops.
	improved := false
	for _, seed := range []int64{7, 8, 11, 14, 22, 25} {
		net := noc.Irregular(10, 14, 14, 1.5, seed)
		dNo := synth(t, net, false, false)
		dYes := synth(t, net, true, false)
		repNo, err := AnalyzeCtx(context.Background(), dNo, nil)
		if err != nil {
			t.Fatal(err)
		}
		repYes, err := AnalyzeCtx(context.Background(), dYes, nil)
		if err != nil {
			t.Fatal(err)
		}
		if repYes.WorstIL < repNo.WorstIL-1e-9 {
			improved = true
		}
	}
	if !improved {
		t.Fatal("shortcuts reduced il_w on none of the irregular instances")
	}
}

func TestRingLossFormula(t *testing.T) {
	// Hand-check one signal on a manually built design.
	net := noc.Floorplan8()
	d, err := router.NewDesign(net, phys.Default(), []int{0, 1, 2, 3, 7, 6, 5, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1 := noc.Signal{Src: 0, Dst: 2}
	s2 := noc.Signal{Src: 1, Dst: 3}
	d.Waveguides = []*router.Waveguide{{ID: 0, Dir: router.CW, Opening: -1, Channels: []router.Channel{
		{Sig: s1, WL: 0},
		{Sig: s2, WL: 1},
	}}}
	d.Routes[s1] = &router.Route{Sig: s1, Kind: router.OnRing, WG: 0, WL: 0}
	d.Routes[s2] = &router.Route{Sig: s2, Kind: router.OnRing, WG: 0, WL: 1}
	rep, err := AnalyzeCtx(context.Background(), d, nil)
	if err != nil {
		t.Fatal(err)
	}
	par := d.Par
	// Signal 0->2 travels 4mm, passes node 1 (one sender MRR for s2,
	// no receivers), no other senders at node 0, no other receivers at 2.
	sl := rep.Signals[s1]
	wantThroughs := 1
	if sl.Throughs != wantThroughs {
		t.Fatalf("throughs = %d, want %d", sl.Throughs, wantThroughs)
	}
	want := 4*par.PropagationDBPerMM + float64(wantThroughs)*par.ThroughDB +
		par.DropDB + par.PhotodetectorDB
	if math.Abs(sl.IL-want) > 1e-9 {
		t.Fatalf("IL = %v, want %v", sl.IL, want)
	}
	// Signal 1->3 passes node 2 (one receiver MRR for s1).
	sl2 := rep.Signals[s2]
	if sl2.Throughs != 1 {
		t.Fatalf("s2 throughs = %d, want 1", sl2.Throughs)
	}
}

func TestCrossingLossCounted(t *testing.T) {
	net := noc.Floorplan8()
	d, err := router.NewDesign(net, phys.Default(), []int{0, 1, 2, 3, 7, 6, 5, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sig := noc.Signal{Src: 0, Dst: 3}
	d.Waveguides = []*router.Waveguide{{ID: 0, Dir: router.CW, Opening: -1,
		Channels:  []router.Channel{{Sig: sig, WL: 0}},
		Crossings: []router.Crossing{{Pos: 1, AtNode: 0, Source: "pdn"}, {Pos: 3, AtNode: 1, Source: "pdn"}},
	}}
	d.Routes[sig] = &router.Route{Sig: sig, Kind: router.OnRing, WG: 0, WL: 0}
	rep, err := AnalyzeCtx(context.Background(), d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Signals[sig].Crossings != 2 {
		t.Fatalf("crossings = %d, want 2", rep.Signals[sig].Crossings)
	}
}

func TestPDNLossIncluded(t *testing.T) {
	d := synth(t, noc.Floorplan8(), true, true)
	plan, err := pdn.BuildTree(d)
	if err != nil {
		t.Fatal(err)
	}
	repNoPDN, err := AnalyzeCtx(context.Background(), d, nil)
	if err != nil {
		t.Fatal(err)
	}
	repPDN, err := AnalyzeCtx(context.Background(), d, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Signal-path IL (il_w*) is the same; power grows with PDN losses.
	if math.Abs(repNoPDN.WorstIL-repPDN.WorstIL) > 1e-9 {
		t.Fatalf("il_w* changed with PDN: %v vs %v", repNoPDN.WorstIL, repPDN.WorstIL)
	}
	if repPDN.TotalPowerMW <= repNoPDN.TotalPowerMW {
		t.Fatalf("PDN must increase required laser power: %v <= %v",
			repPDN.TotalPowerMW, repNoPDN.TotalPowerMW)
	}
	for sig, sl := range repPDN.Signals {
		if sl.PDNLoss <= 0 {
			t.Fatalf("signal %v has no PDN loss", sig)
		}
	}
}

func TestCombPDNCostsMoreThanTree(t *testing.T) {
	// Same mapping, two PDN styles: the comb's crossings make both the
	// worst IL (crossing loss on signals) and power worse.
	dTree := synth(t, noc.Floorplan16(), true, true)
	planTree, err := pdn.BuildTree(dTree)
	if err != nil {
		t.Fatal(err)
	}
	repTree, err := AnalyzeCtx(context.Background(), dTree, planTree)
	if err != nil {
		t.Fatal(err)
	}

	dComb := synth(t, noc.Floorplan16(), true, false)
	planComb, err := pdn.BuildComb(dComb)
	if err != nil {
		t.Fatal(err)
	}
	repComb, err := AnalyzeCtx(context.Background(), dComb, planComb)
	if err != nil {
		t.Fatal(err)
	}
	if repComb.WorstIL <= repTree.WorstIL {
		t.Fatalf("comb PDN should raise il_w: %v <= %v", repComb.WorstIL, repTree.WorstIL)
	}
	if repComb.WorstCrossings == 0 {
		t.Fatal("comb worst signal should pass crossings")
	}
	if repTree.WorstCrossings != 0 {
		t.Fatal("tree worst signal passes crossings")
	}
	if repComb.TotalPowerMW <= repTree.TotalPowerMW {
		t.Fatalf("comb power should exceed tree power: %v <= %v",
			repComb.TotalPowerMW, repTree.TotalPowerMW)
	}
}

func TestWavelengthPowerDominatedByWorstSignal(t *testing.T) {
	d := synth(t, noc.Floorplan8(), false, false)
	rep, err := AnalyzeCtx(context.Background(), d, nil)
	if err != nil {
		t.Fatal(err)
	}
	for sig, sl := range rep.Signals {
		p := phys.LaserPowerMW(sl.IL+sl.PDNLoss, d.Par.ReceiverSensitivityDBm)
		if p > rep.WavelengthPower[sl.WL]+1e-15 {
			t.Fatalf("wavelength power below requirement of %v", sig)
		}
	}
	sum := 0.0
	for _, p := range rep.WavelengthPower {
		sum += p
	}
	if math.Abs(sum-rep.TotalPowerMW) > 1e-12 {
		t.Fatal("total power != sum of per-wavelength lasers")
	}
	// One laser per wavelength.
	if len(rep.WavelengthPower) != rep.WavelengthCount {
		t.Fatalf("lasers %d != wavelengths %d", len(rep.WavelengthPower), rep.WavelengthCount)
	}
}

func TestWavelengthCountColumn(t *testing.T) {
	d := synth(t, noc.Floorplan8(), false, false)
	rep, err := AnalyzeCtx(context.Background(), d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WavelengthCount != d.WavelengthsUsed() {
		t.Fatal("wavelength count mismatch")
	}
	if rep.WavelengthCount < 1 || rep.WavelengthCount > 8 {
		t.Fatalf("implausible #wl = %d", rep.WavelengthCount)
	}
}

func TestCSERouteLoss(t *testing.T) {
	// The known CSE instance: CSE-routed signals pay two drops (the CSE
	// MRR and the receiver) and report the through-crossing path length.
	net := noc.Irregular(10, 30, 30, 3, 8)
	d := func() *router.Design {
		res, err := ring.Construct(net, ring.Options{})
		if err != nil {
			t.Fatal(err)
		}
		dd, err := router.NewDesign(net, phys.Default(), res.Tour, res.Orders)
		if err != nil {
			t.Fatal(err)
		}
		if err := shortcut.Construct(dd, shortcut.Options{}); err != nil {
			t.Fatal(err)
		}
		if _, err := mapping.Run(dd, mapping.Options{MaxWL: 10, NoOpenings: true}); err != nil {
			t.Fatal(err)
		}
		return dd
	}()
	rep, err := AnalyzeCtx(context.Background(), d, nil)
	if err != nil {
		t.Fatal(err)
	}
	cse := 0
	for sig, r := range d.Routes {
		if r.Kind != router.OnShortcut || !r.ViaCSE {
			continue
		}
		cse++
		sl := rep.Signals[sig]
		if sl.Drops != 2 {
			t.Fatalf("CSE signal %v drops = %d, want 2", sig, sl.Drops)
		}
		if sl.PathLen <= 0 {
			t.Fatalf("CSE signal %v path length %v", sig, sl.PathLen)
		}
		// CSE route still beats the best ring route in IL (the selection
		// criterion pays for the extra drop).
		best := math.Min(d.ArcLen(sig.Src, sig.Dst, router.CW), d.ArcLen(sig.Src, sig.Dst, router.CCW))
		ringIL := best*d.Par.PropagationDBPerMM + d.Par.DropDB + d.Par.PhotodetectorDB
		if sl.IL >= ringIL+2*d.Par.ThroughDB+4*d.Par.BendDB+0.2 {
			t.Fatalf("CSE signal %v IL %v not competitive with ring %v", sig, sl.IL, ringIL)
		}
	}
	if cse == 0 {
		t.Fatal("expected CSE-routed signals in this instance")
	}
	// Direct signals on merged shortcuts pass the CSE crossing.
	for sig, r := range d.Routes {
		if r.Kind == router.OnShortcut && !r.ViaCSE && d.Shortcuts[r.SC].Partner != -1 {
			if rep.Signals[sig].Crossings != 1 {
				t.Fatalf("direct merged-shortcut signal %v crossings = %d, want 1",
					sig, rep.Signals[sig].Crossings)
			}
		}
	}
}

// TestRingThroughsAllocatesNothing guards the per-signal loss walk: the
// through count of a ring signal must not touch the heap.
func TestRingThroughsAllocatesNothing(t *testing.T) {
	d := synth(t, noc.Floorplan16(), true, true)
	banks := NewBanks(d)
	var sig noc.Signal
	var r *router.Route
	for _, s := range CanonicalSignals(d) {
		rr := d.Routes[s]
		if rr.Kind != router.OnRing {
			continue
		}
		gaps := 0
		d.ForEachGapNode(s.Src, s.Dst, d.Waveguides[rr.WG].Dir, func(int) { gaps++ })
		if gaps > 0 {
			sig, r = s, rr
			break
		}
	}
	if r == nil {
		t.Fatal("no ring-routed signal passes a node")
	}
	sink := 0
	allocs := testing.AllocsPerRun(100, func() { sink += RingThroughs(d, banks, sig, r) })
	if allocs != 0 {
		t.Fatalf("RingThroughs: %v allocs, want 0 (%d)", allocs, sink)
	}
}
