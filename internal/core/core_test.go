package core

import (
	"context"
	"math"
	"testing"
	"time"

	"xring/internal/baselines/oring"
	"xring/internal/loss"
	"xring/internal/noc"
	"xring/internal/phys"
	"xring/internal/router"
	"xring/internal/xtalk"
)

func TestSynthesizeFullFlow8(t *testing.T) {
	net := noc.Floorplan8()
	res, err := Synthesize(net, Options{MaxWL: 8, WithPDN: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Design.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || res.Plan.CrossingsAdded != 0 {
		t.Fatal("XRing PDN must exist and be crossing-free")
	}
	if len(res.Design.Routes) != 56 {
		t.Fatalf("routes = %d", len(res.Design.Routes))
	}
	if res.Loss == nil || res.Xtalk == nil {
		t.Fatal("analyses missing")
	}
	if res.SynthTime <= 0 || res.SynthTime > 10*time.Second {
		t.Fatalf("implausible synthesis time %v", res.SynthTime)
	}
	// The paper's computational-efficiency claim: a 16-node router with
	// PDN synthesizes within one second. Our 8-node case must be far
	// under that.
	if res.SynthTime > time.Second {
		t.Fatalf("synthesis took %v, want < 1s", res.SynthTime)
	}
}

func TestSynthesizeWithoutPDN(t *testing.T) {
	net := noc.Floorplan8()
	res, err := Synthesize(net, Options{MaxWL: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != nil {
		t.Fatal("no PDN requested")
	}
	for _, w := range res.Design.Waveguides {
		if w.Opening != -1 {
			t.Fatal("Table I configuration must not open waveguides")
		}
	}
}

func TestAblationFlags(t *testing.T) {
	net := noc.Floorplan8()
	noSC, err := Synthesize(net, Options{MaxWL: 8, DisableShortcuts: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(noSC.Design.Shortcuts) != 0 {
		t.Fatal("DisableShortcuts leaked shortcuts")
	}
	combPDN, err := Synthesize(net, Options{MaxWL: 8, WithPDN: true, NoOpenings: true})
	if err != nil {
		t.Fatal(err)
	}
	if combPDN.Plan == nil || combPDN.Plan.Kind.String() != "comb" {
		t.Fatal("NoOpenings+WithPDN should fall back to the comb PDN")
	}
}

func TestSweepObjectives(t *testing.T) {
	net := noc.Floorplan8()
	minP, wlP, err := Sweep(net, Options{WithPDN: true}, MinPower, []int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	maxS, wlS, err := Sweep(net, Options{WithPDN: true}, MaxSNR, []int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if wlP < 2 || wlP > 8 || wlS < 2 || wlS > 8 {
		t.Fatalf("selected #wl out of candidate range: %d %d", wlP, wlS)
	}
	// The min-power pick must not have more power than the max-SNR pick.
	if minP.Loss.TotalPowerMW > maxS.Loss.TotalPowerMW+1e-12 {
		t.Fatalf("min-power sweep picked higher power (%v) than max-SNR pick (%v)",
			minP.Loss.TotalPowerMW, maxS.Loss.TotalPowerMW)
	}
	// The max-SNR pick must not have worse SNR than the min-power pick.
	if maxS.Xtalk.WorstSNR < minP.Xtalk.WorstSNR-1e-9 {
		t.Fatalf("max-SNR sweep picked lower SNR")
	}
}

func TestSweepMinIL(t *testing.T) {
	net := noc.Floorplan8()
	best, _, err := Sweep(net, Options{}, MinWorstIL, []int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	// Verify dominance over all candidates re-synthesized directly.
	for _, wl := range []int{1, 2, 4, 8} {
		r, err := Synthesize(net, Options{MaxWL: wl})
		if err != nil {
			continue
		}
		if r.Loss.WorstIL < best.Loss.WorstIL-1e-9 {
			t.Fatalf("sweep missed better #wl=%d (%v < %v)", wl, r.Loss.WorstIL, best.Loss.WorstIL)
		}
	}
}

// TestPaperShapeTable2 checks the defining Table II orderings on the
// 16-node network: XRing beats ORNoC on worst IL, power, crossings on
// the worst path, noisy-signal count and worst SNR.
func TestPaperShapeTable2(t *testing.T) {
	net := noc.Floorplan16()
	xr, _, err := Sweep(net, Options{WithPDN: true}, MinPower, nil)
	if err != nil {
		t.Fatal(err)
	}
	var onBest *oring.Result
	var onLoss *loss.Report
	var onX *xtalk.Report
	bestP := math.Inf(1)
	for _, wl := range []int{8, 12, 14, 16} {
		on, err := oring.SynthesizeORNoC(net, phys.Default(), wl, true)
		if err != nil {
			continue
		}
		lr, err := loss.AnalyzeCtx(context.Background(), on.Design, on.Plan)
		if err != nil {
			continue
		}
		if lr.TotalPowerMW < bestP {
			bestP = lr.TotalPowerMW
			onBest = on
			onLoss = lr
			xr2, err := xtalk.AnalyzeCtx(context.Background(), on.Design, on.Plan, lr)
			if err != nil {
				t.Fatal(err)
			}
			onX = xr2
		}
	}
	if onBest == nil {
		t.Fatal("no feasible ORNoC setting")
	}
	if xr.Loss.WorstIL >= onLoss.WorstIL {
		t.Fatalf("XRing il_w* %v should beat ORNoC %v", xr.Loss.WorstIL, onLoss.WorstIL)
	}
	if xr.Loss.TotalPowerMW >= onLoss.TotalPowerMW {
		t.Fatalf("XRing power %v should beat ORNoC %v", xr.Loss.TotalPowerMW, onLoss.TotalPowerMW)
	}
	if xr.Loss.WorstCrossings != 0 {
		t.Fatalf("XRing C = %d, want 0", xr.Loss.WorstCrossings)
	}
	if onLoss.WorstCrossings == 0 {
		t.Fatal("ORNoC worst path should pass crossings")
	}
	if xr.Xtalk.NumNoisy >= onX.NumNoisy {
		t.Fatalf("XRing #s %d should be far below ORNoC %d", xr.Xtalk.NumNoisy, onX.NumNoisy)
	}
	if xr.Xtalk.NoiseFreeFrac < 0.98 {
		t.Fatalf("XRing noise-free fraction %.3f < 0.98", xr.Xtalk.NoiseFreeFrac)
	}
	if !math.IsInf(xr.Xtalk.WorstSNR, 1) && xr.Xtalk.WorstSNR <= onX.WorstSNR {
		t.Fatalf("XRing SNR_w %v should beat ORNoC %v", xr.Xtalk.WorstSNR, onX.WorstSNR)
	}
}

// TestPaperShapeTable3 checks the Table III orderings against ORing on
// the 16-node network.
func TestPaperShapeTable3(t *testing.T) {
	net := noc.Floorplan16()
	xr, _, err := Sweep(net, Options{WithPDN: true}, MinPower, []int{10, 12, 14, 16})
	if err != nil {
		t.Fatal(err)
	}
	var bestLoss *loss.Report
	var bestX *xtalk.Report
	bestP := math.Inf(1)
	for _, wl := range []int{10, 12, 14, 16} {
		or, err := oring.Synthesize(net, phys.Default(), wl, true)
		if err != nil {
			continue
		}
		lr, err := loss.AnalyzeCtx(context.Background(), or.Design, or.Plan)
		if err != nil {
			continue
		}
		if lr.TotalPowerMW < bestP {
			bestP = lr.TotalPowerMW
			bestLoss = lr
			bestX, err = xtalk.AnalyzeCtx(context.Background(), or.Design, or.Plan, lr)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if bestLoss == nil {
		t.Fatal("no feasible ORing setting")
	}
	if xr.Loss.TotalPowerMW >= bestLoss.TotalPowerMW {
		t.Fatalf("XRing power %v should beat ORing %v", xr.Loss.TotalPowerMW, bestLoss.TotalPowerMW)
	}
	if xr.Xtalk.NumNoisy >= bestX.NumNoisy {
		t.Fatalf("XRing #s %d should beat ORing %d", xr.Xtalk.NumNoisy, bestX.NumNoisy)
	}
	// ORing's comb PDN leaves the majority of signals noisy (87% in the
	// paper); require at least half here.
	if frac := float64(bestX.NumNoisy) / 240; frac < 0.5 {
		t.Fatalf("ORing noisy fraction %.2f implausibly low", frac)
	}
}

func TestObjectiveStrings(t *testing.T) {
	if MinWorstIL.String() != "min-il" || MinPower.String() != "min-power" || MaxSNR.String() != "max-snr" {
		t.Fatal("Objective.String")
	}
}

func TestSynthesize32(t *testing.T) {
	net := noc.Floorplan32()
	res, err := Synthesize(net, Options{MaxWL: 30, WithPDN: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Design.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(res.Design.Routes) != 32*31 {
		t.Fatalf("routes = %d", len(res.Design.Routes))
	}
	if res.Xtalk.NoiseFreeFrac < 0.98 {
		t.Fatalf("32-node noise-free fraction %.3f", res.Xtalk.NoiseFreeFrac)
	}
}

func TestCustomTraffic(t *testing.T) {
	net := noc.Floorplan16()
	// Hotspot pattern: everyone talks to node 0 and back.
	var traffic []noc.Signal
	for i := 1; i < 16; i++ {
		traffic = append(traffic, noc.Signal{Src: i, Dst: 0}, noc.Signal{Src: 0, Dst: i})
	}
	res, err := Synthesize(net, Options{MaxWL: 8, WithPDN: true, Traffic: traffic})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Design.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(res.Design.Routes) != 30 {
		t.Fatalf("routes = %d, want 30", len(res.Design.Routes))
	}
	for _, sig := range traffic {
		if _, ok := res.Design.Routes[sig]; !ok {
			t.Fatalf("signal %v unrouted", sig)
		}
	}
	// A hotspot needs far fewer resources than all-to-all.
	full, err := Synthesize(net, Options{MaxWL: 8, WithPDN: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Design.Waveguides) >= len(full.Design.Waveguides) {
		t.Fatalf("hotspot should need fewer waveguides: %d vs %d",
			len(res.Design.Waveguides), len(full.Design.Waveguides))
	}
	if res.Loss.TotalPowerMW >= full.Loss.TotalPowerMW {
		t.Fatal("hotspot should need less laser power than all-to-all")
	}
}

func TestCustomTrafficRejectsBadInput(t *testing.T) {
	net := noc.Floorplan8()
	if _, err := Synthesize(net, Options{MaxWL: 8,
		Traffic: []noc.Signal{{Src: 1, Dst: 1}}}); err == nil {
		t.Fatal("want error for self-signal traffic")
	}
	if _, err := Synthesize(net, Options{MaxWL: 8,
		Traffic: []noc.Signal{{Src: 1, Dst: 2}, {Src: 1, Dst: 2}}}); err == nil {
		t.Fatal("want error for duplicate traffic")
	}
	for _, sig := range []noc.Signal{{Src: 1, Dst: 8}, {Src: -1, Dst: 2}} {
		if _, err := Synthesize(net, Options{MaxWL: 8, Traffic: []noc.Signal{sig}}); err == nil {
			t.Fatalf("want error for traffic signal %v outside the 8 nodes", sig)
		}
	}
}

func TestNeighborTrafficUsesShortArcs(t *testing.T) {
	net := noc.Floorplan8()
	// Ring-neighbour traffic only.
	res0, err := Synthesize(net, Options{MaxWL: 8})
	if err != nil {
		t.Fatal(err)
	}
	tour := res0.Design.Tour
	var traffic []noc.Signal
	for i := range tour {
		traffic = append(traffic, noc.Signal{Src: tour[i], Dst: tour[(i+1)%len(tour)]})
	}
	res, err := Synthesize(net, Options{MaxWL: 8, Traffic: traffic})
	if err != nil {
		t.Fatal(err)
	}
	// Every signal rides a single tour edge: worst path = max edge.
	maxEdge := 0.0
	for i := range tour {
		l := res.Design.ArcLen(tour[i], tour[(i+1)%len(tour)], router.CW)
		if l > maxEdge {
			maxEdge = l
		}
	}
	if res.Loss.WorstLen > maxEdge+1e-9 {
		t.Fatalf("neighbour traffic worst path %v exceeds max edge %v",
			res.Loss.WorstLen, maxEdge)
	}
}

func TestDirectionsBalanced(t *testing.T) {
	net := noc.Floorplan8()
	res, err := Synthesize(net, Options{MaxWL: 8})
	if err != nil {
		t.Fatal(err)
	}
	cw := len(res.Design.WaveguidesByDir(router.CW))
	ccw := len(res.Design.WaveguidesByDir(router.CCW))
	if cw == 0 || ccw == 0 {
		t.Fatalf("both directions should be used: cw=%d ccw=%d", cw, ccw)
	}
}
