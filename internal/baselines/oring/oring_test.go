package oring

import (
	"context"
	"testing"

	"xring/internal/loss"
	"xring/internal/noc"
	"xring/internal/phys"
	"xring/internal/router"
)

func TestSynthesizeValid(t *testing.T) {
	net := noc.Floorplan16()
	res, err := Synthesize(net, phys.Default(), 12, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Design.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(res.Design.Routes) != 240 {
		t.Fatalf("routes = %d", len(res.Design.Routes))
	}
	if len(res.Design.Shortcuts) != 0 {
		t.Fatal("ORing has no shortcuts")
	}
	if res.Plan == nil || res.Plan.CrossingsAdded == 0 {
		t.Fatal("ORing's comb PDN should cross ring waveguides")
	}
}

func TestShortestDirectionKept(t *testing.T) {
	// Unlike ORNoC, ORing maps every signal in its shortest direction.
	net := noc.Floorplan16()
	res, err := Synthesize(net, phys.Default(), 4, false)
	if err != nil {
		t.Fatal(err)
	}
	for sig, r := range res.Design.Routes {
		dir := res.Design.Waveguides[r.WG].Dir
		if res.Design.ArcLen(sig.Src, sig.Dst, dir) >
			res.Design.ArcLen(sig.Src, sig.Dst, 1-dir)+1e-9 {
			t.Fatalf("signal %v detoured in an ORing design", sig)
		}
	}
}

func TestNoPDNVariant(t *testing.T) {
	net := noc.Floorplan8()
	res, err := Synthesize(net, phys.Default(), 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != nil {
		t.Fatal("plan should be nil without PDN")
	}
	lr, err := loss.AnalyzeCtx(context.Background(), res.Design, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lr.WorstCrossings != 0 {
		t.Fatal("without PDN a ring router has no crossings")
	}
}

func TestSynthesizeErrors(t *testing.T) {
	small := noc.Grid(2, 1, 2, 1)
	if _, err := Synthesize(small, phys.Default(), 4, false); err == nil {
		t.Fatal("want error for 2-node network")
	}
	if _, err := Synthesize(noc.Floorplan8(), phys.Default(), 0, false); err == nil {
		t.Fatal("want error for #wl = 0")
	}
}

func TestORNoCSynthesizeErrors(t *testing.T) {
	// Too-small network: ring construction fails.
	small := noc.Grid(2, 1, 2, 1)
	if _, err := SynthesizeORNoC(small, phys.Default(), 4, false); err == nil {
		t.Fatal("want error for 2-node network")
	}
	// Zero wavelength budget: mapping fails.
	if _, err := SynthesizeORNoC(noc.Floorplan8(), phys.Default(), 0, false); err == nil {
		t.Fatal("want error for #wl = 0")
	}
}

func TestORNoCSynthesizeValid(t *testing.T) {
	net := noc.Floorplan8()
	res, err := SynthesizeORNoC(net, phys.Default(), 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Design.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(res.Design.Routes) != 56 {
		t.Fatalf("routes = %d", len(res.Design.Routes))
	}
	if len(res.Design.Shortcuts) != 0 {
		t.Fatal("ORNoC has no shortcuts")
	}
	for _, w := range res.Design.Waveguides {
		if w.Opening != -1 {
			t.Fatal("ORNoC has no ring openings")
		}
	}
	if res.Plan == nil || res.Plan.Kind.String() != "comb" {
		t.Fatal("ORNoC uses the comb PDN")
	}
}

func TestAggressiveReuseUsesFewerWaveguides(t *testing.T) {
	// ORNoC's defining property versus ORing-style mapping: with the
	// same #wl budget it needs no more (usually fewer) waveguides.
	net := noc.Floorplan16()
	on, err := SynthesizeORNoC(net, phys.Default(), 8, false)
	if err != nil {
		t.Fatal(err)
	}
	// All signals fit; reuse means waveguide count stays modest.
	perDir := map[router.Direction]int{}
	for _, w := range on.Design.Waveguides {
		perDir[w.Dir]++
	}
	if len(on.Design.Waveguides) > 2*16 {
		t.Fatalf("implausibly many waveguides: %d", len(on.Design.Waveguides))
	}
}

func TestDetoursAppear(t *testing.T) {
	// With a tight budget some signals must ride the longer direction.
	net := noc.Floorplan16()
	res, err := SynthesizeORNoC(net, phys.Default(), 4, false)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := loss.AnalyzeCtx(context.Background(), res.Design, nil)
	if err != nil {
		t.Fatal(err)
	}
	detours := 0
	for sig, r := range res.Design.Routes {
		dir := res.Design.Waveguides[r.WG].Dir
		if res.Design.ArcLen(sig.Src, sig.Dst, dir) >
			res.Design.ArcLen(sig.Src, sig.Dst, 1-dir)+1e-9 {
			detours++
		}
	}
	if detours == 0 {
		t.Fatal("tight ORNoC budgets should produce detoured signals")
	}
	if lr.WorstLen <= res.Design.Perimeter()/2 {
		t.Fatalf("worst path %v should exceed half the perimeter %v",
			lr.WorstLen, res.Design.Perimeter()/2)
	}
}
