package oring

import (
	"context"
	"testing"

	"xring/internal/loss"
	"xring/internal/noc"
	"xring/internal/phys"
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
