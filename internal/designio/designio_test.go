package designio

import (
	"context"
	"math"
	"strings"
	"testing"

	"xring/internal/core"
	"xring/internal/loss"
	"xring/internal/noc"
	"xring/internal/pdn"
)

func TestRoundTrip(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opt  core.Options
	}{
		{"grid8-pdn", core.Options{MaxWL: 8, WithPDN: true}},
		{"grid16-nopdn", core.Options{MaxWL: 14}},
		{"grid8-comb", core.Options{MaxWL: 6, WithPDN: true, NoOpenings: true}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			net := noc.Floorplan8()
			if strings.Contains(cfg.name, "16") {
				net = noc.Floorplan16()
			}
			res, err := core.Synthesize(net, cfg.opt)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := Save(res.Design)
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(blob)
			if err != nil {
				t.Fatal(err)
			}

			// Structural equality.
			if loaded.N() != res.Design.N() ||
				len(loaded.Waveguides) != len(res.Design.Waveguides) ||
				len(loaded.Shortcuts) != len(res.Design.Shortcuts) ||
				len(loaded.Routes) != len(res.Design.Routes) ||
				loaded.MaxWL != res.Design.MaxWL {
				t.Fatal("structure changed across round trip")
			}
			if math.Abs(loaded.Perimeter()-res.Design.Perimeter()) > 1e-12 {
				t.Fatal("perimeter changed")
			}

			// Analysis equality: the loss report must be identical.
			var plan *pdn.Plan
			if cfg.opt.WithPDN {
				if cfg.opt.NoOpenings {
					plan, err = pdn.BuildComb(loaded)
				} else {
					plan, err = pdn.BuildTree(loaded)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			lr, err := loss.AnalyzeCtx(context.Background(), loaded, plan)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(lr.WorstIL-res.Loss.WorstIL) > 1e-9 {
				t.Fatalf("worst IL changed: %v vs %v", lr.WorstIL, res.Loss.WorstIL)
			}
			if math.Abs(lr.TotalPowerMW-res.Loss.TotalPowerMW) > 1e-9 {
				t.Fatalf("power changed: %v vs %v", lr.TotalPowerMW, res.Loss.TotalPowerMW)
			}
			for sig, sl := range res.Loss.Signals {
				if math.Abs(lr.Signals[sig].IL-sl.IL) > 1e-9 {
					t.Fatalf("signal %v IL changed", sig)
				}
			}
		})
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load([]byte("not json")); err == nil {
		t.Fatal("want error for invalid JSON")
	}
	if _, err := Load([]byte(`{"version": 99}`)); err == nil {
		t.Fatal("want error for unknown version")
	}
	// Valid JSON, inconsistent design: a route pointing nowhere.
	net := noc.Floorplan8()
	res, err := core.Synthesize(net, core.Options{MaxWL: 8})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Save(res.Design)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := strings.Replace(string(blob), `"tour": [`, `"tour": [99, `, 1)
	if _, err := Load([]byte(corrupted)); err == nil {
		t.Fatal("want error for corrupted tour")
	}
}

func TestSaveIsDeterministicEnough(t *testing.T) {
	// Routes serialize from a map, so byte equality is not guaranteed;
	// loading two saves of the same design must agree though.
	net := noc.Floorplan8()
	res, err := core.Synthesize(net, core.Options{MaxWL: 8})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := Save(res.Design)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Save(res.Design)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := Load(b1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Load(b2)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Perimeter() != d2.Perimeter() || len(d1.Routes) != len(d2.Routes) {
		t.Fatal("two saves disagree")
	}
}
