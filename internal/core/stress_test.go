package core

import (
	"math"
	"math/rand"
	"testing"

	"xring/internal/noc"
	"xring/internal/router"
)

// TestStressRandomInstances synthesizes a spread of random
// configurations and checks the structural invariants that must hold
// for every valid design, whatever the inputs.
func TestStressRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(20260705))
	ran := 0
	for trial := 0; trial < 40; trial++ {
		n := 6 + rng.Intn(9) // 6..14 nodes
		die := 10 + rng.Float64()*12
		seed := rng.Int63n(1000)
		net := noc.Irregular(n, die, die, 1.5, seed)
		opt := Options{
			MaxWL:            1 + rng.Intn(n),
			WithPDN:          rng.Intn(2) == 0,
			ShareWavelengths: rng.Intn(2) == 0,
			DisableShortcuts: rng.Intn(4) == 0,
			NoCSE:            rng.Intn(4) == 0,
		}
		res, err := Synthesize(net, opt)
		if err != nil {
			// Infeasible settings (tiny #wl on a full die) are allowed
			// to fail — but only with a clean error.
			continue
		}
		ran++
		d := res.Design

		// Invariant 1: the validator accepts the design.
		if err := d.Validate(); err != nil {
			t.Fatalf("trial %d (n=%d seed=%d %+v): %v", trial, n, seed, opt, err)
		}
		// Invariant 2: exactly the all-to-all traffic is routed.
		if len(d.Routes) != n*(n-1) {
			t.Fatalf("trial %d: %d routes for %d nodes", trial, len(d.Routes), n)
		}
		// Invariant 3: loss entries for every route; worst-case columns
		// consistent.
		if len(res.Loss.Losses) != len(d.Routes) {
			t.Fatalf("trial %d: loss entries mismatch", trial)
		}
		w := res.Loss.Signal(res.Loss.Worst)
		if w == nil || w.IL != res.Loss.WorstIL {
			t.Fatalf("trial %d: worst-signal bookkeeping", trial)
		}
		// Invariant 4: laser power covers every signal's requirement.
		for _, sl := range res.Loss.Losses {
			sig := sl.Sig
			req := sl.IL + sl.PDNLoss
			p := res.Loss.WavelengthPower[sl.WL]
			if math.Pow(10, (req+d.Par.ReceiverSensitivityDBm)/10) > p+1e-12 {
				t.Fatalf("trial %d: laser underpowered for %v", trial, sig)
			}
		}
		// Invariant 5: with a tree PDN, zero crossings and all openings.
		if opt.WithPDN && res.Plan != nil && res.Plan.Kind.String() == "tree" {
			if res.Plan.CrossingsAdded != 0 {
				t.Fatalf("trial %d: tree PDN crossings", trial)
			}
			for _, wgd := range d.Waveguides {
				if wgd.Opening < 0 {
					t.Fatalf("trial %d: missing opening", trial)
				}
			}
		}
		// Invariant 6: ring signals do not exceed the perimeter.
		for sig, r := range d.Routes {
			if r.Kind != router.OnRing {
				continue
			}
			l := d.ArcLen(sig.Src, sig.Dst, d.Waveguides[r.WG].Dir)
			if l <= 0 || l >= d.Perimeter() {
				t.Fatalf("trial %d: arc length %v out of range", trial, l)
			}
		}
	}
	if ran < 20 {
		t.Fatalf("only %d of 40 stress trials were feasible; generator too strict", ran)
	}
}

// TestStressSweepAgreesWithDirect re-synthesizes the sweep winner
// directly and expects identical metrics (determinism across paths).
func TestStressSweepAgreesWithDirect(t *testing.T) {
	net := noc.Floorplan8()
	best, wl, err := Sweep(net, Options{WithPDN: true}, MinPower, []int{2, 4, 6, 8})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Synthesize(net, Options{
		MaxWL:            wl,
		WithPDN:          true,
		ShareWavelengths: best.Opt.ShareWavelengths,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(direct.Loss.TotalPowerMW-best.Loss.TotalPowerMW) > 1e-12 {
		t.Fatalf("sweep %v vs direct %v", best.Loss.TotalPowerMW, direct.Loss.TotalPowerMW)
	}
	if direct.Loss.WorstIL != best.Loss.WorstIL {
		t.Fatal("worst IL differs between sweep and direct synthesis")
	}
}
