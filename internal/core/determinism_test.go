package core

import (
	"context"
	"math/rand"
	"testing"

	"xring/internal/noc"
	"xring/internal/parallel"
)

// sameWinner fails the test unless a and b are the same sweep winner:
// identical candidate identity and identical analysis numbers.
func sameWinner(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Opt.MaxWL != b.Opt.MaxWL || a.Opt.ShareWavelengths != b.Opt.ShareWavelengths {
		t.Fatalf("%s: winners differ: (#wl=%d share=%v) vs (#wl=%d share=%v)",
			label, a.Opt.MaxWL, a.Opt.ShareWavelengths, b.Opt.MaxWL, b.Opt.ShareWavelengths)
	}
	if a.Loss.TotalPowerMW != b.Loss.TotalPowerMW {
		t.Fatalf("%s: power differs: %v vs %v", label, a.Loss.TotalPowerMW, b.Loss.TotalPowerMW)
	}
	if a.Loss.WorstIL != b.Loss.WorstIL {
		t.Fatalf("%s: worst IL differs: %v vs %v", label, a.Loss.WorstIL, b.Loss.WorstIL)
	}
	if a.Xtalk.WorstSNR != b.Xtalk.WorstSNR {
		t.Fatalf("%s: worst SNR differs: %v vs %v", label, a.Xtalk.WorstSNR, b.Xtalk.WorstSNR)
	}
}

// TestSweepParallelMatchesSerial is the tentpole's acceptance check:
// the parallel sweep must return the identical winner as the serial
// sweep, on every tested floorplan and objective, for any worker count.
func TestSweepParallelMatchesSerial(t *testing.T) {
	defer parallel.SetWorkers(0)
	nets := map[string]*noc.Network{
		"fp8":  noc.Floorplan8(),
		"fp16": noc.Floorplan16(),
	}
	for name, net := range nets {
		for _, objective := range []Objective{MinWorstIL, MinPower, MaxSNR} {
			parallel.SetWorkers(1)
			serial, wlS, err := NewEngine(nil).SweepCtx(context.Background(), net, Options{WithPDN: true}, objective, nil)
			if err != nil {
				t.Fatalf("%s/%v serial: %v", name, objective, err)
			}
			for _, workers := range []int{2, 8} {
				parallel.SetWorkers(workers)
				par, wlP, err := NewEngine(nil).SweepCtx(context.Background(), net, Options{WithPDN: true}, objective, nil)
				if err != nil {
					t.Fatalf("%s/%v parallel(%d): %v", name, objective, workers, err)
				}
				if wlS != wlP {
					t.Fatalf("%s/%v: serial picked #wl=%d, parallel(%d) picked #wl=%d",
						name, objective, wlS, workers, wlP)
				}
				sameWinner(t, name+"/"+objective.String(), serial, par)
			}
		}
	}
}

// TestSweepTieBreakShuffledCandidates pins satellite (a): the winner
// must not depend on the order of the caller's candidate list, and
// duplicates must be harmless.
func TestSweepTieBreakShuffledCandidates(t *testing.T) {
	defer parallel.SetWorkers(0)
	net := noc.Floorplan8()
	canonical := []int{1, 2, 3, 4, 5, 6, 7, 8}
	parallel.SetWorkers(1)
	ref, refWL, err := Sweep(net, Options{WithPDN: true}, MinPower, canonical)
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetWorkers(0)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]int(nil), canonical...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		// Inject a duplicate to exercise deduplication.
		shuffled = append(shuffled, shuffled[0])
		got, gotWL, err := Sweep(net, Options{WithPDN: true}, MinPower, shuffled)
		if err != nil {
			t.Fatal(err)
		}
		if gotWL != refWL {
			t.Fatalf("trial %d: shuffled candidates %v picked #wl=%d, want %d", trial, shuffled, gotWL, refWL)
		}
		sameWinner(t, "shuffled", ref, got)
	}
}

// TestSweepTieBreakPrefersLowerPower constructs two results with equal
// scores and checks the documented chain: power, then #wl, then fresh
// wavelengths first.
func TestSweepTieBreakPrefersLowerPower(t *testing.T) {
	net := noc.Floorplan8()
	res, err := Synthesize(net, Options{WithPDN: true, MaxWL: 4})
	if err != nil {
		t.Fatal(err)
	}
	lower := *res
	lowerLoss := *res.Loss
	lowerLoss.TotalPowerMW = res.Loss.TotalPowerMW / 2
	lower.Loss = &lowerLoss

	// Same MinWorstIL score, lower power: lower must win either way.
	if !betterResult(MinWorstIL, &lower, res) {
		t.Fatal("equal score: lower power must win")
	}
	if betterResult(MinWorstIL, res, &lower) {
		t.Fatal("equal score: higher power must lose")
	}

	// Equal score and power: lower #wl wins.
	lowWL := *res
	lowWL.Opt.MaxWL = res.Opt.MaxWL - 1
	if !betterResult(MinWorstIL, &lowWL, res) || betterResult(MinWorstIL, res, &lowWL) {
		t.Fatal("equal score and power: lower #wl must win")
	}

	// Equal score, power and #wl: fresh wavelengths beat sharing.
	share := *res
	share.Opt.ShareWavelengths = true
	if !betterResult(MinWorstIL, res, &share) || betterResult(MinWorstIL, &share, res) {
		t.Fatal("full tie: fresh wavelength policy must win")
	}
}

// TestRingCacheHit checks that a second synthesis of the same floorplan
// reuses the Step-1 result (pointer identity of the cached ring).
func TestRingCacheHit(t *testing.T) {
	e := NewEngine(nil)
	net := noc.Floorplan8()
	a, err := e.SynthesizeCtx(context.Background(), net, Options{MaxWL: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.SynthesizeCtx(context.Background(), net, Options{MaxWL: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.Ring != b.Ring {
		t.Fatal("expected the second synthesis to reuse the cached Step-1 result")
	}
	// A different geometry must miss.
	other := noc.Irregular(8, 12, 12, 1.5, 4)
	c, err := Synthesize(other, Options{MaxWL: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.Ring == a.Ring {
		t.Fatal("different floorplan must not hit the cache")
	}
}
