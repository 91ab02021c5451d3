package xtalk

import (
	"context"
	"testing"

	"xring/internal/loss"
	"xring/internal/mapping"
	"xring/internal/noc"
	"xring/internal/parallel"
	"xring/internal/pdn"
	"xring/internal/phys"
	"xring/internal/ring"
	"xring/internal/router"
	"xring/internal/shortcut"
)

// synthesizeForTest runs the full flow (Steps 1-4 + loss analysis) on a
// network, without importing core (which imports this package).
func synthesizeForTest(t *testing.T, net *noc.Network) (*router.Design, *pdn.Plan, *loss.Report) {
	t.Helper()
	rres, err := ring.Construct(net, ring.Options{})
	if err != nil {
		t.Fatal(err)
	}
	par := phys.Default()
	d, err := router.NewDesign(net, par, rres.Tour, rres.Orders)
	if err != nil {
		t.Fatal(err)
	}
	if err := shortcut.Construct(d, shortcut.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := mapping.Run(d, mapping.Options{
		MaxWL:         net.N(),
		AlignOpenings: true,
		PreferSharing: true, // reuse chains exercise drop leakage
		MaxWaveguides: mapping.WaveguideCap(net, par),
	}); err != nil {
		t.Fatal(err)
	}
	plan, err := pdn.BuildTree(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	lrep, err := loss.AnalyzeCtx(context.Background(), d, plan)
	if err != nil {
		t.Fatal(err)
	}
	return d, plan, lrep
}

// TestAnalyzeWorkerInvariant checks that the sharded noise propagation
// produces bit-identical reports for any worker count: shard-local
// accumulators are merged in waveguide order, so the FP addition order
// never depends on scheduling.
func TestAnalyzeWorkerInvariant(t *testing.T) {
	defer parallel.SetWorkers(0)
	nets := []*noc.Network{noc.Floorplan8(), noc.Floorplan16()}
	for _, net := range nets {
		d, plan, lrep := synthesizeForTest(t, net)

		parallel.SetWorkers(1)
		ref, err := AnalyzeOptsCtx(context.Background(), d, plan, lrep, Options{IncludeDropLeakage: true})
		if err != nil {
			t.Fatal(err)
		}
		// The serial cached-index engine walks in the merge order.
		erep, err := NewEngine(d).Analyze(context.Background(), plan, lrep, Options{IncludeDropLeakage: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := sameReport(erep, ref); err != nil {
			t.Fatalf("n=%d: engine vs parallel path: %v", net.N(), err)
		}
		for _, workers := range []int{2, 8} {
			parallel.SetWorkers(workers)
			got, err := AnalyzeOptsCtx(context.Background(), d, plan, lrep, Options{IncludeDropLeakage: true})
			if err != nil {
				t.Fatal(err)
			}
			if got.WorstSNR != ref.WorstSNR || got.WorstSNRSignal != ref.WorstSNRSignal {
				t.Fatalf("n=%d workers=%d: worst SNR %v@%v, want %v@%v", net.N(), workers,
					got.WorstSNR, got.WorstSNRSignal, ref.WorstSNR, ref.WorstSNRSignal)
			}
			if got.NumNoisy != ref.NumNoisy {
				t.Fatalf("n=%d workers=%d: %d noisy signals, want %d", net.N(), workers, got.NumNoisy, ref.NumNoisy)
			}
			if len(got.NoiseMW) != len(ref.NoiseMW) {
				t.Fatalf("n=%d workers=%d: noise slice size %d, want %d", net.N(), workers, len(got.NoiseMW), len(ref.NoiseMW))
			}
			for i, want := range ref.NoiseMW {
				if got.NoiseMW[i] != want {
					t.Fatalf("n=%d workers=%d: noise for %v is %v, want %v", net.N(), workers, lrep.Sigs[i], got.NoiseMW[i], want)
				}
			}
			for i, want := range ref.SignalMW {
				if got.SignalMW[i] != want {
					t.Fatalf("n=%d workers=%d: signal power for %v is %v, want %v", net.N(), workers, lrep.Sigs[i], got.SignalMW[i], want)
				}
			}
		}
	}
}
