package xtalk

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"xring/internal/baselines/oring"
	"xring/internal/loss"
	"xring/internal/mapping"
	"xring/internal/noc"
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

// ornocComb synthesizes the ORNoC baseline with its comb PDN, whose
// feeds cross the ring waveguides and inject laser leakage.
func ornocComb(tb testing.TB, net *noc.Network, maxWL int) (*router.Design, *pdn.Plan, *loss.Report) {
	tb.Helper()
	res, err := oring.SynthesizeORNoC(net, phys.Default(), maxWL, true)
	if err != nil {
		tb.Fatal(err)
	}
	if res.Plan.CrossingsAdded == 0 {
		tb.Fatal("comb fixture has no PDN crossings")
	}
	lrep, err := loss.AnalyzeCtx(context.Background(), res.Design, res.Plan)
	if err != nil {
		tb.Fatal(err)
	}
	return res.Design, res.Plan, lrep
}

// TestAnalyzeWorkerInvariant checks that one Engine shared by 8
// goroutines returns reports bit-identical to a serial call: every call
// builds its own lanes and noise buffers, and sums a waveguide's noise
// into the report in waveguide order. The comb design exercises the
// lanes on every waveguide; the tree designs with drop leakage exercise
// reuse chains.
func TestAnalyzeWorkerInvariant(t *testing.T) {
	type fixture struct {
		name string
		opts Options
		d    *router.Design
		plan *pdn.Plan
		lrep *loss.Report
	}
	var fixtures []fixture
	for _, net := range []*noc.Network{noc.Floorplan8(), noc.Floorplan16()} {
		d, plan, lrep := synthesizeForTest(t, net)
		fixtures = append(fixtures, fixture{fmt.Sprintf("tree%d", net.N()), Options{IncludeDropLeakage: true}, d, plan, lrep})
	}
	d, plan, lrep := ornocComb(t, noc.Floorplan16(), 8)
	fixtures = append(fixtures, fixture{"ornoc-comb16", Options{}, d, plan, lrep})

	const workers = 8
	for _, f := range fixtures {
		ref, err := NewEngine(f.d).Analyze(context.Background(), f.plan, f.lrep, f.opts)
		if err != nil {
			t.Fatal(err)
		}
		if f.plan.CrossingsAdded > 0 && ref.NumNoisy == 0 {
			t.Fatalf("%s: comb crossings injected no noise", f.name)
		}
		e := NewEngine(f.d)
		reps := make([]*Report, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for g := range reps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reps[g], errs[g] = e.Analyze(context.Background(), f.plan, f.lrep, f.opts)
			}()
		}
		wg.Wait()
		for g, rep := range reps {
			if errs[g] != nil {
				t.Fatal(errs[g])
			}
			if err := sameReport(rep, ref); err != nil {
				t.Fatalf("%s: goroutine %d: %v", f.name, g, err)
			}
		}
	}
}

// BenchmarkAnalyzeComb32 times one crosstalk analysis of the 32-node
// ORNoC baseline at #wl 16 with its comb PDN, the heaviest walk in
// Table II.
func BenchmarkAnalyzeComb32(b *testing.B) {
	d, plan, lrep := ornocComb(b, noc.Floorplan32(), 16)
	b.ResetTimer()
	for range b.N {
		if _, err := AnalyzeCtx(context.Background(), d, plan, lrep); err != nil {
			b.Fatal(err)
		}
	}
}
