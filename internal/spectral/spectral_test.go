package spectral

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"xring/internal/core"
	"xring/internal/loss"
	"xring/internal/noc"
	"xring/internal/phys"
	"xring/internal/router"
)

func TestLorentzianProperties(t *testing.T) {
	m := MRR{FWHMGHz: 20}
	// Peak at zero detuning.
	if m.Drop(0) != 1 {
		t.Fatalf("Drop(0) = %v, want 1", m.Drop(0))
	}
	// Half power at half the FWHM.
	if math.Abs(m.Drop(10)-0.5) > 1e-12 {
		t.Fatalf("Drop(FWHM/2) = %v, want 0.5", m.Drop(10))
	}
	// Through + Drop = 1.
	f := func(det float64) bool {
		det = math.Mod(math.Abs(det), 1000)
		return math.Abs(m.Drop(det)+m.Through(det)-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Monotone decreasing in |detuning|.
	prev := 1.1
	for det := 0.0; det <= 500; det += 7 {
		d := m.Drop(det)
		if d >= prev {
			t.Fatalf("Drop not monotone at %v", det)
		}
		prev = d
	}
	// Symmetric via DetuningGHz.
	g := Grid{CenterTHz: 193.4, SpacingGHz: 100}
	if g.DetuningGHz(3, 5) != g.DetuningGHz(5, 3) {
		t.Fatal("detuning not symmetric")
	}
	if g.DetuningGHz(2, 2) != 0 {
		t.Fatal("zero detuning for equal channels")
	}
}

func TestMRRForQ(t *testing.T) {
	g := Grid{CenterTHz: 193.4, SpacingGHz: 100}
	m := MRRForQ(9670, g) // FWHM = 193400/9670 = 20 GHz
	if math.Abs(m.FWHMGHz-20) > 1e-9 {
		t.Fatalf("FWHM = %v, want 20", m.FWHMGHz)
	}
	// Higher Q -> narrower ring -> better adjacent isolation.
	lo := MRRForQ(3000, g).Drop(100)
	hi := MRRForQ(20000, g).Drop(100)
	if hi >= lo {
		t.Fatalf("higher Q should isolate better: %v vs %v", hi, lo)
	}
}

// manualDesign builds a one-waveguide design with two co-propagating
// channels on adjacent wavelengths.
func manualDesign(t *testing.T) (*router.Design, *loss.Report) {
	t.Helper()
	net := noc.Floorplan8()
	d, err := router.NewDesign(net, phys.Default(), []int{0, 1, 2, 3, 7, 6, 5, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1 := noc.Signal{Src: 0, Dst: 3}
	s2 := noc.Signal{Src: 1, Dst: 7} // passes node 3 (s1's receiver)
	d.Waveguides = []*router.Waveguide{{ID: 0, Dir: router.CW, Opening: -1, Channels: []router.Channel{
		{Sig: s1, WL: 0},
		{Sig: s2, WL: 1},
	}}}
	d.Routes[s1] = &router.Route{Sig: s1, Kind: router.OnRing, WG: 0, WL: 0}
	d.Routes[s2] = &router.Route{Sig: s2, Kind: router.OnRing, WG: 0, WL: 1}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	lrep, err := loss.AnalyzeCtx(context.Background(), d, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d, lrep
}

func TestAnalyzeAdjacentChannelLeak(t *testing.T) {
	d, lrep := manualDesign(t)
	rep, err := Analyze(d, lrep, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s1 := noc.Signal{Src: 0, Dst: 3}
	s2 := noc.Signal{Src: 1, Dst: 7}
	// s2 passes s1's receiver: s1 suffers adjacent-channel leakage.
	if rep.Signals[s1].Contributors != 1 {
		t.Fatalf("s1 contributors = %d, want 1", rep.Signals[s1].Contributors)
	}
	if rep.Signals[s1].InterChannelMW <= 0 {
		t.Fatal("s1 should collect inter-channel noise")
	}
	// s1 does NOT pass s2's receiver (node 7 is beyond node 3).
	if rep.Signals[s2].Contributors != 0 {
		t.Fatalf("s2 contributors = %d, want 0", rep.Signals[s2].Contributors)
	}
	if !math.IsInf(rep.Signals[s2].SNRdB, 1) {
		t.Fatal("s2 spectral SNR should be +Inf")
	}
	// SNR close to the single-contributor isolation (powers are similar).
	iso := -rep.AdjacentIsolationDB
	if math.Abs(rep.Signals[s1].SNRdB-iso) > 3 {
		t.Fatalf("s1 SNR %v should be within 3 dB of isolation %v", rep.Signals[s1].SNRdB, iso)
	}
	if rep.WorstSNR != rep.Signals[s1].SNRdB || rep.Worst != s1 {
		t.Fatal("worst bookkeeping wrong")
	}
}

func TestAnalyzeSpacingSweep(t *testing.T) {
	d, lrep := manualDesign(t)
	// Wider spacing -> better worst SNR.
	prev := -math.MaxFloat64
	for _, spacing := range []float64{25, 50, 100, 200, 400} {
		rep, err := Analyze(d, lrep, Params{Q: 9000, Grid: Grid{CenterTHz: 193.4, SpacingGHz: spacing}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.WorstSNR <= prev {
			t.Fatalf("worst SNR should improve with spacing: %v at %v GHz", rep.WorstSNR, spacing)
		}
		prev = rep.WorstSNR
	}
}

func TestMinSpacingForSNR(t *testing.T) {
	d, lrep := manualDesign(t)
	sp, err := MinSpacingForSNR(d, lrep, 9000, 25, 25, 1600)
	if err != nil {
		t.Fatal(err)
	}
	// The found spacing achieves the target; one step tighter does not.
	rep, err := Analyze(d, lrep, Params{Q: 9000, Grid: Grid{CenterTHz: 193.4, SpacingGHz: sp}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WorstSNR < 25 {
		t.Fatalf("spacing %v misses target: %v dB", sp, rep.WorstSNR)
	}
	if sp > 25 {
		tight, err := Analyze(d, lrep, Params{Q: 9000, Grid: Grid{CenterTHz: 193.4, SpacingGHz: sp - 25}})
		if err != nil {
			t.Fatal(err)
		}
		if tight.WorstSNR >= 25 {
			t.Fatalf("spacing %v is not minimal", sp)
		}
	}
	// Unreachable target errors.
	if _, err := MinSpacingForSNR(d, lrep, 9000, 500, 25, 100); err == nil {
		t.Fatal("want error for unreachable target")
	}
}

func TestAnalyzeFullSynthesizedDesign(t *testing.T) {
	net := noc.Floorplan16()
	res, err := core.Synthesize(net, core.Options{MaxWL: 14, WithPDN: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(res.Design, res.Loss, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Signals) != len(res.Design.Routes) {
		t.Fatalf("spectral entries %d != routes %d", len(rep.Signals), len(res.Design.Routes))
	}
	// A Q=9000 / 100 GHz design point keeps spectral SNR above ~12 dB
	// for the standard 16-node router (many co-propagating channels sum
	// their Lorentzian tails at the busiest receivers).
	if rep.WorstSNR < 12 {
		t.Fatalf("spectral worst SNR %v dB implausibly low", rep.WorstSNR)
	}
	if rep.AdjacentIsolationDB >= 0 || rep.AdjacentIsolationDB < -60 {
		t.Fatalf("adjacent isolation %v dB implausible", rep.AdjacentIsolationDB)
	}
}

func TestDriftZeroMatchesAnalyze(t *testing.T) {
	d, lrep := manualDesign(t)
	a, err := Analyze(d, lrep, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := AnalyzeWithDrift(d, lrep, DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.WorstSNR != b.WorstSNR {
		t.Fatalf("drift=0 mismatch: %v vs %v", a.WorstSNR, b.WorstSNR)
	}
}

func TestDriftDegradesSNR(t *testing.T) {
	d, lrep := manualDesign(t)
	p := DefaultParams()
	prev := math.Inf(1)
	for _, drift := range []float64{0, 5, 10, 20, 40} {
		rep, err := AnalyzeWithDrift(d, lrep, p, drift)
		if err != nil {
			t.Fatal(err)
		}
		if rep.WorstSNR >= prev && drift > 0 {
			t.Fatalf("SNR should degrade with drift: %v dB at %v GHz", rep.WorstSNR, drift)
		}
		prev = rep.WorstSNR
	}
	if _, err := AnalyzeWithDrift(d, lrep, p, -1); err == nil {
		t.Fatal("want error for negative drift")
	}
}

func TestMaxDriftForSNR(t *testing.T) {
	d, lrep := manualDesign(t)
	p := DefaultParams()
	base, err := Analyze(d, lrep, p)
	if err != nil {
		t.Fatal(err)
	}
	target := base.WorstSNR - 3 // allow a 3 dB penalty
	budget, err := MaxDriftForSNR(d, lrep, p, target, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if budget <= 0 {
		t.Fatalf("thermal budget %v should be positive", budget)
	}
	// One step beyond the budget violates the target.
	over, err := AnalyzeWithDrift(d, lrep, p, budget+1)
	if err != nil {
		t.Fatal(err)
	}
	if over.WorstSNR >= target {
		t.Fatalf("budget %v is not maximal", budget)
	}
	// An unreachable target errors.
	if _, err := MaxDriftForSNR(d, lrep, p, base.WorstSNR+10, 1, 100); err == nil {
		t.Fatal("want error for unreachable target")
	}
}

func TestFSRAndCapacity(t *testing.T) {
	// A 30 µm ring with n_g = 4.2: FSR ≈ 2379 GHz -> 23 channels at
	// 100 GHz.
	fsr := FSRGHz(30, 4.2)
	if math.Abs(fsr-2379.3) > 1 {
		t.Fatalf("FSR = %v GHz, want ~2379", fsr)
	}
	if got := MaxChannels(fsr, 100); got != 23 {
		t.Fatalf("MaxChannels = %d, want 23", got)
	}
	// Bigger rings have smaller FSRs.
	if FSRGHz(60, 4.2) >= fsr {
		t.Fatal("FSR must shrink with circumference")
	}
	if FSRGHz(0, 4.2) != 0 || MaxChannels(100, 0) != 0 {
		t.Fatal("degenerate inputs")
	}
}

func TestCheckWavelengthCapacity(t *testing.T) {
	net := noc.Floorplan16()
	res, err := core.Synthesize(net, core.Options{MaxWL: 14, WithPDN: true})
	if err != nil {
		t.Fatal(err)
	}
	// 30 µm rings hold 23 channels: a 14-wavelength design fits.
	capOK, err := CheckWavelengthCapacity(res.Design, DefaultParams(), 30, 4.2)
	if err != nil {
		t.Fatalf("capacity %d: %v", capOK, err)
	}
	// 200 µm rings hold only ~3 channels: the design must be rejected.
	if _, err := CheckWavelengthCapacity(res.Design, DefaultParams(), 200, 4.2); err == nil {
		t.Fatal("want capacity violation for large rings")
	}
}

func TestAnalyzeRejectsBadInput(t *testing.T) {
	d, lrep := manualDesign(t)
	if _, err := Analyze(d, nil, DefaultParams()); err == nil {
		t.Fatal("want error without loss report")
	}
	if _, err := Analyze(d, lrep, Params{}); err == nil {
		t.Fatal("want error for zero params")
	}
}

// TestDriftSummaryRepeatable pins the report summary across repeated
// calls on one design: MeanSNR is a float sum and Worst the first of
// tied minima, so both must come out of a fixed signal order.
func TestDriftSummaryRepeatable(t *testing.T) {
	res, err := core.Synthesize(noc.Floorplan16(), core.Options{MaxWL: 8, WithPDN: true})
	if err != nil {
		t.Fatal(err)
	}
	first, err := AnalyzeWithDrift(res.Design, res.Loss, DefaultParams(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		rep, err := AnalyzeWithDrift(res.Design, res.Loss, DefaultParams(), 5)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(rep.MeanSNR) != math.Float64bits(first.MeanSNR) || rep.Worst != first.Worst {
			t.Fatalf("call %d: MeanSNR %v worst %v, first call %v worst %v",
				i, rep.MeanSNR, rep.Worst, first.MeanSNR, first.Worst)
		}
	}
}
