package linkbudget

import (
	"context"
	"math"
	"testing"

	"xring/internal/baselines/oring"
	"xring/internal/core"
	"xring/internal/loss"
	"xring/internal/noc"
	"xring/internal/phys"
	"xring/internal/spectral"
	"xring/internal/xtalk"
)

func synth(t *testing.T, opt core.Options) *core.Result {
	t.Helper()
	res, err := core.Synthesize(noc.Floorplan16(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWorstMarginIsZeroByConstruction(t *testing.T) {
	// The paper's laser rule sizes each wavelength for its worst signal,
	// so the worst margin must be exactly 0 dB.
	res := synth(t, core.Options{MaxWL: 14, WithPDN: true})
	rep, err := Analyze(res.Design, res.Loss, res.Xtalk, nil, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.WorstMarginDB) > 1e-9 {
		t.Fatalf("worst margin = %v dB, want 0", rep.WorstMarginDB)
	}
	for sig, l := range rep.Links {
		if l.MarginDB < -1e-9 {
			t.Fatalf("signal %v has negative margin %v", sig, l.MarginDB)
		}
	}
}

func TestNoiseFreeLinksHaveZeroBER(t *testing.T) {
	res := synth(t, core.Options{MaxWL: 14, WithPDN: true})
	rep, err := Analyze(res.Design, res.Loss, res.Xtalk, nil, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	// The standard XRing configuration is noise-free under the paper's
	// model: every BER must be 0 and every Q infinite.
	if rep.WorstBER != 0 || rep.LinksBelow != 0 {
		t.Fatalf("noise-free design has BER %v, %d failing links", rep.WorstBER, rep.LinksBelow)
	}
	for _, l := range rep.Links {
		if !math.IsInf(l.QFactor, 1) || l.BER != 0 {
			t.Fatalf("link %v not noise-free: %+v", l.Sig, l)
		}
	}
}

func TestSpectralNoiseRaisesBER(t *testing.T) {
	res := synth(t, core.Options{MaxWL: 14, WithPDN: true})
	srep, err := spectral.Analyze(res.Design, res.Loss, spectral.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	without, err := Analyze(res.Design, res.Loss, res.Xtalk, nil, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	with, err := Analyze(res.Design, res.Loss, res.Xtalk, srep, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if with.WorstBER <= without.WorstBER {
		t.Fatalf("spectral noise must raise the worst BER: %v vs %v",
			with.WorstBER, without.WorstBER)
	}
	// Q ~= 13 at SNR ~22 dB -> BER astronomically small but non-zero.
	if with.WorstBER <= 0 {
		t.Fatal("expected non-zero BER with spectral noise")
	}
}

func TestBERClosedForm(t *testing.T) {
	// Verify the erfc plumbing with a hand-built report: SNR such that
	// Q = 7 gives BER ~ 1.28e-12.
	res := synth(t, core.Options{MaxWL: 14, WithPDN: true})
	// Pick any signal and inject synthetic noise with Q = 7.
	i := 0
	sig := res.Loss.Sigs[i]
	x := &xtalk.Report{
		NoiseMW:  make([]float64, len(res.Xtalk.SignalMW)),
		SignalMW: res.Xtalk.SignalMW,
	}
	q := 7.0
	x.NoiseMW[i] = res.Xtalk.SignalMW[i] / (q * q)
	rep, err := Analyze(res.Design, res.Loss, x, nil, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	l := rep.Links[sig]
	wantBER := 0.5 * math.Erfc(7/math.Sqrt2)
	if math.Abs(l.QFactor-7) > 1e-9 {
		t.Fatalf("Q = %v, want 7", l.QFactor)
	}
	if math.Abs(l.BER-wantBER)/wantBER > 1e-9 {
		t.Fatalf("BER = %v, want %v", l.BER, wantBER)
	}
	if wantBER > 2e-12 || wantBER < 1e-13 {
		t.Fatalf("sanity: BER(Q=7) = %v out of expected range", wantBER)
	}
	// BER above a 1e-13 target counts as failing.
	strict, err := Analyze(res.Design, res.Loss, x, nil, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	if strict.LinksBelow != 1 {
		t.Fatalf("LinksBelow = %d, want 1", strict.LinksBelow)
	}
}

func TestAnalyzeRejectsBadInput(t *testing.T) {
	res := synth(t, core.Options{MaxWL: 14})
	if _, err := Analyze(res.Design, nil, res.Xtalk, nil, 1e-12); err == nil {
		t.Fatal("want error without loss report")
	}
	if _, err := Analyze(res.Design, res.Loss, nil, nil, 1e-12); err == nil {
		t.Fatal("want error without xtalk report")
	}
	if _, err := Analyze(res.Design, res.Loss, res.Xtalk, nil, 0); err == nil {
		t.Fatal("want error for zero target BER")
	}
}

func TestBaselineBERWorseThanXRing(t *testing.T) {
	// ORNoC's comb PDN noise pushes many links above any realistic BER
	// target; XRing stays clean.
	net := noc.Floorplan16()
	xr := synth(t, core.Options{MaxWL: 14, WithPDN: true})
	xrRep, err := Analyze(xr.Design, xr.Loss, xr.Xtalk, nil, 1e-12)
	if err != nil {
		t.Fatal(err)
	}

	// Build the ORNoC baseline.
	on, err := oring.SynthesizeORNoC(net, phys.Default(), 16, true)
	if err != nil {
		t.Fatal(err)
	}
	onLoss, err := loss.AnalyzeCtx(context.Background(), on.Design, on.Plan)
	if err != nil {
		t.Fatal(err)
	}
	onX, err := xtalk.AnalyzeCtx(context.Background(), on.Design, on.Plan, onLoss)
	if err != nil {
		t.Fatal(err)
	}
	onRep, err := Analyze(on.Design, onLoss, onX, nil, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if onRep.WorstBER <= xrRep.WorstBER {
		t.Fatalf("ORNoC worst BER %v should exceed XRing %v", onRep.WorstBER, xrRep.WorstBER)
	}
	if onRep.LinksBelow == 0 {
		t.Fatal("ORNoC should have failing links at BER 1e-12")
	}
	if xrRep.LinksBelow != 0 {
		t.Fatal("XRing should have no failing links")
	}
}

// TestAnalyzeCanonicalOrder pins the worst-BER pick to the loss
// report's canonical signal order on the noisy ORNoC baseline: repeated
// calls agree bit for bit, and a tie goes to the first signal.
func TestAnalyzeCanonicalOrder(t *testing.T) {
	on, err := oring.SynthesizeORNoC(noc.Floorplan16(), phys.Default(), 16, true)
	if err != nil {
		t.Fatal(err)
	}
	lrep, err := loss.AnalyzeCtx(context.Background(), on.Design, on.Plan)
	if err != nil {
		t.Fatal(err)
	}
	xrep, err := xtalk.AnalyzeCtx(context.Background(), on.Design, on.Plan, lrep)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Analyze(on.Design, lrep, xrep, nil, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if ref.WorstBER <= 0 {
		t.Fatal("fixture: the ORNoC baseline should have noisy links")
	}
	for _, sig := range lrep.Sigs {
		if ref.Links[sig].BER == ref.WorstBER {
			if ref.WorstBERSignal != sig {
				t.Fatalf("worst BER signal %v, want the first worst %v", ref.WorstBERSignal, sig)
			}
			break
		}
	}
	for call := 0; call < 50; call++ {
		rep, err := Analyze(on.Design, lrep, xrep, nil, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(rep.WorstBER) != math.Float64bits(ref.WorstBER) ||
			rep.WorstBERSignal != ref.WorstBERSignal || rep.LinksBelow != ref.LinksBelow {
			t.Fatalf("call %d: worst BER %v at %v (%d below), first call %v at %v (%d below)", call,
				rep.WorstBER, rep.WorstBERSignal, rep.LinksBelow, ref.WorstBER, ref.WorstBERSignal, ref.LinksBelow)
		}
	}
}
