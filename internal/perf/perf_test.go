package perf

import (
	"math"
	"testing"

	"xring/internal/core"
	"xring/internal/noc"
)

func synth16(t *testing.T) *core.Result {
	t.Helper()
	res, err := core.Synthesize(noc.Floorplan16(), core.Options{MaxWL: 14, WithPDN: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAnalyzeLatencies(t *testing.T) {
	res := synth16(t)
	p := DefaultParams()
	rep, err := Analyze(res.Design, res.Loss, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Links) != 240 {
		t.Fatalf("links = %d", len(rep.Links))
	}
	for sig, l := range rep.Links {
		// Latency = path/speed + overhead; check one closed form.
		want := l.PathMM*(p.GroupIndex/0.299792458) + p.ConversionPS
		if math.Abs(l.LatencyPS-want) > 1e-9 {
			t.Fatalf("latency of %v = %v, want %v", sig, l.LatencyPS, want)
		}
		if l.LatencyPS <= p.ConversionPS {
			t.Fatalf("latency of %v below overhead", sig)
		}
	}
	if rep.WorstLatencyPS < rep.MeanLatencyPS {
		t.Fatal("worst < mean")
	}
	if rep.Links[rep.Worst].LatencyPS != rep.WorstLatencyPS {
		t.Fatal("worst bookkeeping wrong")
	}
	// ~16 node ring: worst path ~20-30 mm -> latency a few hundred ps.
	if rep.WorstLatencyPS < 200 || rep.WorstLatencyPS > 2000 {
		t.Fatalf("implausible worst latency %v ps", rep.WorstLatencyPS)
	}
}

func TestAggregateAndBisection(t *testing.T) {
	res := synth16(t)
	rep, err := Analyze(res.Design, res.Loss, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if rep.AggregateGbps != 2400 {
		t.Fatalf("aggregate = %v Gb/s, want 2400", rep.AggregateGbps)
	}
	// All-to-all on a 16-ring: any contiguous bisection is crossed by
	// 2*8*8 = 128 signals.
	if rep.BisectionGbps != 1280 {
		t.Fatalf("bisection = %v Gb/s, want 1280", rep.BisectionGbps)
	}
}

func TestCustomTrafficBisection(t *testing.T) {
	// Neighbour-only traffic: a contiguous bisection is crossed by
	// exactly 2 signals (the two cut edges).
	res0 := synth16(t)
	tour := res0.Design.Tour
	var traffic []noc.Signal
	for i := range tour {
		traffic = append(traffic, noc.Signal{Src: tour[i], Dst: tour[(i+1)%len(tour)]})
	}
	res, err := core.Synthesize(noc.Floorplan16(), core.Options{MaxWL: 4, Traffic: traffic})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(res.Design, res.Loss, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if rep.BisectionGbps != 20 {
		t.Fatalf("neighbour-traffic bisection = %v Gb/s, want 20", rep.BisectionGbps)
	}
}

func TestAnalyzeRejectsBadInput(t *testing.T) {
	res := synth16(t)
	if _, err := Analyze(res.Design, nil, DefaultParams()); err == nil {
		t.Fatal("want error without loss report")
	}
	if _, err := Analyze(res.Design, res.Loss, Params{}); err == nil {
		t.Fatal("want error for zero params")
	}
}

func TestFasterRingsAreFaster(t *testing.T) {
	res := synth16(t)
	slow, err := Analyze(res.Design, res.Loss, Params{GroupIndex: 4.2, LineRateGbps: 10, ConversionPS: 100})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Analyze(res.Design, res.Loss, Params{GroupIndex: 2.0, LineRateGbps: 10, ConversionPS: 100})
	if err != nil {
		t.Fatal(err)
	}
	if fast.WorstLatencyPS >= slow.WorstLatencyPS {
		t.Fatal("lower group index must reduce latency")
	}
}

// TestAnalyzeCanonicalOrder pins the reductions to the loss report's
// canonical signal order: repeated calls sum the mean latency in the
// same order (identical bits) and break worst-latency ties toward the
// first signal.
func TestAnalyzeCanonicalOrder(t *testing.T) {
	res, err := core.Synthesize(noc.Floorplan16(), core.Options{MaxWL: 8, WithPDN: true})
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	ref, err := Analyze(res.Design, res.Loss, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, sig := range res.Loss.Sigs {
		if ref.Links[sig].LatencyPS == ref.WorstLatencyPS {
			if ref.Worst != sig {
				t.Fatalf("worst is %v, want the first slowest signal %v", ref.Worst, sig)
			}
			break
		}
	}
	for call := 0; call < 200; call++ {
		rep, err := Analyze(res.Design, res.Loss, p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(rep.MeanLatencyPS) != math.Float64bits(ref.MeanLatencyPS) || rep.Worst != ref.Worst {
			t.Fatalf("call %d: mean %v worst %v, first call %v worst %v",
				call, rep.MeanLatencyPS, rep.Worst, ref.MeanLatencyPS, ref.Worst)
		}
	}
}
