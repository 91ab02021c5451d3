package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"xring/internal/designio"
	"xring/internal/milp"
	"xring/internal/noc"
	"xring/internal/resilience"
	"xring/internal/ring"
)

// degradedCtx returns a context whose Step-1 exact solve fails with an
// injected milp.ErrBudget, forcing the heuristic fallback.
func degradedCtx() context.Context {
	in := resilience.NewInjector(1, resilience.Rule{Point: "core.ring", Err: milp.ErrBudget})
	return resilience.WithInjector(context.Background(), in)
}

func TestSynthesizeFallsBackOnBudget(t *testing.T) {
	net := noc.Floorplan16()
	res, err := SynthesizeCtx(degradedCtx(), net, Options{MaxWL: 14, WithPDN: true})
	if err != nil {
		t.Fatalf("degraded synthesis failed outright: %v", err)
	}
	if !res.Degraded {
		t.Fatal("result not marked degraded")
	}
	if !strings.Contains(res.DegradedReason, "budget") {
		t.Errorf("DegradedReason = %q, want a budget-exhaustion reason", res.DegradedReason)
	}
	if res.Ring.Optimal {
		t.Error("heuristic ring claims optimality")
	}
	if err := res.Design.Validate(); err != nil {
		t.Errorf("degraded design invalid: %v", err)
	}

	// The fallback must not have poisoned the ring cache: the same
	// floorplan without injection gets the exact solve again.
	clean, err := SynthesizeCtx(context.Background(), net, Options{MaxWL: 14, WithPDN: true})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Degraded || !clean.Ring.Optimal {
		t.Errorf("clean re-run degraded=%v optimal=%v; fallback leaked into the ring cache",
			clean.Degraded, clean.Ring.Optimal)
	}
}

// TestDegradedRetryServesExact: once a synthesis has degraded on budget
// exhaustion, the next request for the same floorplan on the same
// engine runs the exact solve again — the degraded rate across the two
// runs drops from 1/1 to 1/2.
func TestDegradedRetryServesExact(t *testing.T) {
	e := NewEngine(nil)
	net := noc.Floorplan8()
	in := resilience.NewInjector(1,
		resilience.Rule{Point: "core.ring", Err: milp.ErrBudget, Times: 1})
	ctx := resilience.WithInjector(context.Background(), in)

	first, err := e.SynthesizeCtx(ctx, net, Options{MaxWL: 7})
	if err != nil {
		t.Fatalf("first (degraded) synthesis failed: %v", err)
	}
	if !first.Degraded {
		t.Fatal("first run not degraded — injection missed")
	}

	// Same injector context, but the rule is spent (Times: 1): the exact
	// solver runs this time.
	second, err := e.SynthesizeCtx(ctx, net, Options{MaxWL: 7})
	if err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if second.Degraded {
		t.Fatal("retry still degraded")
	}
	if !second.Ring.Optimal {
		t.Error("retry should prove optimality")
	}
}

func TestNoFallbackSurfacesBudgetError(t *testing.T) {
	net := noc.Floorplan16()
	_, err := SynthesizeCtx(degradedCtx(), net, Options{MaxWL: 14, NoFallback: true})
	if !errors.Is(err, milp.ErrBudget) {
		t.Fatalf("err = %v, want errors.Is(err, milp.ErrBudget)", err)
	}
	if !errors.Is(err, resilience.ErrInjected) {
		t.Errorf("err = %v should still be recognizable as injected", err)
	}
}

func TestSynthesizeFallsBackNearDeadline(t *testing.T) {
	// A fresh engine: a warm exact entry would (correctly) dodge the fallback.
	e := NewEngine(nil)
	net := noc.Floorplan8()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	res, err := e.SynthesizeCtx(ctx, net, Options{MaxWL: 7})
	if err != nil {
		t.Fatalf("near-deadline synthesis failed: %v", err)
	}
	if !res.Degraded || !strings.Contains(res.DegradedReason, "deadline") {
		t.Fatalf("degraded=%v reason=%q, want a deadline fallback", res.Degraded, res.DegradedReason)
	}
	if err := res.Design.Validate(); err != nil {
		t.Errorf("degraded design invalid: %v", err)
	}
}

func TestSweepStampsDegradedWinner(t *testing.T) {
	net := noc.Floorplan8()
	res, wl, err := SweepCtx(degradedCtx(), net, Options{}, MinWorstIL, []int{7, 8})
	if err != nil {
		t.Fatalf("degraded sweep failed: %v", err)
	}
	if wl < 1 {
		t.Errorf("winner #wl = %d", wl)
	}
	if !res.Degraded || !strings.Contains(res.DegradedReason, "budget") {
		t.Errorf("sweep winner degraded=%v reason=%q", res.Degraded, res.DegradedReason)
	}
}

func TestStageFaultPointsCoverPipeline(t *testing.T) {
	// An injector with no rules records hit counts: every stage gate of
	// the full PDN-enabled flow must be exercised.
	in := resilience.NewInjector(1)
	ctx := resilience.WithInjector(context.Background(), in)
	if _, err := SynthesizeCtx(ctx, noc.Floorplan8(), Options{MaxWL: 7, WithPDN: true}); err != nil {
		t.Fatal(err)
	}
	for _, point := range []string{
		"core.ring",
		"core.stage.entry",
		"core.stage.mapping",
		"core.stage.pdn",
		"core.stage.loss",
		"core.stage.xtalk",
	} {
		if in.Hits(point) == 0 {
			t.Errorf("fault point %q never reached", point)
		}
	}
}

func TestStageFaultAbortsPipeline(t *testing.T) {
	in := resilience.NewInjector(1, resilience.Rule{Point: "core.stage.loss", Err: resilience.ErrInjected})
	ctx := resilience.WithInjector(context.Background(), in)
	_, err := SynthesizeCtx(ctx, noc.Floorplan8(), Options{MaxWL: 7})
	if !errors.Is(err, resilience.ErrInjected) {
		t.Fatalf("err = %v, want the injected stage fault", err)
	}
}

// TestDegradedLeavesNoStep1State is a differential test: an engine that
// has served a degraded Step-1 request — once through an injected
// budget exhaustion, once through a near-expired deadline — must then
// serve an exact request for the same floorplan exactly as a fresh
// engine does. The ring.Result must deep-equal the fresh engine's and
// the saved design must be byte-identical, so no fallback leaves state
// behind that could steer a later solve.
func TestDegradedLeavesNoStep1State(t *testing.T) {
	names := []string{"floorplan8", "floorplan16"}
	nets := []*noc.Network{noc.Floorplan8(), noc.Floorplan16()}
	for seed := int64(1); seed <= 4; seed++ {
		names = append(names, fmt.Sprintf("irr10-%d", seed))
		nets = append(nets, noc.Irregular(10, 12, 12, 2.0, seed))
	}
	opt := Options{MaxWL: 8, WithPDN: true}
	for i, net := range nets {
		name := names[i]
		fresh, err := NewEngine(nil).SynthesizeCtx(context.Background(), net, opt)
		if err != nil {
			t.Fatalf("%s: fresh engine: %v", name, err)
		}
		want, err := designio.Save(fresh.Design)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"budget", "deadline"} {
			e := NewEngine(nil)
			switch mode {
			case "budget":
				res, err := e.SynthesizeCtx(degradedCtx(), net, opt)
				if err != nil {
					t.Fatalf("%s/%s: degraded synthesis: %v", name, mode, err)
				}
				if !res.Degraded {
					t.Fatalf("%s/%s: injection missed", name, mode)
				}
			case "deadline":
				ctx, cancel := context.WithTimeout(context.Background(), ringDeadlineSlack/2)
				_, reason, err := e.constructRingResilient(ctx, net, ring.Options{}, false)
				cancel()
				if err != nil || reason != DegradedReasonDeadline {
					t.Fatalf("%s/%s: reason %q err %v, want the deadline fallback", name, mode, reason, err)
				}
			}
			got, err := e.SynthesizeCtx(context.Background(), net, opt)
			if err != nil {
				t.Fatalf("%s/%s: exact retry: %v", name, mode, err)
			}
			if got.Degraded {
				t.Fatalf("%s/%s: exact retry degraded", name, mode)
			}
			if !reflect.DeepEqual(got.Ring, fresh.Ring) {
				t.Errorf("%s/%s: ring.Result after a degraded request\n%+v\nfresh engine\n%+v", name, mode, *got.Ring, *fresh.Ring)
			}
			b, err := designio.Save(got.Design)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b, want) {
				t.Errorf("%s/%s: saved design differs from a fresh engine's", name, mode)
			}
		}
	}
}
