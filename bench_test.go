// Benchmarks regenerating the paper's evaluation, one per table plus
// the ablations DESIGN.md calls out. Absolute wall-clock corresponds to
// the paper's T column; the printed tables themselves come from
// cmd/xbench.
//
// Run with:
//
//	go test -bench=. -benchmem
package xring_test

import (
	"testing"

	"xring"
	"xring/internal/parallel"
)

// ---------------------------------------------------------------------
// Table I — routers without PDNs (one benchmark per row family)
// ---------------------------------------------------------------------

func benchCrossbar(b *testing.B, net *xring.Network, kind xring.CrossbarKind, mapper xring.CrossbarMapper) {
	b.Helper()
	par := xring.TableIParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xring.SynthesizeCrossbar(net, kind, mapper, par); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_ProtonPlusLambda8(b *testing.B) {
	benchCrossbar(b, xring.Floorplan8(), xring.LambdaRouter, xring.MapperMatrix)
}

func BenchmarkTable1_PlanarONoCLambda8(b *testing.B) {
	benchCrossbar(b, xring.Floorplan8(), xring.LambdaRouter, xring.MapperPlanar)
}

func BenchmarkTable1_ToProGWOR8(b *testing.B) {
	benchCrossbar(b, xring.Floorplan8(), xring.GWOR, xring.MapperProjection)
}

func BenchmarkTable1_ToProLight16(b *testing.B) {
	benchCrossbar(b, xring.Floorplan16(), xring.Light, xring.MapperProjection)
}

func BenchmarkTable1_ORNoC16(b *testing.B) {
	net := xring.Floorplan16()
	par := xring.TableIParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xring.SynthesizeORNoC(net, par, 16, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_ORing16(b *testing.B) {
	net := xring.Floorplan16()
	par := xring.TableIParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xring.SynthesizeORing(net, par, 16, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_XRing8(b *testing.B) {
	net := xring.Floorplan8()
	par := xring.TableIParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xring.Synthesize(net, xring.Options{Par: &par, MaxWL: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_XRing16(b *testing.B) {
	net := xring.Floorplan16()
	par := xring.TableIParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xring.Synthesize(net, xring.Options{Par: &par, MaxWL: 14}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Table II — ORNoC vs XRing with PDNs (8/16/32 nodes)
// ---------------------------------------------------------------------

func benchXRingPDN(b *testing.B, net *xring.Network, wl int) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xring.Synthesize(net, xring.Options{MaxWL: wl, WithPDN: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchORNoCPDN(b *testing.B, net *xring.Network, wl int) {
	b.Helper()
	par := xring.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xring.SynthesizeORNoC(net, par, wl, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_ORNoC8(b *testing.B)  { benchORNoCPDN(b, xring.Floorplan8(), 8) }
func BenchmarkTable2_XRing8(b *testing.B)  { benchXRingPDN(b, xring.Floorplan8(), 8) }
func BenchmarkTable2_ORNoC16(b *testing.B) { benchORNoCPDN(b, xring.Floorplan16(), 16) }
func BenchmarkTable2_XRing16(b *testing.B) { benchXRingPDN(b, xring.Floorplan16(), 14) }
func BenchmarkTable2_ORNoC32(b *testing.B) { benchORNoCPDN(b, xring.Floorplan32(), 32) }
func BenchmarkTable2_XRing32(b *testing.B) { benchXRingPDN(b, xring.Floorplan32(), 30) }

// BenchmarkTable2_SweepXRing16 measures the full #wl sweep the paper's
// "setting for min. power" selection implies, with the candidates
// fanned out over the worker pool. Compare against the Serial variant
// below for the concurrency speedup; both reset the Step-1 cache every
// iteration so they time cold-start synthesis.
func BenchmarkTable2_SweepXRing16(b *testing.B) {
	net := xring.Floorplan16()
	for i := 0; i < b.N; i++ {
		xring.ResetRingCache()
		if _, _, err := xring.Sweep(net, xring.Options{WithPDN: true}, xring.MinPower, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2_SweepXRing16Serial is the sequential baseline for the
// sweep above: the same sweep on a one-worker pool.
func BenchmarkTable2_SweepXRing16Serial(b *testing.B) {
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	net := xring.Floorplan16()
	for i := 0; i < b.N; i++ {
		xring.ResetRingCache()
		if _, _, err := xring.Sweep(net, xring.Options{WithPDN: true}, xring.MinPower, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Table III — ORing vs XRing with PDNs (16 nodes)
// ---------------------------------------------------------------------

func BenchmarkTable3_ORing16(b *testing.B) {
	net := xring.Floorplan16()
	par := xring.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xring.SynthesizeORing(net, par, 12, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3_XRing16(b *testing.B) { benchXRingPDN(b, xring.Floorplan16(), 14) }

// ---------------------------------------------------------------------
// Ablations — the design choices DESIGN.md calls out
// ---------------------------------------------------------------------

func benchAblation(b *testing.B, opt xring.Options) {
	b.Helper()
	net := xring.Floorplan16()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xring.Synthesize(net, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_Full(b *testing.B) {
	benchAblation(b, xring.Options{MaxWL: 14, WithPDN: true})
}

func BenchmarkAblation_NoShortcuts(b *testing.B) {
	benchAblation(b, xring.Options{MaxWL: 14, WithPDN: true, DisableShortcuts: true})
}

func BenchmarkAblation_NoCSE(b *testing.B) {
	benchAblation(b, xring.Options{MaxWL: 14, WithPDN: true, NoCSE: true})
}

func BenchmarkAblation_CombPDN(b *testing.B) {
	benchAblation(b, xring.Options{MaxWL: 14, WithPDN: true, NoOpenings: true})
}

func BenchmarkAblation_NoConflictConstraints(b *testing.B) {
	benchAblation(b, xring.Options{MaxWL: 14, WithPDN: true, DisableConflicts: true})
}

// ---------------------------------------------------------------------
// Flow-stage micro-benchmarks
// ---------------------------------------------------------------------

func BenchmarkStage_Synthesize8(b *testing.B)  { benchXRingPDN(b, xring.Floorplan8(), 8) }
func BenchmarkStage_Synthesize48(b *testing.B) { benchXRingPDN(b, xring.Grid(8, 6, 2, 1), 46) }

// ---------------------------------------------------------------------
// Figure-scenario benchmarks (the paper's Figs. 1-9 are methodology
// illustrations; these exercise the code paths each one depicts, and
// cmd/xfig regenerates the artwork)
// ---------------------------------------------------------------------

// BenchmarkFig2_RingConstructionQuality regenerates the Fig. 2
// scenario: the optimal minimum-length crossing-free ring for 16
// regularly-aligned nodes.
func BenchmarkFig2_RingConstructionQuality(b *testing.B) {
	net := xring.Floorplan16()
	for i := 0; i < b.N; i++ {
		if _, err := xring.Synthesize(net, xring.Options{MaxWL: 14}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7_CSEMerging regenerates the Fig. 7 scenario: crossing
// shortcuts merged with CSEs on an irregular floorplan.
func BenchmarkFig7_CSEMerging(b *testing.B) {
	net := xring.Irregular(10, 30, 30, 3, 8)
	for i := 0; i < b.N; i++ {
		res, err := xring.Synthesize(net, xring.Options{MaxWL: 10, WithPDN: true})
		if err != nil {
			b.Fatal(err)
		}
		merged := false
		for _, s := range res.Design.Shortcuts {
			if s.Partner != -1 {
				merged = true
			}
		}
		if !merged {
			b.Fatal("expected a CSE-merged pair")
		}
	}
}

// BenchmarkFig8_Openings regenerates the Fig. 8 scenario: opening every
// ring waveguide at its least-passed node.
func BenchmarkFig8_Openings(b *testing.B) {
	net := xring.Floorplan8()
	for i := 0; i < b.N; i++ {
		res, err := xring.Synthesize(net, xring.Options{MaxWL: 8, WithPDN: true})
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range res.Design.Waveguides {
			if w.Opening < 0 {
				b.Fatal("missing opening")
			}
		}
	}
}

// BenchmarkFig9_TreePDN regenerates the Fig. 9 scenario: the binary
// splitter-tree PDN entered through the openings, crossing-free.
func BenchmarkFig9_TreePDN(b *testing.B) {
	net := xring.Floorplan16()
	for i := 0; i < b.N; i++ {
		res, err := xring.Synthesize(net, xring.Options{MaxWL: 14, WithPDN: true})
		if err != nil {
			b.Fatal(err)
		}
		if res.Plan.CrossingsAdded != 0 {
			b.Fatal("tree PDN crossed a ring")
		}
	}
}

// ---------------------------------------------------------------------
// Extension-analysis benchmarks
// ---------------------------------------------------------------------

func synthFor(b *testing.B) *xring.Result {
	b.Helper()
	res, err := xring.Synthesize(xring.Floorplan16(), xring.Options{MaxWL: 14, WithPDN: true})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func BenchmarkExt_SpectralAnalyze16(b *testing.B) {
	res := synthFor(b)
	p := xring.DefaultSpectralParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xring.AnalyzeSpectral(res, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt_LinkBudget16(b *testing.B) {
	res := synthFor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xring.AnalyzeLinkBudget(res, nil, 1e-12); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt_Simulate16Load50(b *testing.B) {
	res := synthFor(b)
	cfg := xring.DefaultSimConfig(0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xring.Simulate(res, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt_Inventory16(b *testing.B) {
	res := synthFor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xring.TakeInventory(res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt_PlacementStep(b *testing.B) {
	net := xring.Irregular(8, 12, 12, 1.5, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := xring.OptimizePlacement(net, xring.PlacementOptions{
			Objective:  xring.PlaceMinWorstIL,
			Synth:      xring.Options{MaxWL: 8},
			Iterations: 10,
			Seed:       1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt_SaveLoadDesign16(b *testing.B) {
	res := synthFor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := xring.SaveDesign(res.Design)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := xring.LoadDesign(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStage_RenderSVG16(b *testing.B) {
	res, err := xring.Synthesize(xring.Floorplan16(), xring.Options{MaxWL: 14, WithPDN: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(xring.RenderSVG(res.Design)) == 0 {
			b.Fatal("empty SVG")
		}
	}
}
