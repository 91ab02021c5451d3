// Package xring is a design-automation library for wavelength-routed
// optical ring routers, reproducing "XRing: A Crosstalk-Aware Synthesis
// Method for Wavelength-Routed Optical Ring Routers" (Zheng, Tseng, Li,
// Schlichtmann — DATE 2023).
//
// Given the number and floorplan positions of the network nodes, XRing
// synthesizes a complete ring-based WRONoC router:
//
//  1. ring waveguide construction — a modified travelling-salesman
//     MILP minimizing total Manhattan length under pairwise
//     crossing-conflict constraints, with heuristic sub-cycle merging;
//  2. shortcut construction — dedicated waveguides for node pairs that
//     are close on the die but far along the ring, with crossing
//     shortcuts merged by crossing switching elements;
//  3. signal mapping and ring opening — wavelength assignment under a
//     per-ring budget #wl, plus one opening per ring waveguide at the
//     least-passed node so the power distribution network can reach
//     every sender without crossing a ring;
//  4. PDN design — a crossing-free binary splitter tree per ring
//     waveguide, routed between ring pairs and entered through the
//     openings.
//
// The package also bundles the baselines the paper compares against
// (ORNoC, ORing, and the λ-router/GWOR/Light crossbars under three
// physical-mapper styles), and insertion-loss / first-order-crosstalk
// analyses that regenerate the paper's Tables I-III.
//
// Quick start:
//
//	net := xring.Floorplan16()
//	res, err := xring.Synthesize(net, xring.Options{MaxWL: 14, WithPDN: true})
//	if err != nil { ... }
//	fmt.Println(res.Loss.WorstIL, res.Xtalk.WorstSNR)
package xring

import (
	"context"

	"xring/internal/baselines/oring"
	"xring/internal/core"
	"xring/internal/crossbar"
	"xring/internal/designio"
	"xring/internal/geom"
	"xring/internal/inventory"
	"xring/internal/layout"
	"xring/internal/linkbudget"
	"xring/internal/loss"
	"xring/internal/noc"
	"xring/internal/pdn"
	"xring/internal/perf"
	"xring/internal/phys"
	"xring/internal/placement"
	"xring/internal/router"
	"xring/internal/sim"
	"xring/internal/spectral"
	"xring/internal/viz"
	"xring/internal/xtalk"
)

// Core synthesis types.
type (
	// Options configures Synthesize and Sweep.
	Options = core.Options
	// Result bundles the synthesized design and its analyses.
	Result = core.Result
	// Objective selects what a #wl sweep optimizes.
	Objective = core.Objective
	// Network is a set of nodes on a die.
	Network = noc.Network
	// Point is a position on the die plane, in millimetres.
	Point = geom.Point
	// Node is one network node.
	Node = noc.Node
	// Signal is one communication demand.
	Signal = noc.Signal
	// Design is the synthesized router representation.
	Design = router.Design
	// Route records where a signal was realized.
	Route = router.Route
	// Params holds the technology coefficients.
	Params = phys.Params
	// LossReport is the insertion-loss and laser-power analysis result.
	LossReport = loss.Report
	// XtalkReport is the first-order crosstalk analysis result.
	XtalkReport = xtalk.Report
	// PDNPlan is a synthesized power distribution network.
	PDNPlan = pdn.Plan
)

// Sweep objectives.
const (
	MinWorstIL = core.MinWorstIL
	MinPower   = core.MinPower
	MaxSNR     = core.MaxSNR
)

// Route kinds.
const (
	// OnRing marks a signal carried by a ring waveguide.
	OnRing = router.OnRing
	// OnShortcut marks a signal carried by a shortcut.
	OnShortcut = router.OnShortcut
)

// Synthesize runs the full XRing flow (Steps 1-4 plus analyses) on a
// network.
func Synthesize(net *Network, opt Options) (*Result, error) {
	return core.Synthesize(net, opt)
}

// Sweep synthesizes once per #wl candidate (nil = 1..N) and returns the
// best result under the objective together with the chosen #wl.
// Candidates are evaluated concurrently on the shared worker pool and
// reduced in canonical order, so any pool width returns the identical
// winner.
func Sweep(net *Network, opt Options, objective Objective, candidates []int) (*Result, int, error) {
	return core.Sweep(net, opt, objective, candidates)
}

// ResetRingCache empties the Step-1 ring-construction cache. Benchmarks
// comparing cold-start synthesis times call it between timed passes.
func ResetRingCache() { core.ResetRingCache() }

// DefaultParams returns the standard technology parameter set.
func DefaultParams() Params { return phys.Default() }

// TableIParams returns the parameter set used for the crossbar
// comparison (higher crossing loss, after PROTON+).
func TableIParams() Params { return phys.TableI() }

// Floorplan8 returns the standard 8-node floorplan (4x2 core grid).
func Floorplan8() *Network { return noc.Floorplan8() }

// Floorplan16 returns the standard 16-node floorplan (4x4 core grid).
func Floorplan16() *Network { return noc.Floorplan16() }

// Floorplan32 returns the 32-node floorplan (8x4 core grid).
func Floorplan32() *Network { return noc.Floorplan32() }

// Grid builds an arbitrary grid floorplan.
func Grid(nx, ny int, pitch, margin float64) *Network {
	return noc.Grid(nx, ny, pitch, margin)
}

// Irregular builds a deterministic pseudo-random floorplan with a
// minimum node spacing (the paper's "nodes not regularly aligned"
// case).
func Irregular(n int, w, h, minSpacing float64, seed int64) *Network {
	return noc.Irregular(n, w, h, minSpacing, seed)
}

// AllToAll returns the full traffic pattern for n nodes.
func AllToAll(n int) []Signal { return noc.AllToAll(n) }

// Synthetic traffic patterns (standard NoC evaluation suite), all
// usable as Options.Traffic.
var (
	// Transpose is the matrix-transpose pattern for square node counts.
	Transpose = noc.Transpose
	// BitReversal is the bit-reversal pattern for power-of-two counts.
	BitReversal = noc.BitReversal
	// Hotspot exchanges traffic between every node and one hot node.
	Hotspot = noc.Hotspot
	// NeighborRing sends node i to node (i+1) mod n.
	NeighborRing = noc.NeighborRing
	// Shuffle is the perfect-shuffle pattern for power-of-two counts.
	Shuffle = noc.Shuffle
)

// RenderSVG renders a synthesized design as an SVG document.
func RenderSVG(d *Design) string { return viz.SVG(d) }

// RenderChannelChart renders the per-waveguide wavelength-allocation
// map of a design as an SVG document.
func RenderChannelChart(d *Design) string { return viz.ChannelChart(d) }

// PhysicalLayout is the geometric realization of a design: concrete
// offset ring paths with opening gaps, tap points and shortcut paths.
type PhysicalLayout = layout.Layout

// BuildLayout realizes the design's physical geometry. It fails when a
// radial offset is not constructible on this tour (the same physical
// limit the waveguide cap models).
func BuildLayout(d *Design) (*PhysicalLayout, error) { return layout.Build(d) }

// SaveDesign serializes a synthesized design to its stable JSON format.
func SaveDesign(d *Design) ([]byte, error) { return designio.Save(d) }

// LoadDesign rebuilds a design from SaveDesign output and validates it.
// PDN plans are not stored; re-derive them (or re-run the analyses via
// AnalyzeDesign).
func LoadDesign(data []byte) (*Design, error) { return designio.Load(data) }

// AnalyzeDesign re-runs the loss and crosstalk analyses on a design
// (for example one reloaded from disk). withTreePDN re-derives the
// XRing tree PDN first; designs whose waveguides carry comb-PDN
// crossings are re-analyzed with a rebuilt comb plan automatically.
func AnalyzeDesign(d *Design, withTreePDN bool) (*LossReport, *XtalkReport, error) {
	var plan *PDNPlan
	var err error
	hasComb := false
	for _, w := range d.Waveguides {
		if len(w.Crossings) > 0 {
			hasComb = true
			break
		}
	}
	switch {
	case hasComb:
		plan, err = pdn.BuildComb(d)
	case withTreePDN:
		plan, err = pdn.BuildTree(d)
	}
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	lrep, err := loss.AnalyzeCtx(ctx, d, plan)
	if err != nil {
		return nil, nil, err
	}
	xrep, err := xtalk.AnalyzeCtx(ctx, d, plan, lrep)
	if err != nil {
		return nil, nil, err
	}
	return lrep, xrep, nil
}

// ---------------------------------------------------------------------
// Baselines
// ---------------------------------------------------------------------

// BaselineResult is a synthesized ring-router baseline with analyses.
type BaselineResult struct {
	Design *Design
	Plan   *PDNPlan
	Loss   *LossReport
	Xtalk  *XtalkReport
}

// SynthesizeORNoC builds the ORNoC baseline (aggressive wavelength
// reuse, comb PDN when withPDN is set) and analyzes it.
func SynthesizeORNoC(net *Network, par Params, maxWL int, withPDN bool) (*BaselineResult, error) {
	r, err := oring.SynthesizeORNoC(net, par, maxWL, withPDN)
	if err != nil {
		return nil, err
	}
	return analyzeBaseline(r.Design, r.Plan)
}

// SynthesizeORing builds the ORing baseline (shortest-direction mapping
// with reuse, comb PDN when withPDN is set) and analyzes it.
func SynthesizeORing(net *Network, par Params, maxWL int, withPDN bool) (*BaselineResult, error) {
	r, err := oring.Synthesize(net, par, maxWL, withPDN)
	if err != nil {
		return nil, err
	}
	return analyzeBaseline(r.Design, r.Plan)
}

func analyzeBaseline(d *Design, plan *PDNPlan) (*BaselineResult, error) {
	ctx := context.Background()
	lrep, err := loss.AnalyzeCtx(ctx, d, plan)
	if err != nil {
		return nil, err
	}
	xrep, err := xtalk.AnalyzeCtx(ctx, d, plan, lrep)
	if err != nil {
		return nil, err
	}
	return &BaselineResult{Design: d, Plan: plan, Loss: lrep, Xtalk: xrep}, nil
}

// Crossbar router kinds and mappers (Table I baselines).
type (
	// CrossbarKind selects the crossbar topology.
	CrossbarKind = crossbar.Kind
	// CrossbarMapper selects the physical mapping strategy.
	CrossbarMapper = crossbar.Mapper
	// CrossbarResult is a synthesized crossbar with its analysis.
	CrossbarResult = crossbar.Result
)

// Crossbar topologies and mappers.
const (
	LambdaRouter     = crossbar.LambdaRouter
	GWOR             = crossbar.GWOR
	Light            = crossbar.Light
	MapperMatrix     = crossbar.MapperMatrix
	MapperPlanar     = crossbar.MapperPlanar
	MapperProjection = crossbar.MapperProjection
)

// SynthesizeCrossbar builds and analyzes a crossbar baseline.
func SynthesizeCrossbar(net *Network, kind CrossbarKind, mapper CrossbarMapper, par Params) (*CrossbarResult, error) {
	return crossbar.Synthesize(net, kind, mapper, par)
}

// ---------------------------------------------------------------------
// Spectral (inter-channel) crosstalk extension
// ---------------------------------------------------------------------

// Spectral analysis types.
type (
	// SpectralParams configures the inter-channel crosstalk analysis.
	SpectralParams = spectral.Params
	// SpectralReport is the inter-channel crosstalk result.
	SpectralReport = spectral.Report
	// WavelengthGrid is a regular DWDM channel grid.
	WavelengthGrid = spectral.Grid
)

// DefaultSpectralParams returns Q = 9000 rings on a 100 GHz grid.
func DefaultSpectralParams() SpectralParams { return spectral.DefaultParams() }

// AnalyzeSpectral runs the wavelength-resolved inter-channel crosstalk
// analysis (the extension beyond the paper's same-wavelength model) on
// a synthesized result.
func AnalyzeSpectral(res *Result, p SpectralParams) (*SpectralReport, error) {
	return spectral.Analyze(res.Design, res.Loss, p)
}

// MinChannelSpacing explores the DWDM grid: the smallest channel
// spacing (GHz, multiples of stepGHz) at which the design meets the
// target worst-case spectral SNR.
func MinChannelSpacing(res *Result, q, targetDB, stepGHz, maxGHz float64) (float64, error) {
	return spectral.MinSpacingForSNR(res.Design, res.Loss, q, targetDB, stepGHz, maxGHz)
}

// ThermalBudget returns the largest ring detuning (GHz, steps of
// stepGHz) the design tolerates while keeping the target worst-case
// spectral SNR; divide by ~10 GHz/K for a temperature budget.
func ThermalBudget(res *Result, p SpectralParams, targetDB, stepGHz, maxGHz float64) (float64, error) {
	return spectral.MaxDriftForSNR(res.Design, res.Loss, p, targetDB, stepGHz, maxGHz)
}

// ---------------------------------------------------------------------
// Device inventory and link budget
// ---------------------------------------------------------------------

// Inventory analysis types.
type (
	// DeviceCounts is the physical device inventory of a design.
	DeviceCounts = inventory.Counts
	// LinkBudget is the per-signal margin/Q/BER analysis.
	LinkBudget = linkbudget.Report
)

// TakeInventory tallies the MRRs, splitters, waveguide length,
// crossings and static tuning power of a synthesized result.
func TakeInventory(res *Result) (*DeviceCounts, error) {
	return inventory.Take(res.Design, res.Plan)
}

// AnalyzeLinkBudget computes per-signal power margin, Q-factor and BER,
// optionally folding in the spectral inter-channel noise (pass nil to
// exclude it).
func AnalyzeLinkBudget(res *Result, srep *SpectralReport, targetBER float64) (*LinkBudget, error) {
	return linkbudget.Analyze(res.Design, res.Loss, res.Xtalk, srep, targetBER)
}

// Performance analysis types.
type (
	// PerfParams configures the latency/bandwidth model.
	PerfParams = perf.Params
	// PerfReport is the latency and bandwidth analysis.
	PerfReport = perf.Report
)

// DefaultPerfParams returns a 10 Gb/s-per-wavelength operating point.
func DefaultPerfParams() PerfParams { return perf.DefaultParams() }

// AnalyzePerformance computes per-signal time-of-flight latency,
// aggregate bandwidth and bisection bandwidth for a synthesized result.
func AnalyzePerformance(res *Result, p PerfParams) (*PerfReport, error) {
	return perf.Analyze(res.Design, res.Loss, p)
}

// Simulation types.
type (
	// SimConfig parameterizes a discrete-event transmission simulation.
	SimConfig = sim.Config
	// SimResult is a simulation outcome.
	SimResult = sim.Result
)

// Simulation service models.
const (
	// SimWRONoC uses the design's dedicated wavelength channels.
	SimWRONoC = sim.ModeWRONoC
	// SimArbitrated contends for a shared channel pool (the baseline
	// fabric the paper's introduction argues against).
	SimArbitrated = sim.ModeArbitrated
)

// DefaultSimConfig returns a 10 Gb/s, 512-bit-packet configuration at
// the given per-flow load.
func DefaultSimConfig(load float64) SimConfig { return sim.DefaultConfig(load) }

// Simulate runs the discrete-event transmission simulator on a
// synthesized result.
func Simulate(res *Result, cfg SimConfig) (*SimResult, error) {
	return sim.Run(res.Design, res.Loss, cfg)
}

// ---------------------------------------------------------------------
// Placement co-optimization (PSION+-style extension)
// ---------------------------------------------------------------------

// Placement optimization types.
type (
	// PlacementOptions tunes the placement hill climber.
	PlacementOptions = placement.Options
	// PlacementTrace records the optimization history.
	PlacementTrace = placement.Trace
)

// Placement objectives.
const (
	PlaceMinWorstIL = placement.MinWorstIL
	PlaceMinPower   = placement.MinPower
)

// OptimizePlacement perturbs node positions (within the die, keeping a
// minimum spacing) and re-synthesizes, keeping improving moves — the
// layout/topology co-optimization the paper's reference [20] (PSION+)
// performs, on top of the XRing flow.
func OptimizePlacement(net *Network, opt PlacementOptions) (*Network, *Result, *PlacementTrace, error) {
	return placement.Optimize(net, opt)
}
