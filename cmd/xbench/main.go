// Command xbench regenerates the paper's evaluation: Table I (crossbar
// and ring routers without PDNs), Table II (ORNoC vs XRing with PDNs,
// 8/16/32 nodes), Table III (ORing vs XRing, 16 nodes), and the
// ablation studies of the design choices called out in DESIGN.md.
//
// Table sections and the candidate sweeps inside them run concurrently
// on the shared worker pool; results are reduced in canonical order, so
// the printed tables are identical to a serial run (apart from the
// timing columns, which always measure the work actually done).
//
// Usage:
//
//	xbench             # all tables
//	xbench -table 1    # a single table
//	xbench -ablation   # ablation study only
//	xbench -serial     # force sequential evaluation (one worker)
//	xbench -json F     # write a serial-vs-parallel timing report to F
//	xbench -load URL   # drive a running xringd with a concurrent workload
//	xbench -solver     # exact solvers: milp.Solve and production Step 1
//	xbench -delta | -explore | -whatif | -cluster   # other micro-benchmarks
//
// A micro-benchmark writes its report to -json F when set. With -check F
// it compares the fresh run against the committed report F and exits
// non-zero on a regression; -check without a micro-benchmark flag is a
// usage error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"xring"
	"xring/internal/core"
	"xring/internal/obs"
	"xring/internal/parallel"
	"xring/internal/report"
)

// processStart anchors the monotonic timestamp reported by -json.
var processStart = time.Now()

// floorplanKind selects regular grids (the default) or irregular
// placements (the paper's motivating hard case, where shortcut gains
// are largest).
var floorplanKind = flag.String("floorplan", "grid", "floorplan family: grid or irregular")

// serialMode mirrors the -serial flag; the -json harness toggles it
// between timing passes.
var serialMode bool

// opts stamps the current execution mode onto synthesis options.
func opts(o xring.Options) xring.Options {
	o.Serial = serialMode
	return o
}

// networkFor returns the evaluation floorplan for n nodes.
func networkFor(n int) *xring.Network {
	if *floorplanKind == "irregular" {
		switch n {
		case 8:
			return xring.Irregular(8, 12, 12, 2.5, 3)
		case 16:
			return xring.Irregular(16, 16, 16, 2.5, 5)
		case 32:
			return xring.Irregular(32, 24, 24, 2.5, 2)
		}
	}
	switch n {
	case 8:
		return xring.Floorplan8()
	case 16:
		return xring.Floorplan16()
	default:
		return xring.Floorplan32()
	}
}

func main() {
	table := flag.String("table", "all", "which table to regenerate: 1, 2, 3 or all")
	ablation := flag.Bool("ablation", false, "run the ablation study instead of the paper tables")
	sweep := flag.Bool("sweep", false, "print the full #wl sweep curve for the 16-node XRing instead of the tables")
	serial := flag.Bool("serial", false, "evaluate everything sequentially on one worker (baseline for -json)")
	jsonOut := flag.String("json", "", "benchmark serial vs parallel passes and write the report to this file")
	solver := flag.Bool("solver", false, "run the exact-solver benchmark: generic 0/1 solver and production Step 1 (writes -json if set, compares -check if set)")
	deltaBench := flag.Bool("delta", false, "run the placement delta-evaluation micro-benchmark (writes -json if set, compares -check if set)")
	exploreBench := flag.Bool("explore", false, "run the /v1/explore grid benchmark (writes -json if set, compares -check if set)")
	whatifBench := flag.Bool("whatif", false, "run the fault-replay benchmark (writes -json if set, compares -check if set)")
	clusterBench := flag.Bool("cluster", false, "run the 3-shard cluster vs independent-instances benchmark (writes -json if set, compares -check if set)")
	benchCheck := flag.String("check", "", "with -solver/-delta/-explore/-whatif/-cluster: committed BENCH_*.json to compare against; exits non-zero on regression")
	loadURL := flag.String("load", "", "drive a running xringd at this base URL with a mixed concurrent workload")
	loadEndpoints := flag.String("endpoints", "", "comma-separated base URLs for -load mode: round-robin the workload across a fleet, with per-endpoint breakdowns")
	loadN := flag.Int("load-n", 32, "total requests to send in -load mode")
	loadC := flag.Int("load-c", 8, "concurrent senders in -load mode")
	loadNodes := flag.Int("load-nodes", 8, "floorplan size for -load mode requests (8, 16 or 32)")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()
	if *benchCheck != "" && !(*solver || *deltaBench || *exploreBench || *whatifBench || *clusterBench) {
		fmt.Fprintln(os.Stderr, "xbench: -check needs one of -solver, -delta, -explore, -whatif or -cluster")
		os.Exit(2)
	}

	flushObs, err := obsFlags.Activate(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xbench:", err)
		os.Exit(1)
	}
	defer func() {
		if err := flushObs(); err != nil {
			fmt.Fprintln(os.Stderr, "xbench:", err)
			os.Exit(1)
		}
	}()

	serialMode = *serial
	if serialMode {
		parallel.SetWorkers(1)
	}

	if *loadURL != "" || *loadEndpoints != "" {
		endpoints := splitEndpoints(*loadEndpoints)
		if len(endpoints) == 0 {
			endpoints = []string{*loadURL}
		}
		if err := runLoad(os.Stdout, loadConfig{
			endpoints: endpoints, total: *loadN, conc: *loadC, nodes: *loadNodes,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "xbench:", err)
			os.Exit(1)
		}
		return
	}
	if *clusterBench {
		if err := runClusterBench(*jsonOut, *benchCheck); err != nil {
			fmt.Fprintln(os.Stderr, "xbench:", err)
			os.Exit(1)
		}
		return
	}
	if *solver {
		if err := runSolverBench(*jsonOut, *benchCheck); err != nil {
			fmt.Fprintln(os.Stderr, "xbench:", err)
			os.Exit(1)
		}
		return
	}
	if *deltaBench {
		if err := runDeltaBench(*jsonOut, *benchCheck); err != nil {
			fmt.Fprintln(os.Stderr, "xbench:", err)
			os.Exit(1)
		}
		return
	}
	if *exploreBench {
		if err := runExploreBench(*jsonOut, *benchCheck); err != nil {
			fmt.Fprintln(os.Stderr, "xbench:", err)
			os.Exit(1)
		}
		return
	}
	if *whatifBench {
		if err := runWhatifBench(*jsonOut, *benchCheck); err != nil {
			fmt.Fprintln(os.Stderr, "xbench:", err)
			os.Exit(1)
		}
		return
	}
	if *jsonOut != "" {
		if err := runJSONBench(*jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *ablation {
		runAblation(os.Stdout)
		return
	}
	if *sweep {
		runSweepCurve(os.Stdout)
		return
	}
	switch *table {
	case "1":
		table1(os.Stdout)
	case "2":
		table2(os.Stdout)
	case "3":
		table3(os.Stdout)
	case "all":
		// Render every section concurrently into its own buffer, print
		// in order.
		sections := []func(io.Writer){table1, table2, table3, runAblation}
		bufs, err := parallel.Map(nil, len(sections), func(i int) (string, error) {
			var b bytes.Buffer
			sections[i](&b)
			return b.String(), nil
		})
		mustFanout(err)
		for i, s := range bufs {
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(s)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown -table %q\n", *table)
		os.Exit(2)
	}
}

func wlCandidates(n int) []int {
	var out []int
	for wl := 1; wl <= n; wl++ {
		if n > 16 && wl%2 == 1 {
			continue // thin the 32-node sweep
		}
		out = append(out, wl)
	}
	return out
}

// ringBaselineSweep picks the best baseline setting under an objective.
type baselineRun struct {
	res   *xring.BaselineResult
	maxWL int
	time  time.Duration
}

// sweepBaseline evaluates every #wl candidate — concurrently unless
// -serial — and reduces in ascending-#wl order, so the winner matches a
// sequential sweep exactly.
func sweepBaseline(name string, synth func(maxWL int) (*xring.BaselineResult, error),
	n int, better func(a, b *xring.BaselineResult) bool) *baselineRun {
	cands := wlCandidates(n)
	runs := make([]*baselineRun, len(cands))
	eval := func(i int) {
		t0 := time.Now()
		r, err := synth(cands[i])
		el := time.Since(t0)
		if err != nil {
			return
		}
		runs[i] = &baselineRun{res: r, maxWL: cands[i], time: el}
	}
	if serialMode {
		for i := range cands {
			eval(i)
		}
	} else {
		mustFanout(parallel.ForEach(nil, len(cands), func(i int) error {
			eval(i)
			return nil
		}))
	}
	var best *baselineRun
	for _, r := range runs {
		if r != nil && (best == nil || better(r.res, best.res)) {
			best = r
		}
	}
	if best == nil {
		panic("no feasible setting for " + name)
	}
	return best
}

// mustFanout re-raises a fan-out failure. xbench's table closures
// signal fatal setup errors by panicking; the worker pool contains
// panics as *resilience.PanicError task failures, and a benchmark
// binary still wants those to fail loudly rather than print a table
// with silently missing rows.
func mustFanout(err error) {
	if err != nil {
		panic(err)
	}
}

func minIL(a, b *xring.BaselineResult) bool { return a.Loss.WorstIL < b.Loss.WorstIL }
func minP(a, b *xring.BaselineResult) bool {
	return a.Loss.TotalPowerMW < b.Loss.TotalPowerMW
}
func maxSNR(a, b *xring.BaselineResult) bool {
	if a.Xtalk.WorstSNR != b.Xtalk.WorstSNR {
		return a.Xtalk.WorstSNR > b.Xtalk.WorstSNR
	}
	return a.Loss.TotalPowerMW < b.Loss.TotalPowerMW
}

// addRows computes table rows concurrently (serially under -serial) and
// adds them to the table in the given order.
func addRows(tb *report.Table, jobs []func() []string) {
	rows := make([][]string, len(jobs))
	if serialMode {
		for i, job := range jobs {
			rows[i] = job()
		}
	} else {
		mustFanout(parallel.ForEach(nil, len(jobs), func(i int) error {
			rows[i] = jobs[i]()
			return nil
		}))
	}
	for _, r := range rows {
		if r != nil {
			tb.AddRow(r...)
		}
	}
}

// table1 reproduces Table I: 8- and 16-node routers without PDNs.
func table1(w io.Writer) {
	fmt.Fprintln(w, "TABLE I — WRONoC routers without PDNs")
	fmt.Fprintln(w, "(paper Sec. IV-A; loss parameters after PROTON+ [15])")
	par := xring.TableIParams()

	for _, n := range []int{8, 16} {
		net := networkFor(n)
		tb := &report.Table{
			Title:  fmt.Sprintf("\n%d-node network", n),
			Header: []string{"Tool/Method", "Router", "#wl", "il_w", "L", "C", "T"},
		}

		type cbRow struct {
			tool   string
			kind   xring.CrossbarKind
			mapper xring.CrossbarMapper
		}
		rows := []cbRow{
			{"Proton+", xring.LambdaRouter, xring.MapperMatrix},
			{"PlanarONoC", xring.LambdaRouter, xring.MapperPlanar},
		}
		if n == 8 {
			rows = append(rows, cbRow{"ToPro", xring.GWOR, xring.MapperProjection})
		} else {
			rows = append(rows, cbRow{"ToPro", xring.Light, xring.MapperProjection})
		}
		var jobs []func() []string
		for _, r := range rows {
			r := r
			jobs = append(jobs, func() []string {
				t0 := time.Now()
				res, err := xring.SynthesizeCrossbar(net, r.kind, r.mapper, par)
				el := time.Since(t0)
				if err != nil {
					return []string{r.tool, "-", "-", "-", "-", "-", "failed: " + err.Error()}
				}
				return []string{r.tool, res.Kind.String(), report.D(res.Wavelengths),
					report.F(res.WorstIL, 1), report.F(res.WorstLen, 1),
					report.D(res.WorstCrossings), report.Seconds(el.Seconds())}
			})
		}

		// Ring baselines: sweep #wl for minimum worst-case IL.
		jobs = append(jobs, func() []string {
			on := sweepBaseline("ornoc", func(wl int) (*xring.BaselineResult, error) {
				return xring.SynthesizeORNoC(net, par, wl, false)
			}, n, minIL)
			return []string{"ORNoC", "ring", report.D(on.res.Loss.WavelengthCount),
				report.F(on.res.Loss.WorstIL, 1), report.F(on.res.Loss.WorstLen, 1),
				report.D(on.res.Loss.WorstCrossings), report.Seconds(on.time.Seconds())}
		})
		jobs = append(jobs, func() []string {
			og := sweepBaseline("oring", func(wl int) (*xring.BaselineResult, error) {
				return xring.SynthesizeORing(net, par, wl, false)
			}, n, minIL)
			return []string{"ORing", "ring", report.D(og.res.Loss.WavelengthCount),
				report.F(og.res.Loss.WorstIL, 1), report.F(og.res.Loss.WorstLen, 1),
				report.D(og.res.Loss.WorstCrossings), report.Seconds(og.time.Seconds())}
		})
		jobs = append(jobs, func() []string {
			parCopy := par
			t0 := time.Now()
			xr, _, err := xring.Sweep(net, opts(xring.Options{Par: &parCopy}), xring.MinWorstIL, wlCandidates(n))
			el := time.Since(t0)
			if err != nil {
				return []string{"XRing", "-", "-", "-", "-", "-", "failed: " + err.Error()}
			}
			return []string{"XRing", "ring", report.D(xr.Loss.WavelengthCount),
				report.F(xr.Loss.WorstIL, 1), report.F(xr.Loss.WorstLen, 1),
				report.D(xr.Loss.WorstCrossings), report.Seconds(el.Seconds())}
		})
		addRows(tb, jobs)
		fmt.Fprint(w, tb.String())
	}
}

// pdnSetting is one "setting for ..." subsection of Tables II/III.
type pdnSetting struct {
	name   string
	better func(a, b *xring.BaselineResult) bool
	obj    xring.Objective
}

var pdnSettings = []pdnSetting{
	{"min. power", minP, xring.MinPower},
	{"max. SNR", maxSNR, xring.MaxSNR},
}

// pdnComparisonTable renders one baseline-vs-XRing subsection.
func pdnComparisonTable(w io.Writer, title, baseName string, n int, setting pdnSetting,
	baseline func(maxWL int) (*xring.BaselineResult, error)) {
	net := networkFor(n)
	tb := &report.Table{
		Title:  title,
		Header: []string{"", "#wl", "il_w*", "L", "C", "P(mW)", "#s", "SNR_w", "noise-free", "T"},
	}
	addRows(tb, []func() []string{
		func() []string {
			b := sweepBaseline(baseName, baseline, n, setting.better)
			return []string{baseName, report.D(b.res.Loss.WavelengthCount),
				report.F(b.res.Loss.WorstIL, 2), report.F(b.res.Loss.WorstLen, 1),
				report.D(b.res.Loss.WorstCrossings), report.F(b.res.Loss.TotalPowerMW, 3),
				report.D(b.res.Xtalk.NumNoisy), report.F(b.res.Xtalk.WorstSNR, 1),
				report.Pct(b.res.Xtalk.NoiseFreeFrac), report.Seconds(b.time.Seconds())}
		},
		func() []string {
			t0 := time.Now()
			xr, _, err := xring.Sweep(net, opts(xring.Options{WithPDN: true}), setting.obj, wlCandidates(n))
			el := time.Since(t0)
			if err != nil {
				return []string{"XRing", "-", "-", "-", "-", "-", "-", "-", "-", "failed: " + err.Error()}
			}
			return []string{"XRing", report.D(xr.Loss.WavelengthCount),
				report.F(xr.Loss.WorstIL, 2), report.F(xr.Loss.WorstLen, 1),
				report.D(xr.Loss.WorstCrossings), report.F(xr.Loss.TotalPowerMW, 3),
				report.D(xr.Xtalk.NumNoisy), report.F(xr.Xtalk.WorstSNR, 1),
				report.Pct(xr.Xtalk.NoiseFreeFrac), report.Seconds(el.Seconds())}
		},
	})
	fmt.Fprint(w, tb.String())
}

// table2 reproduces Table II: ORNoC vs XRing with PDNs, 8/16/32 nodes.
func table2(w io.Writer) {
	fmt.Fprintln(w, "TABLE II — ORNoC vs XRing with PDNs (8-, 16-, 32-node networks)")
	par := xring.DefaultParams()
	type sub struct {
		n       int
		setting pdnSetting
	}
	var subs []sub
	for _, n := range []int{8, 16, 32} {
		for _, s := range pdnSettings {
			subs = append(subs, sub{n, s})
		}
	}
	bufs, err := parallel.Map(nil, len(subs), func(i int) (string, error) {
		var b bytes.Buffer
		n := subs[i].n
		pdnComparisonTable(&b,
			fmt.Sprintf("\nThe setting for %s for %d-node networks", subs[i].setting.name, n),
			"ORNoC", n, subs[i].setting,
			func(wl int) (*xring.BaselineResult, error) {
				return xring.SynthesizeORNoC(networkFor(n), par, wl, true)
			})
		return b.String(), nil
	})
	mustFanout(err)
	for _, s := range bufs {
		fmt.Fprint(w, s)
	}
}

// table3 reproduces Table III: ORing vs XRing, 16 nodes, with PDNs.
func table3(w io.Writer) {
	fmt.Fprintln(w, "TABLE III — ORing vs XRing with PDNs (16-node network)")
	par := xring.DefaultParams()
	bufs, err := parallel.Map(nil, len(pdnSettings), func(i int) (string, error) {
		var b bytes.Buffer
		pdnComparisonTable(&b,
			fmt.Sprintf("\nThe setting for %s", pdnSettings[i].name),
			"ORing", 16, pdnSettings[i],
			func(wl int) (*xring.BaselineResult, error) {
				return xring.SynthesizeORing(networkFor(16), par, wl, true)
			})
		return b.String(), nil
	})
	mustFanout(err)
	for _, s := range bufs {
		fmt.Fprint(w, s)
	}
}

// runAblation exercises the design choices DESIGN.md calls out:
// shortcuts, CSE merging, openings + tree PDN, and the Eq. (3) conflict
// constraints.
func runAblation(w io.Writer) {
	fmt.Fprintln(w, "ABLATION — XRing design choices (16-node network, #wl swept for min power)")
	net := networkFor(16)
	variants := []struct {
		name string
		opt  xring.Options
	}{
		{"full XRing", xring.Options{WithPDN: true}},
		{"no shortcuts", xring.Options{WithPDN: true, DisableShortcuts: true}},
		{"no CSE merging", xring.Options{WithPDN: true, NoCSE: true}},
		{"comb PDN (no openings)", xring.Options{WithPDN: true, NoOpenings: true}},
		{"no conflict constraints", xring.Options{WithPDN: true, DisableConflicts: true}},
	}
	tb := &report.Table{
		Header: []string{"variant", "#wl", "il_w*", "L", "C(total)", "P(mW)", "#s", "SNR_w", "T"},
	}
	var jobs []func() []string
	for _, v := range variants {
		v := v
		jobs = append(jobs, func() []string {
			t0 := time.Now()
			res, _, err := xring.Sweep(net, opts(v.opt), xring.MinPower, wlCandidates(16))
			el := time.Since(t0)
			if err != nil {
				return []string{v.name, "-", "-", "-", "-", "-", "-", "-", "failed: " + err.Error()}
			}
			snr := res.Xtalk.WorstSNR
			if math.IsInf(snr, 1) {
				snr = math.Inf(1) // rendered as "-"
			}
			return []string{v.name, report.D(res.Loss.WavelengthCount),
				report.F(res.Loss.WorstIL, 2), report.F(res.Loss.WorstLen, 1),
				report.D(res.Design.TotalCrossings()),
				report.F(res.Loss.TotalPowerMW, 3), report.D(res.Xtalk.NumNoisy),
				report.F(snr, 1), report.Seconds(el.Seconds())}
		})
	}
	addRows(tb, jobs)
	fmt.Fprint(w, tb.String())
}

// runSweepCurve prints the raw design-space data behind the paper's
// "#wl setting" selection: every (#wl, packing policy) point of the
// 16-node XRing with PDN, with the metrics both objectives look at.
func runSweepCurve(w io.Writer) {
	fmt.Fprintln(w, "SWEEP — 16-node XRing with tree PDN, all #wl settings and packing policies")
	net := networkFor(16)
	tb := &report.Table{
		Header: []string{"#wl", "policy", "waveguides", "il_w*", "L", "P(mW)", "#s", "noise-free", "feasible"},
	}
	type point struct {
		wl    int
		share bool
	}
	var points []point
	for wl := 1; wl <= 16; wl++ {
		points = append(points, point{wl, false}, point{wl, true})
	}
	var jobs []func() []string
	for _, p := range points {
		p := p
		jobs = append(jobs, func() []string {
			policy := "fresh"
			if p.share {
				policy = "share"
			}
			res, err := xring.Synthesize(net, opts(xring.Options{
				MaxWL: p.wl, WithPDN: true, ShareWavelengths: p.share,
			}))
			if err != nil {
				return []string{report.D(p.wl), policy, "-", "-", "-", "-", "-", "-", "no"}
			}
			return []string{report.D(p.wl), policy,
				report.D(len(res.Design.Waveguides)),
				report.F(res.Loss.WorstIL, 2), report.F(res.Loss.WorstLen, 1),
				report.F(res.Loss.TotalPowerMW, 3), report.D(res.Xtalk.NumNoisy),
				report.Pct(res.Xtalk.NoiseFreeFrac), "yes"}
		})
	}
	addRows(tb, jobs)
	fmt.Fprint(w, tb.String())
}

// benchStage is one timed entry of the -json report.
type benchStage struct {
	Name       string  `json:"name"`
	SerialMS   float64 `json:"serial_ms"`
	ParallelMS float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
}

// placementThroughput records the placement hot-loop rate in proposals
// evaluated per second: full re-synthesis per proposal vs the
// incremental delta engine, both on the full worker pool.
type placementThroughput struct {
	FullProposalsPerSec  float64 `json:"fullProposalsPerSec"`
	DeltaProposalsPerSec float64 `json:"deltaProposalsPerSec"`
}

// benchReport is the -json output: serial vs parallel wall-clock for
// the paper tables and a 16-node placement search, stamped with the
// toolchain and clock context needed to compare runs across machines.
type benchReport struct {
	Cores      int    `json:"cores"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoOS       string `json:"goos"`
	GoArch     string `json:"goarch"`
	GoVersion  string `json:"goVersion"`
	// TimestampUTC is the wall-clock time the report was generated.
	TimestampUTC string `json:"timestampUTC"`
	// MonotonicNS is the monotonic-clock offset from process start to
	// report generation; unlike the wall clock it is immune to NTP steps,
	// so stage times are comparable to it.
	MonotonicNS int64                `json:"monotonicNS"`
	Floorplan   string               `json:"floorplan"`
	Stages      []benchStage         `json:"stages"`
	Placement   *placementThroughput `json:"placementThroughput,omitempty"`
}

// runJSONBench times each stage twice — one worker with Serial options,
// then the full pool — resetting the Step-1 cache between passes so a
// warm cache cannot masquerade as concurrency speedup.
func runJSONBench(path string) error {
	var fullTrace *xring.PlacementTrace
	placement16 := func() {
		net := xring.Irregular(16, 16, 16, 2.5, 5)
		_, _, trace, err := xring.OptimizePlacement(net, xring.PlacementOptions{
			Objective:  xring.PlaceMinWorstIL,
			Synth:      opts(xring.Options{MaxWL: 16}),
			Iterations: 24,
			StepMM:     1.5,
			Seed:       1,
		})
		if err != nil {
			panic(err)
		}
		fullTrace = trace
	}
	stages := []struct {
		name string
		run  func()
	}{
		{"table1", func() { table1(io.Discard) }},
		{"table2", func() { table2(io.Discard) }},
		{"table3", func() { table3(io.Discard) }},
		{"placement16", placement16},
	}

	rep := benchReport{
		Cores:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		Floorplan:  *floorplanKind,
	}
	for _, st := range stages {
		serialMode = true
		parallel.SetWorkers(1)
		core.ResetRingCache()
		t0 := time.Now()
		st.run()
		serialMS := float64(time.Since(t0).Microseconds()) / 1000

		serialMode = false
		parallel.SetWorkers(0) // restore the GOMAXPROCS-sized pool
		core.ResetRingCache()
		t0 = time.Now()
		st.run()
		parallelMS := float64(time.Since(t0).Microseconds()) / 1000

		speedup := 0.0
		if parallelMS > 0 {
			speedup = serialMS / parallelMS
		}
		rep.Stages = append(rep.Stages, benchStage{
			Name: st.name, SerialMS: serialMS, ParallelMS: parallelMS,
			Speedup: math.Round(speedup*100) / 100,
		})
		fmt.Fprintf(os.Stderr, "%-12s serial %.1f ms  parallel %.1f ms  speedup %.2fx\n",
			st.name, serialMS, parallelMS, speedup)
	}

	// Placement hot-loop throughput: the last (parallel-pool) placement16
	// pass recorded the full-mode rate; pair it with one delta-mode run
	// of the same search on the same pool.
	if fullTrace != nil {
		net := xring.Irregular(16, 16, 16, 2.5, 5)
		core.ResetRingCache()
		_, _, dtrace, err := xring.OptimizePlacement(net, xring.PlacementOptions{
			Objective:  xring.PlaceMinWorstIL,
			Synth:      opts(xring.Options{MaxWL: 16}),
			Iterations: 24,
			StepMM:     1.5,
			Seed:       1,
			Delta:      true,
		})
		if err != nil {
			return err
		}
		rep.Placement = &placementThroughput{
			FullProposalsPerSec:  fullTrace.EvalRate(),
			DeltaProposalsPerSec: dtrace.EvalRate(),
		}
		fmt.Fprintf(os.Stderr, "placement    full %.1f proposals/s  delta %.1f proposals/s\n",
			rep.Placement.FullProposalsPerSec, rep.Placement.DeltaProposalsPerSec)
	}

	now := time.Now()
	rep.TimestampUTC = now.UTC().Format(time.RFC3339)
	rep.MonotonicNS = now.Sub(processStart).Nanoseconds()

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
