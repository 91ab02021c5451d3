// Command xbench regenerates the paper's evaluation: Table I (crossbar
// and ring routers without PDNs), Table II (ORNoC vs XRing with PDNs,
// 8/16/32 nodes), Table III (ORing vs XRing, 16 nodes), and the
// ablation studies of the design choices called out in DESIGN.md.
//
// Table sections and the candidate sweeps inside them run concurrently
// on the shared worker pool; results are reduced in canonical order, so
// the printed tables are identical to a -serial run, which pins the
// pool to one worker (apart from the timing columns, which always
// measure the work actually done).
//
// Usage:
//
//	xbench             # all tables
//	xbench -table 1    # a single table
//	xbench -ablation   # ablation study only
//	xbench -serial     # force sequential evaluation (one worker)
//	xbench -bench NAME # run one bench: solver, delta, explore, whatif,
//	                   # cluster or parallel (serial-vs-parallel tables)
//	xbench -check F    # run the bench F records and gate it against F
//
// Every bench produces one record (check.go): its kind, the host it ran
// on and a list of named metrics, each with its -check gate. -json F
// writes the record to F; -check F compares the fresh run against the
// committed record F and exits non-zero on a regression. With -check
// alone the bench is the kind F records, so
//
//	xbench -check BENCH_whatif.json
//
// is the whole whatif gate.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"xring"
	"xring/internal/obs"
	"xring/internal/parallel"
	"xring/internal/report"
)

// floorplanKind selects regular grids (the default) or irregular
// placements (the paper's motivating hard case, where shortcut gains
// are largest).
var floorplanKind = flag.String("floorplan", "grid", "floorplan family: grid or irregular")

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
	serial := flag.Bool("serial", false, "evaluate everything sequentially on one worker")
	benchName := flag.String("bench", "", "run one bench: "+benchNames()+" (writes -json if set, compares -check if set)")
	jsonOut := flag.String("json", "", "with -bench: write the bench record to this file")
	benchCheck := flag.String("check", "", "committed BENCH_*.json record to gate a fresh run against (runs the bench it records unless -bench is set); exits non-zero on regression")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()
	if *jsonOut != "" && *benchName == "" {
		fmt.Fprintln(os.Stderr, "xbench: -json needs -bench NAME")
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

	if *serial {
		parallel.SetWorkers(1)
	}

	if *benchName != "" || *benchCheck != "" {
		if err := runBench(*benchName, *jsonOut, *benchCheck); err != nil {
			fmt.Fprintln(os.Stderr, "xbench:", err)
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
		tablesAll(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "unknown -table %q\n", *table)
		os.Exit(2)
	}
}

// tablesAll prints -table all: Tables I-III and the ablation, each
// rendered concurrently into its own buffer and printed in order.
func tablesAll(w io.Writer) {
	sections := []func(io.Writer){table1, table2, table3, runAblation}
	bufs, err := parallel.Map(context.Background(), len(sections), func(i int) (string, error) {
		var b bytes.Buffer
		sections[i](&b)
		return b.String(), nil
	})
	mustFanout(err)
	for i, s := range bufs {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprint(w, s)
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

// sweepBaseline evaluates every #wl candidate on the worker pool and
// reduces in ascending-#wl order, so the winner matches a sequential
// sweep exactly.
func sweepBaseline(name string, synth func(maxWL int) (*xring.BaselineResult, error),
	n int, better func(a, b *xring.BaselineResult) bool) *baselineRun {
	cands := wlCandidates(n)
	runs := make([]*baselineRun, len(cands))
	mustFanout(parallel.ForEach(context.Background(), len(cands), func(i int) error {
		t0 := time.Now()
		r, err := synth(cands[i])
		if err == nil {
			runs[i] = &baselineRun{res: r, maxWL: cands[i], time: time.Since(t0)}
		}
		return nil
	}))
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

// addRows computes table rows on the worker pool and adds them to the
// table in the given order.
func addRows(tb *report.Table, jobs []func() []string) {
	rows := make([][]string, len(jobs))
	mustFanout(parallel.ForEach(context.Background(), len(jobs), func(i int) error {
		rows[i] = jobs[i]()
		return nil
	}))
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
			xr, _, err := xring.Sweep(net, xring.Options{Par: &parCopy}, xring.MinWorstIL, wlCandidates(n))
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
			xr, _, err := xring.Sweep(net, xring.Options{WithPDN: true}, setting.obj, wlCandidates(n))
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
	bufs, err := parallel.Map(context.Background(), len(subs), func(i int) (string, error) {
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
	bufs, err := parallel.Map(context.Background(), len(pdnSettings), func(i int) (string, error) {
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
			res, _, err := xring.Sweep(net, v.opt, xring.MinPower, wlCandidates(16))
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
			res, err := xring.Synthesize(net, xring.Options{
				MaxWL: p.wl, WithPDN: true, ShareWavelengths: p.share,
			})
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

// benches maps each -bench name to its run. A bench keeps its hard
// acceptance floors inside the run and returns the record -json writes
// and -check gates.
var benches = map[string]func() (*record, error){
	"solver":   runSolverBench,
	"delta":    runDeltaBench,
	"explore":  runExploreBench,
	"whatif":   runWhatifBench,
	"cluster":  runClusterBench,
	"parallel": runParallelBench,
}

func benchNames() string {
	names := make([]string, 0, len(benches))
	for n := range benches {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// runBench runs one bench, writes its record to out and gates it against
// the committed record at checkPath (either may be empty). An empty name
// runs the bench the committed record names.
func runBench(name, out, checkPath string) error {
	var want *record
	if checkPath != "" {
		var err error
		if want, err = readRecord(checkPath); err != nil {
			return err
		}
		if name == "" {
			name = want.Kind
		}
	}
	run, ok := benches[name]
	if !ok {
		return fmt.Errorf("unknown bench %q (want one of %s)", name, benchNames())
	}
	rec, err := run()
	if err != nil {
		return err
	}
	if out != "" {
		if err := rec.write(out); err != nil {
			return err
		}
	}
	if want != nil {
		return check(rec, want, checkPath)
	}
	return nil
}

// runParallelBench times the paper tables and a 16-node placement search
// twice each — on one worker, then on the full pool —
// resetting the Step-1 cache between passes so a warm cache cannot
// masquerade as concurrency speedup. Every metric is recorded only: on
// a host with few cores the speedups show pool overhead, not scaling.
func runParallelBench() (*record, error) {
	var fullTrace *xring.PlacementTrace
	placementOpts := func(delta bool) xring.PlacementOptions {
		return xring.PlacementOptions{
			Objective:  xring.PlaceMinWorstIL,
			Synth:      xring.Options{MaxWL: 16},
			Iterations: 24,
			StepMM:     1.5,
			Seed:       1,
			Delta:      delta,
		}
	}
	placement16 := func() {
		_, _, trace, err := xring.OptimizePlacement(xring.Irregular(16, 16, 16, 2.5, 5), placementOpts(false))
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

	rec := newRecord("parallel")
	for _, st := range stages {
		parallel.SetWorkers(1)
		xring.ResetRingCache()
		t0 := time.Now()
		st.run()
		serialMS := float64(time.Since(t0).Microseconds()) / 1000

		parallel.SetWorkers(0) // restore the GOMAXPROCS-sized pool
		xring.ResetRingCache()
		t0 = time.Now()
		st.run()
		parallelMS := float64(time.Since(t0).Microseconds()) / 1000

		speedup := 0.0
		if parallelMS > 0 {
			speedup = serialMS / parallelMS
		}
		prefix := *floorplanKind + "/" + st.name + "/"
		rec.add(prefix+"serial_ms", serialMS, "")
		rec.add(prefix+"parallel_ms", parallelMS, "")
		rec.add(prefix+"speedup", math.Round(speedup*100)/100, "")
		fmt.Fprintf(os.Stderr, "%-12s serial %.1f ms  parallel %.1f ms  speedup %.2fx\n",
			st.name, serialMS, parallelMS, speedup)
	}

	// Placement hot-loop throughput in proposals evaluated per second:
	// the last (parallel-pool) placement16 pass recorded the full-mode
	// rate; pair it with one delta-mode run of the same search on the
	// same pool.
	xring.ResetRingCache()
	_, _, dtrace, err := xring.OptimizePlacement(xring.Irregular(16, 16, 16, 2.5, 5), placementOpts(true))
	if err != nil {
		return nil, err
	}
	rec.add("placement/full_proposals_per_sec", fullTrace.EvalRate(), "")
	rec.add("placement/delta_proposals_per_sec", dtrace.EvalRate(), "")
	fmt.Fprintf(os.Stderr, "placement    full %.1f proposals/s  delta %.1f proposals/s\n",
		fullTrace.EvalRate(), dtrace.EvalRate())
	return rec, nil
}
