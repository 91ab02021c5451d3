package main

// Solver benchmark (-solver), run with the worker pool at one worker.
// It has two parts:
//
//   - Generic solver: the literal Eq. (1)-(4) ring models
//     (ring.NewMILPInstance) of three fixed floorplans, solved by
//     milp.Solve cold and warm-started from the construction heuristic.
//     Both objectives must equal ring.Construct's ModelObjective within
//     milp.Eps, or the run aborts.
//   - Production Step 1: ring.Construct on 18 seeded irregular
//     floorplans (18, 24 and 32 nodes, seeds 0-5). Each instance records
//     its B&B node count, optimality and tour length, or its error text.
//     Instances that fail (no consistent L-order today) stay in the list
//     as recorded failures.
//
// -check gates three things against the committed BENCH_solver.json.
// Node counts are deterministic (fixed models, fixed branching), so they
// must match exactly. A Step-1 instance committed as succeeding must
// still succeed. Wall-clock is machine-dependent, so it is gated as a
// ratio: SolveBrute on a fixed 20-variable model (reference code that
// never changes) divided by the Step-1 total, both fastest of three,
// may not fall by more than 25%.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"xring/internal/milp"
	"xring/internal/noc"
	"xring/internal/parallel"
	"xring/internal/ring"
)

// solverInstance is one named floorplan.
type solverInstance struct {
	name string
	net  *noc.Network
}

// genericInstances are the fixed floorplans whose literal ring models
// milp.Solve is timed on, smallest to largest.
func genericInstances() []solverInstance {
	return []solverInstance{
		{"grid8", noc.Floorplan8()},
		{"irregular10", noc.Irregular(10, 12, 12, 2.0, 3)},
		{"irregular12", noc.Irregular(12, 14, 14, 2.0, 2)},
	}
}

// step1Sizes and step1Seeds span the seeded Step-1 instances; the die
// side grows with the node count as 12 + n/2 mm.
var (
	step1Sizes = []int{18, 24, 32}
	step1Seeds = 6
)

func step1Network(n, seed int) *noc.Network {
	side := float64(12 + n/2)
	return noc.Irregular(n, side, side, 2.5, int64(seed))
}

// calibrationNetwork's literal ring model has 5·4 = 20 variables, so
// SolveBrute enumerates 2^20 assignments.
func calibrationNetwork() *noc.Network { return noc.Irregular(5, 8, 8, 2.0, 1) }

// genericCase is one literal model solved by milp.Solve.
type genericCase struct {
	Name      string  `json:"name"`
	Vars      int     `json:"vars"`
	Cons      int     `json:"cons"`
	Objective float64 `json:"objective"`
	ColdNodes int     `json:"coldNodes"`
	WarmNodes int     `json:"warmNodes"`
	ColdMS    float64 `json:"coldMS"`
	WarmMS    float64 `json:"warmMS"`
}

// step1Case is one ring.Construct run: nodes, optimal and length on
// success, the error text otherwise.
type step1Case struct {
	Name    string  `json:"name"`
	Nodes   int     `json:"nodes,omitempty"`
	Optimal bool    `json:"optimal,omitempty"`
	Length  float64 `json:"length,omitempty"`
	Error   string  `json:"error,omitempty"`
}

// solverReport is the BENCH_solver.json schema.
type solverReport struct {
	GoVersion  string `json:"goVersion"`
	GoOS       string `json:"goos"`
	GoArch     string `json:"goarch"`
	Cores      int    `json:"cores"`
	GoMaxProcs int    `json:"gomaxprocs"`
	TimingReps int    `json:"timingReps"`
	Timestamp  string `json:"timestampUTC,omitempty"`

	Generic []genericCase `json:"generic"`
	Step1   []step1Case   `json:"step1"`

	CalibrationMS float64 `json:"calibrationMS"`
	Step1MS       float64 `json:"step1MS"`
	// Ratio is CalibrationMS / Step1MS: how many Step-1 passes fit in
	// one calibration solve on this machine.
	Ratio float64 `json:"ratio"`
}

// solverMaxNodes is generous: every generic solve must complete, or the
// bench aborts — a budget hit would make node counts meaningless.
const solverMaxNodes = 50_000_000

// solverTimingReps re-runs each timed part and keeps the fastest
// wall-clock, damping scheduler noise without touching the
// deterministic node counts.
const solverTimingReps = 3

func timeFastest(reps int, run func() error) (float64, error) {
	best := 0.0
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if err := run(); err != nil {
			return 0, err
		}
		ms := float64(time.Since(t0).Microseconds()) / 1000
		if r == 0 || ms < best {
			best = ms
		}
	}
	return best, nil
}

func runSolverBench(out string, checkPath string) error {
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	rep := solverReport{
		GoVersion:  runtime.Version(),
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		Cores:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		TimingReps: solverTimingReps,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}

	for _, gi := range genericInstances() {
		c, err := runGenericCase(gi.name, gi.net)
		if err != nil {
			return err
		}
		rep.Generic = append(rep.Generic, c)
		fmt.Fprintf(os.Stderr, "%-12s vars=%-4d cold %5d nodes %6.2f ms | warm %5d nodes %6.2f ms\n",
			c.Name, c.Vars, c.ColdNodes, c.ColdMS, c.WarmNodes, c.WarmMS)
	}

	cal, err := ring.NewMILPInstance(calibrationNetwork(), ring.Options{})
	if err != nil {
		return fmt.Errorf("calibration: %w", err)
	}
	// Alternate the two timed parts so a change in machine load between
	// reps slows both sides of the ratio alike.
	for r := 0; r < solverTimingReps; r++ {
		t0 := time.Now()
		if _, err := milp.SolveBrute(cal.Model); err != nil {
			return fmt.Errorf("calibration: %w", err)
		}
		t1 := time.Now()
		rep.Step1 = runStep1()
		calMS := float64(t1.Sub(t0).Microseconds()) / 1000
		stepMS := float64(time.Since(t1).Microseconds()) / 1000
		if r == 0 || calMS < rep.CalibrationMS {
			rep.CalibrationMS = calMS
		}
		if r == 0 || stepMS < rep.Step1MS {
			rep.Step1MS = stepMS
		}
	}
	for _, c := range rep.Step1 {
		if c.Error != "" {
			fmt.Fprintf(os.Stderr, "%-16s error: %s\n", c.Name, c.Error)
		} else {
			fmt.Fprintf(os.Stderr, "%-16s %5d nodes optimal=%v length %.3f mm\n", c.Name, c.Nodes, c.Optimal, c.Length)
		}
	}

	if rep.Step1MS > 0 {
		rep.Ratio = rep.CalibrationMS / rep.Step1MS
	}
	fmt.Fprintf(os.Stderr, "step 1 total %.1f ms | calibration %.1f ms | ratio %.3f\n",
		rep.Step1MS, rep.CalibrationMS, rep.Ratio)

	if out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if checkPath != "" {
		return checkSolverReport(rep, checkPath)
	}
	return nil
}

// runGenericCase solves one literal ring model cold and warm-started and
// cross-checks both optima against the production Step-1 solver.
func runGenericCase(name string, net *noc.Network) (genericCase, error) {
	inst, err := ring.NewMILPInstance(net, ring.Options{})
	if err != nil {
		return genericCase{}, fmt.Errorf("%s: %w", name, err)
	}
	ref, err := ring.Construct(net, ring.Options{})
	if err != nil {
		return genericCase{}, fmt.Errorf("%s: ring.Construct: %w", name, err)
	}
	c := genericCase{
		Name:      name,
		Vars:      inst.Model.NumVars(),
		Cons:      inst.Model.NumConstraints(),
		Objective: ref.ModelObjective,
	}
	for _, mode := range []struct {
		name  string
		hint  []bool
		ms    *float64
		nodes *int
	}{
		{"cold", nil, &c.ColdMS, &c.ColdNodes},
		{"warm", inst.Hint, &c.WarmMS, &c.WarmNodes},
	} {
		var sol *milp.Solution
		*mode.ms, err = timeFastest(solverTimingReps, func() error {
			sol, err = milp.Solve(inst.Model, milp.Options{MaxNodes: solverMaxNodes, IncumbentHint: mode.hint})
			return err
		})
		if err != nil {
			return c, fmt.Errorf("%s %s: %w", name, mode.name, err)
		}
		if !sol.Optimal {
			return c, fmt.Errorf("%s: %s solve did not prove optimality", name, mode.name)
		}
		if math.Abs(sol.Objective-ref.ModelObjective) > milp.Eps {
			return c, fmt.Errorf("%s: %s objective %v != ring.Construct %v — a solver is NOT exact",
				name, mode.name, sol.Objective, ref.ModelObjective)
		}
		*mode.nodes = sol.Nodes
	}
	return c, nil
}

// runStep1 runs production Step 1 once over every seeded instance.
func runStep1() []step1Case {
	var cases []step1Case
	for _, n := range step1Sizes {
		for seed := 0; seed < step1Seeds; seed++ {
			c := step1Case{Name: fmt.Sprintf("irregular%d-s%d", n, seed)}
			if res, err := ring.Construct(step1Network(n, seed), ring.Options{}); err != nil {
				c.Error = err.Error()
			} else {
				c.Nodes, c.Optimal, c.Length = res.Nodes, res.Optimal, res.Length
			}
			cases = append(cases, c)
		}
	}
	return cases
}

// checkSolverReport compares a fresh run against the committed
// BENCH_solver.json: exact node counts on both parts, committed
// successes still succeeding, and the calibration ratio within 25%.
func checkSolverReport(got solverReport, path string) error {
	var want solverReport
	return checkAgainst("solver", path, &want, func() []string {
		const rerecord = "node counts are deterministic; re-record the report if the search changed on purpose"
		failures := matchByName("generic", want.Generic, got.Generic,
			func(c genericCase) string { return c.Name },
			func(w, c genericCase) string {
				if c.ColdNodes != w.ColdNodes || c.WarmNodes != w.WarmNodes {
					return fmt.Sprintf("cold/warm nodes %d/%d -> %d/%d; %s",
						w.ColdNodes, w.WarmNodes, c.ColdNodes, c.WarmNodes, rerecord)
				}
				return ""
			})
		failures = append(failures, matchByName("step1", want.Step1, got.Step1,
			func(c step1Case) string { return c.Name },
			func(w, c step1Case) string {
				switch {
				case w.Error != "" && c.Error == "":
					fmt.Fprintf(os.Stderr, "solver check note: step1 %s now succeeds (committed error %q); re-record to gate its node count\n",
						c.Name, w.Error)
				case w.Error != "":
				case c.Error != "":
					return "committed success now fails: " + c.Error
				case c.Nodes != w.Nodes:
					return fmt.Sprintf("nodes %d -> %d; %s", w.Nodes, c.Nodes, rerecord)
				}
				return ""
			})...)
		return append(failures, checkRatio("calibration ratio", want.Ratio, got.Ratio)...)
	})
}

// matchByName pairs committed and fresh cases by name. A case on only
// one side is a failure; cmp returns the failure for a pair, or "".
func matchByName[T any](part string, want, got []T, name func(T) string, cmp func(want, got T) string) []string {
	committed := map[string]T{}
	for _, w := range want {
		committed[name(w)] = w
	}
	var failures []string
	for _, g := range got {
		w, ok := committed[name(g)]
		delete(committed, name(g))
		if !ok {
			failures = append(failures, fmt.Sprintf("%s %s: not in the committed report; re-record it", part, name(g)))
		} else if f := cmp(w, g); f != "" {
			failures = append(failures, fmt.Sprintf("%s %s: %s", part, name(g), f))
		}
	}
	for _, w := range want {
		if _, missing := committed[name(w)]; missing {
			failures = append(failures, fmt.Sprintf("%s %s: committed case missing from this run", part, name(w)))
		}
	}
	return failures
}
