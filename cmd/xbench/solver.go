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
// The record gates three things. Node counts are deterministic (fixed
// models, fixed branching), so generic/<case>/{cold,warm}_nodes and
// step1/<case>/nodes are exact; a Step-1 failure is recorded as the
// error of its nodes metric, so a committed success that now errors
// fails. Wall-clock is machine-dependent, so it is gated as a ratio:
// calibration_ratio, SolveBrute on a fixed 20-variable model (reference
// code that never changes) divided by the Step-1 total, both fastest of
// three, may not fall by more than 25%.

import (
	"fmt"
	"math"
	"os"
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

func runSolverBench() (*record, error) {
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	rec := newRecord("solver")

	for _, gi := range genericInstances() {
		if err := runGenericCase(rec, gi.name, gi.net); err != nil {
			return nil, err
		}
	}

	cal, err := ring.NewMILPInstance(calibrationNetwork(), ring.Options{})
	if err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	// Alternate the two timed parts so a change in machine load between
	// reps slows both sides of the ratio alike.
	var calMS, stepMS float64
	var step1 []step1Case
	for r := 0; r < solverTimingReps; r++ {
		t0 := time.Now()
		if _, err := milp.SolveBrute(cal.Model); err != nil {
			return nil, fmt.Errorf("calibration: %w", err)
		}
		t1 := time.Now()
		step1 = runStep1()
		c := float64(t1.Sub(t0).Microseconds()) / 1000
		st := float64(time.Since(t1).Microseconds()) / 1000
		if r == 0 || c < calMS {
			calMS = c
		}
		if r == 0 || st < stepMS {
			stepMS = st
		}
	}
	for _, c := range step1 {
		name := "step1/" + c.name + "/"
		if c.err != nil {
			fmt.Fprintf(os.Stderr, "%-16s error: %v\n", c.name, c.err)
			rec.addError(name+"nodes", gateExact, c.err)
			continue
		}
		fmt.Fprintf(os.Stderr, "%-16s %5d nodes optimal=%v length %.3f mm\n", c.name, c.res.Nodes, c.res.Optimal, c.res.Length)
		rec.add(name+"nodes", float64(c.res.Nodes), gateExact)
		rec.add(name+"length", c.res.Length, "")
	}

	ratio := 0.0
	if stepMS > 0 {
		ratio = calMS / stepMS
	}
	fmt.Fprintf(os.Stderr, "step 1 total %.1f ms | calibration %.1f ms | ratio %.3f\n", stepMS, calMS, ratio)
	rec.add("calibration_ms", calMS, "")
	rec.add("step1_ms", stepMS, "")
	// How many Step-1 passes fit in one calibration solve on this machine.
	rec.add("calibration_ratio", ratio, gateRatio)
	return rec, nil
}

// runGenericCase solves one literal ring model cold and warm-started,
// cross-checks both optima against the production Step-1 solver and
// records the case.
func runGenericCase(rec *record, name string, net *noc.Network) error {
	inst, err := ring.NewMILPInstance(net, ring.Options{})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	ref, err := ring.Construct(net, ring.Options{})
	if err != nil {
		return fmt.Errorf("%s: ring.Construct: %w", name, err)
	}
	prefix := "generic/" + name + "/"
	rec.add(prefix+"vars", float64(inst.Model.NumVars()), "")
	rec.add(prefix+"cons", float64(inst.Model.NumConstraints()), "")
	rec.add(prefix+"objective", ref.ModelObjective, "")
	for _, mode := range []struct {
		name string
		hint []bool
	}{
		{"cold", nil},
		{"warm", inst.Hint},
	} {
		var sol *milp.Solution
		ms, err := timeFastest(solverTimingReps, func() error {
			sol, err = milp.Solve(inst.Model, milp.Options{MaxNodes: solverMaxNodes, IncumbentHint: mode.hint})
			return err
		})
		if err != nil {
			return fmt.Errorf("%s %s: %w", name, mode.name, err)
		}
		if !sol.Optimal {
			return fmt.Errorf("%s: %s solve did not prove optimality", name, mode.name)
		}
		if math.Abs(sol.Objective-ref.ModelObjective) > milp.Eps {
			return fmt.Errorf("%s: %s objective %v != ring.Construct %v — a solver is NOT exact",
				name, mode.name, sol.Objective, ref.ModelObjective)
		}
		fmt.Fprintf(os.Stderr, "%-12s vars=%-4d %s %5d nodes %6.2f ms\n",
			name, inst.Model.NumVars(), mode.name, sol.Nodes, ms)
		rec.add(prefix+mode.name+"_nodes", float64(sol.Nodes), gateExact)
		rec.add(prefix+mode.name+"_ms", ms, "")
	}
	return nil
}

// step1Case is one ring.Construct run: its result, or its error.
type step1Case struct {
	name string
	res  *ring.Result
	err  error
}

// runStep1 runs production Step 1 once over every seeded instance.
func runStep1() []step1Case {
	var cases []step1Case
	for _, n := range step1Sizes {
		for seed := 0; seed < step1Seeds; seed++ {
			res, err := ring.Construct(step1Network(n, seed), ring.Options{})
			cases = append(cases, step1Case{fmt.Sprintf("irregular%d-s%d", n, seed), res, err})
		}
	}
	return cases
}
