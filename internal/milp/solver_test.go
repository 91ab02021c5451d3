package milp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// ringLikeModel builds an assignment-structured model in the shape of
// the paper's ring construction — two exactly-one rows per node over a
// shared n×(n-1) variable grid, pairwise conflicts, integer (tie-heavy)
// objectives. Ties between equal-cost optima are the rule here, so this
// is the family the canonical witness dive exists for. n = 5 gives 20
// variables, small enough for SolveBrute.
func ringLikeModel(rng *rand.Rand, n int) *Model {
	m := NewModel()
	vars := make(map[[2]int]Var)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := m.Binary("b")
			m.SetObjectiveCoef(v, float64(1+rng.Intn(5)))
			vars[[2]int{i, j}] = v
		}
	}
	for i := 0; i < n; i++ {
		var out, in []Var
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			out = append(out, vars[[2]int{i, j}])
			in = append(in, vars[[2]int{j, i}])
		}
		m.ExactlyOne("out", out...)
		m.ExactlyOne("in", in...)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.AtMostOne("no2cyc", vars[[2]int{i, j}], vars[[2]int{j, i}])
		}
	}
	for k := 0; k < 2*n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		p, q := rng.Intn(n), rng.Intn(n)
		if i == j || p == q || (i == p && j == q) {
			continue
		}
		m.AtMostOne("conf", vars[[2]int{i, j}], vars[[2]int{p, q}])
	}
	return m
}

// TestRingLikeMatchesBruteForce checks Solve, cold and warm-started,
// against SolveBrute on tie-heavy ring-shaped models.
func TestRingLikeMatchesBruteForce(t *testing.T) {
	solved := 0
	for seed := int64(0); seed < 6; seed++ {
		m := ringLikeModel(rand.New(rand.NewSource(seed)), 5)
		want, errB := SolveBrute(m)
		got, errS := Solve(m, Options{})
		if (errB == nil) != (errS == nil) {
			t.Fatalf("seed %d: brute err=%v solve err=%v", seed, errB, errS)
		}
		if errB != nil {
			if !errors.Is(errS, ErrInfeasible) {
				t.Fatalf("seed %d: unexpected error class %v", seed, errS)
			}
			continue
		}
		solved++
		checkAgainstBrute(t, m, want, got, fmt.Sprintf("seed %d", seed))
		warm, err := Solve(m, Options{IncumbentHint: want.Values})
		if err != nil {
			t.Fatalf("seed %d: warm-started solve failed: %v", seed, err)
		}
		checkAgainstBrute(t, m, want, warm, fmt.Sprintf("seed %d warm", seed))
		if !warm.WarmStarted {
			t.Fatalf("seed %d: feasible hint not reported as warm start", seed)
		}
	}
	if solved == 0 {
		t.Fatal("no seed produced a feasible model")
	}
}

// TestRepeatedSolvesIdentical pins run-to-run determinism: repeated
// solves of one model return the same bytes.
func TestRepeatedSolvesIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := ringLikeModel(rng, 7)
	first, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 5; run++ {
		again, err := Solve(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(first.Objective) != math.Float64bits(again.Objective) {
			t.Fatalf("run %d: objective changed", run)
		}
		for i := range first.Values {
			if first.Values[i] != again.Values[i] {
				t.Fatalf("run %d: values diverge at var %d", run, i)
			}
		}
	}
}

// TestWarmStartSurvivesBudget: with the node budget exhausted a
// hint-less solve fails with ErrBudget, but a feasible IncumbentHint
// turns the same solve into a usable (non-optimal) solution — the
// mechanism core relies on to retry degraded floorplans.
func TestWarmStartSurvivesBudget(t *testing.T) {
	m := NewModel()
	var vars []Var
	for i := 0; i < 12; i++ {
		v := m.Binary("v")
		m.SetObjectiveCoef(v, float64(i%5))
		vars = append(vars, v)
	}
	for i := 0; i < 12; i += 3 {
		m.ExactlyOne("g", vars[i], vars[i+1], vars[i+2])
	}
	if _, err := Solve(m, Options{MaxNodes: 1}); !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	hint := make([]bool, m.NumVars())
	for i := 0; i < 12; i += 3 {
		hint[i] = true
	}
	sol, err := Solve(m, Options{MaxNodes: 1, IncumbentHint: hint})
	if err != nil {
		t.Fatalf("warm-started budget solve failed: %v", err)
	}
	if sol.Optimal {
		t.Fatal("budget-capped solve must not claim optimality")
	}
	if !sol.WarmStarted {
		t.Fatal("hint not reported as warm start")
	}
	if _, ok := m.Check(sol.Values); !ok {
		t.Fatal("warm-started solution infeasible")
	}
}

// TestSolverStats sanity-checks the new Solution counters.
func TestSolverStats(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := ringLikeModel(rng, 6)
	serial, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Nodes <= 0 {
		t.Fatalf("serial stats: %+v", serial)
	}
	if serial.Propagated == 0 {
		t.Fatal("propagating solver reported zero propagated fixings on a conflict-heavy model")
	}
	if serial.Incumbents == 0 {
		t.Fatal("a feasible solve must record at least one incumbent")
	}
}

// TestDominanceChains: interchangeable columns must be detected and the
// solver must still return an optimum over the full (unrestricted)
// solution space.
func TestDominanceChains(t *testing.T) {
	m := NewModel()
	a := m.Binary("a") // identical columns: same single group membership
	b := m.Binary("b")
	c := m.Binary("c")
	m.SetObjectiveCoef(a, 5)
	m.SetObjectiveCoef(b, 1)
	m.SetObjectiveCoef(c, 5)
	m.ExactlyOne("pick", a, b, c)
	comp := compile(m)
	// Chain sorted by objective then index: b -> a -> c.
	if comp.domSucc[b] != int32(a) || comp.domSucc[a] != int32(c) || comp.domPred[c] != int32(a) {
		t.Fatalf("dominance chain wrong: succ=%v pred=%v", comp.domSucc, comp.domPred)
	}
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != 1 || !sol.Value(b) {
		t.Fatalf("got %+v", sol)
	}
}

// TestZeroObjectiveFeasibility mirrors the mapping colorability use of
// the solver: pure feasibility models with an all-zero objective.
func TestZeroObjectiveFeasibility(t *testing.T) {
	m := NewModel()
	a, b, c := m.Binary("a"), m.Binary("b"), m.Binary("c")
	m.ExactlyOne("g1", a, b)
	m.AtMostOne("conf", b, c)
	m.AddConstraint("need-c", []Term{{c, 1}}, GE, 1)
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Value(a) || sol.Value(b) || !sol.Value(c) {
		t.Fatalf("got %+v", sol.Values)
	}
}
