package milp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestSimpleMinimize(t *testing.T) {
	m := NewModel()
	a := m.Binary("a")
	b := m.Binary("b")
	c := m.Binary("c")
	m.SetObjectiveCoef(a, 3)
	m.SetObjectiveCoef(b, 1)
	m.SetObjectiveCoef(c, 2)
	m.ExactlyOne("pick", a, b, c)
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Optimal || sol.Objective != 1 || !sol.Value(b) || sol.Value(a) || sol.Value(c) {
		t.Fatalf("got %+v", sol)
	}
}

func TestConflictConstraint(t *testing.T) {
	m := NewModel()
	a := m.Binary("a")
	b := m.Binary("b")
	m.SetObjectiveCoef(a, 1)
	m.SetObjectiveCoef(b, 2)
	m.ExactlyOne("ga", a)
	m.AtMostOne("conflict", a, b)
	m.AddConstraint("need-b", []Term{{b, 1}}, GE, 1)
	if _, err := Solve(m, Options{}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestInfeasibleEquality(t *testing.T) {
	m := NewModel()
	a := m.Binary("a")
	b := m.Binary("b")
	m.AddConstraint("impossible", []Term{{a, 1}, {b, 1}}, EQ, 3)
	if _, err := Solve(m, Options{}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestNegativeCoefficients(t *testing.T) {
	// minimize -2a - b subject to a + b <= 1: pick a.
	m := NewModel()
	a := m.Binary("a")
	b := m.Binary("b")
	m.SetObjectiveCoef(a, -2)
	m.SetObjectiveCoef(b, -1)
	m.AtMostOne("cap", a, b)
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != -2 || !sol.Value(a) || sol.Value(b) {
		t.Fatalf("got %+v", sol)
	}
}

func TestGEConstraint(t *testing.T) {
	// minimize a+b+c subject to a+b+c >= 2.
	m := NewModel()
	vs := []Var{m.Binary("a"), m.Binary("b"), m.Binary("c")}
	terms := make([]Term, len(vs))
	for i, v := range vs {
		m.SetObjectiveCoef(v, 1)
		terms[i] = Term{v, 1}
	}
	m.AddConstraint("atleast2", terms, GE, 2)
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != 2 {
		t.Fatalf("objective = %v, want 2", sol.Objective)
	}
}

func TestMergedDuplicateTerms(t *testing.T) {
	m := NewModel()
	a := m.Binary("a")
	// a + a <= 1 merges to 2a <= 1, forcing a = 0.
	m.AddConstraint("dup", []Term{{a, 1}, {a, 1}}, LE, 1)
	m.SetObjectiveCoef(a, -5)
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value(a) {
		t.Fatal("a should be forced to 0")
	}
}

func TestIncumbentHint(t *testing.T) {
	m := NewModel()
	a := m.Binary("a")
	b := m.Binary("b")
	m.SetObjectiveCoef(a, 1)
	m.SetObjectiveCoef(b, 5)
	m.ExactlyOne("pick", a, b)
	hint := []bool{false, true} // feasible but suboptimal
	sol, err := Solve(m, Options{IncumbentHint: hint})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != 1 {
		t.Fatalf("objective = %v, want 1", sol.Objective)
	}
	// Wrong-length hint is an error.
	if _, err := Solve(m, Options{IncumbentHint: []bool{true}}); err == nil {
		t.Fatal("want error for bad hint length")
	}
}

func TestCheck(t *testing.T) {
	m := NewModel()
	a := m.Binary("a")
	b := m.Binary("b")
	m.SetObjectiveCoef(a, 2)
	m.SetObjectiveCoef(b, 3)
	m.AtMostOne("c", a, b)
	if obj, ok := m.Check([]bool{true, false}); !ok || obj != 2 {
		t.Fatalf("Check = %v %v", obj, ok)
	}
	if _, ok := m.Check([]bool{true, true}); ok {
		t.Fatal("Check should reject a+b=2")
	}
}

// randomModel builds a small random model with exactly-one partitions and
// at-most-one conflicts — the same structural family as the paper's ring
// model — plus occasional loose variables (negative objectives included),
// at-least-one rows and non-unit generic rows so every solver code path
// (partition bound, negative grouping, windowed propagation, dominance
// over the interchangeable group members) sees corpus coverage.
func randomModel(rng *rand.Rand) *Model {
	m := NewModel()
	nGroups := 2 + rng.Intn(3)
	groupSize := 2 + rng.Intn(3)
	var all []Var
	for g := 0; g < nGroups; g++ {
		var vars []Var
		for k := 0; k < groupSize; k++ {
			v := m.Binary("v")
			m.SetObjectiveCoef(v, float64(rng.Intn(20)-4))
			vars = append(vars, v)
			all = append(all, v)
		}
		m.ExactlyOne("grp", vars...)
	}
	nConf := rng.Intn(6)
	for c := 0; c < nConf; c++ {
		i := all[rng.Intn(len(all))]
		j := all[rng.Intn(len(all))]
		if i != j {
			m.AtMostOne("conf", i, j)
		}
	}
	// Loose variables outside every partition.
	for k := rng.Intn(3); k > 0; k-- {
		v := m.Binary("loose")
		m.SetObjectiveCoef(v, float64(rng.Intn(20)-10))
		all = append(all, v)
	}
	if rng.Intn(3) == 0 {
		// An at-least-one row over a few distinct variables.
		picks := map[Var]bool{}
		for k := 0; k < 3; k++ {
			picks[all[rng.Intn(len(all))]] = true
		}
		terms := make([]Term, 0, len(picks))
		for v := range picks {
			terms = append(terms, Term{v, 1})
		}
		m.AddConstraint("atleast", terms, GE, 1)
	}
	if rng.Intn(3) == 0 {
		// A generic non-unit row: 2i + j <= 2.
		i := all[rng.Intn(len(all))]
		j := all[rng.Intn(len(all))]
		if i != j {
			m.AddConstraint("gen", []Term{{i, 2}, {j, 1}}, LE, 2)
		}
	}
	return m
}

func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 150; trial++ {
		m := randomModel(rng)
		if m.NumVars() > 24 {
			continue
		}
		want, errB := SolveBrute(m)
		got, errS := Solve(m, Options{})
		if (errB == nil) != (errS == nil) {
			t.Fatalf("trial %d: brute err=%v solve err=%v", trial, errB, errS)
		}
		if errB != nil {
			continue
		}
		checkAgainstBrute(t, m, want, got, fmt.Sprintf("trial %d", trial))
		// A warm-started solve (the brute optimum as hint) must agree
		// too and must report the warm start.
		warm, err := Solve(m, Options{IncumbentHint: want.Values})
		if err != nil {
			t.Fatalf("trial %d: warm-started solve failed: %v", trial, err)
		}
		checkAgainstBrute(t, m, want, warm, fmt.Sprintf("trial %d warm", trial))
		if !warm.WarmStarted {
			t.Fatalf("trial %d: feasible hint not reported as warm start", trial)
		}
	}
}

// checkAgainstBrute requires got to reach the brute-force optimum with
// a feasible assignment.
func checkAgainstBrute(t *testing.T, m *Model, want, got *Solution, what string) {
	t.Helper()
	if math.Abs(want.Objective-got.Objective) > Eps {
		t.Fatalf("%s: brute=%v solve=%v", what, want.Objective, got.Objective)
	}
	if !got.Optimal {
		t.Fatalf("%s: solve did not prove optimality", what)
	}
	if _, ok := m.Check(got.Values); !ok {
		t.Fatalf("%s: solver returned infeasible assignment", what)
	}
}

func TestSolveBruteVarLimit(t *testing.T) {
	m := NewModel()
	for i := 0; i < 25; i++ {
		m.Binary("v")
	}
	if _, err := SolveBrute(m); err == nil {
		t.Fatal("want error above the brute-force variable limit")
	}
}

func TestNodeBudget(t *testing.T) {
	m := NewModel()
	// A model big enough to need more than 1 node.
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
}

func TestSenseString(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Fatal("Sense.String broken")
	}
}

func TestModelAccessors(t *testing.T) {
	m := NewModel()
	v := m.Binary("hello")
	m.AtMostOne("c", v)
	if m.NumVars() != 1 || m.NumConstraints() != 1 || m.Name(v) != "hello" {
		t.Fatal("accessors broken")
	}
}

func BenchmarkSolvePartitioned(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m := NewModel()
	var all []Var
	for g := 0; g < 12; g++ {
		var vars []Var
		for k := 0; k < 6; k++ {
			v := m.Binary("v")
			m.SetObjectiveCoef(v, float64(rng.Intn(50)))
			vars = append(vars, v)
			all = append(all, v)
		}
		m.ExactlyOne("g", vars...)
	}
	for c := 0; c < 30; c++ {
		i := all[rng.Intn(len(all))]
		j := all[rng.Intn(len(all))]
		if i != j {
			m.AtMostOne("conf", i, j)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(m, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
