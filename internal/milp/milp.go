// Package milp provides a small mixed-integer-linear-programming layer
// for 0/1 decision models, replacing the Gurobi dependency of the paper
// (Sec. IV implements the Sec. III-A model with Gurobi).
//
// The package has two halves:
//
//   - a modelling API (binary variables, linear constraints, a linear
//     minimization objective) mirroring how the paper states Eq. (1)-(4);
//   - two exact solvers: a propagating, warm-startable branch-and-bound
//     with bitset-backed occurrence structures and dominance pruning
//     (Solve), and an exhaustive reference solver that tests use as the
//     exactness oracle (SolveBrute).
//
// The branch-and-bound is exact: when it returns without hitting the
// node budget, the solution is optimal. Production solves the mapping
// spare repack and colorability models with it; Step 1's ring model is
// solved by internal/ring's assignment branch-and-bound, and the literal
// Eq. (1)-(4) form of that model (ring.NewMILPInstance) is kept as a
// test cross-check and as the generic-solver workload of xbench -solver.
// See DESIGN.md "Solver internals" for the propagation, bounding and
// canonical-witness machinery.
package milp

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Eps is the single feasibility/optimality tolerance used throughout
// the package: constraint checks, feasibility windows, lower-bound
// pruning and incumbent comparisons all measure against it.
const Eps = 1e-9

// defaultMaxNodes is the node budget applied when Options.MaxNodes is 0.
const defaultMaxNodes = 10_000_000

// Var identifies a binary decision variable within a Model.
type Var int

// Sense is the comparison direction of a linear constraint.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // less-than-or-equal
	GE              // greater-than-or-equal
	EQ              // equal
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "="
	}
}

// Term is a coefficient applied to a variable inside a linear expression.
type Term struct {
	Var  Var
	Coef float64
}

// Constraint is a linear constraint sum(Terms) Sense RHS.
type Constraint struct {
	Name  string
	Terms []Term
	Sense Sense
	RHS   float64
}

// Model is a 0/1 integer linear program: minimize c^T x subject to
// linear constraints, x binary.
type Model struct {
	names []string
	obj   []float64
	cons  []Constraint
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// Binary adds a binary decision variable and returns its handle.
func (m *Model) Binary(name string) Var {
	m.names = append(m.names, name)
	m.obj = append(m.obj, 0)
	return Var(len(m.names) - 1)
}

// NumVars returns the number of variables in the model.
func (m *Model) NumVars() int { return len(m.names) }

// NumConstraints returns the number of constraints in the model.
func (m *Model) NumConstraints() int { return len(m.cons) }

// Name returns the name given to v when it was created.
func (m *Model) Name(v Var) string { return m.names[v] }

// SetObjectiveCoef sets the minimization coefficient of v.
func (m *Model) SetObjectiveCoef(v Var, c float64) { m.obj[v] = c }

// AddConstraint appends a linear constraint to the model. Terms with a
// zero coefficient are dropped; duplicate variables are merged.
func (m *Model) AddConstraint(name string, terms []Term, sense Sense, rhs float64) {
	merged := map[Var]float64{}
	for _, t := range terms {
		merged[t.Var] += t.Coef
	}
	clean := make([]Term, 0, len(merged))
	for v, c := range merged {
		if c != 0 {
			clean = append(clean, Term{v, c})
		}
	}
	sort.Slice(clean, func(i, j int) bool { return clean[i].Var < clean[j].Var })
	m.cons = append(m.cons, Constraint{Name: name, Terms: clean, Sense: sense, RHS: rhs})
}

// AtMostOne adds the constraint sum(vars) <= 1.
func (m *Model) AtMostOne(name string, vars ...Var) {
	terms := make([]Term, len(vars))
	for i, v := range vars {
		terms[i] = Term{v, 1}
	}
	m.AddConstraint(name, terms, LE, 1)
}

// ExactlyOne adds the constraint sum(vars) == 1.
func (m *Model) ExactlyOne(name string, vars ...Var) {
	terms := make([]Term, len(vars))
	for i, v := range vars {
		terms[i] = Term{v, 1}
	}
	m.AddConstraint(name, terms, EQ, 1)
}

// Solution holds variable values and the objective of a solve.
type Solution struct {
	Values    []bool
	Objective float64
	// Optimal reports whether the solver proved optimality (it did not
	// stop early on the node budget).
	Optimal bool
	// Nodes is the number of branch-and-bound nodes explored, including
	// the canonical witness dive.
	Nodes int
	// Propagated counts variable fixings derived by unit propagation
	// rather than branching.
	Propagated int
	// Pruned counts subtrees cut by the admissible lower bound.
	Pruned int
	// Incumbents counts improvements accepted into the incumbent
	// (including a feasible IncumbentHint).
	Incumbents int
	// WarmStarted reports whether a feasible IncumbentHint primed the
	// incumbent.
	WarmStarted bool
}

// Value reports the value assigned to v.
func (s *Solution) Value(v Var) bool { return s.Values[v] }

// ErrInfeasible is returned when the model has no feasible assignment.
var ErrInfeasible = errors.New("milp: model is infeasible")

// ErrBudget is returned when the node budget was exhausted before any
// feasible solution was found.
var ErrBudget = errors.New("milp: node budget exhausted without a feasible solution")

// Options tunes the branch-and-bound solver.
type Options struct {
	// MaxNodes bounds the number of explored nodes; 0 means a generous
	// default (10 million).
	MaxNodes int
	// IncumbentHint, when non-nil, primes the upper bound with a known
	// feasible solution (e.g. from a heuristic warm start). Infeasible
	// hints are ignored; a hint of the wrong length is an error.
	IncumbentHint []bool
}

const (
	unset int8 = iota
	zero
	one
)

// Check evaluates an assignment against all constraints, returning the
// objective and whether every constraint is satisfied.
func (m *Model) Check(values []bool) (obj float64, ok bool) {
	for i, v := range values {
		if v {
			obj += m.obj[i]
		}
	}
	for _, c := range m.cons {
		lhs := 0.0
		for _, t := range c.Terms {
			if values[t.Var] {
				lhs += t.Coef
			}
		}
		switch c.Sense {
		case LE:
			if lhs > c.RHS+Eps {
				return obj, false
			}
		case GE:
			if lhs < c.RHS-Eps {
				return obj, false
			}
		case EQ:
			if math.Abs(lhs-c.RHS) > Eps {
				return obj, false
			}
		}
	}
	return obj, true
}

// SolveBrute exhaustively enumerates all assignments. It is exponential
// and intended only for cross-validating Solve on tiny models in tests.
func SolveBrute(m *Model) (*Solution, error) {
	n := m.NumVars()
	if n > 24 {
		return nil, fmt.Errorf("milp: SolveBrute limited to 24 vars, model has %d", n)
	}
	best := math.Inf(1)
	var bestVals []bool
	vals := make([]bool, n)
	for mask := 0; mask < 1<<n; mask++ {
		for i := 0; i < n; i++ {
			vals[i] = mask&(1<<i) != 0
		}
		if obj, ok := m.Check(vals); ok && obj < best {
			best = obj
			bestVals = append([]bool(nil), vals...)
		}
	}
	if bestVals == nil {
		return nil, ErrInfeasible
	}
	return &Solution{Values: bestVals, Objective: best, Optimal: true}, nil
}
