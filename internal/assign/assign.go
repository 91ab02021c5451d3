// Package assign implements the Hungarian algorithm for the linear
// assignment problem. It is the bounding engine behind the exact ring
// waveguide constructor: the paper's MILP (Sec. III-A) is an assignment
// problem (every node picks exactly one successor) with side constraints,
// and the assignment relaxation yields the strong lower bound used by
// branch-and-bound.
//
// Costs are float64; Forbidden marks cells that must not be chosen
// (for example the diagonal of a successor matrix, banned edges during
// branching, or conflict-eliminated edges).
//
// Solve is a one-shot call. Solver exposes the same algorithm phase by
// phase, with a reusable workspace, for branch-and-bound: a child node
// whose cost matrix differs from its parent's only in rows ≥ r resumes
// the parent's run at phase r (Resume, Run), and Bound re-optimises the
// parent's final assignment after a few cells are banned.
package assign

import (
	"errors"
	"math"
)

// Forbidden is the cost value that marks an inadmissible assignment cell.
const Forbidden = math.MaxFloat64

// ErrInfeasible is returned when no perfect assignment avoids all
// forbidden cells.
var ErrInfeasible = errors.New("assign: no feasible perfect assignment")

// Solve computes a minimum-cost perfect assignment on an n-by-n cost
// matrix using the O(n^3) shortest-augmenting-path formulation of the
// Hungarian algorithm (Jonker-Volgenant style with row/column
// potentials).
//
// It returns rowToCol where rowToCol[i] is the column assigned to row i,
// along with the total cost. Cells with cost Forbidden are never chosen;
// if they cannot be avoided, ErrInfeasible is returned.
func Solve(cost [][]float64) (rowToCol []int, total float64, err error) {
	n := len(cost)
	if n == 0 {
		return nil, 0, nil
	}
	flat := make([]float64, 0, n*n)
	for _, row := range cost {
		if len(row) != n {
			return nil, 0, errors.New("assign: cost matrix is not square")
		}
		flat = append(flat, row...)
	}
	s := NewSolver(n)
	if !s.Run(flat, 0) {
		return nil, 0, ErrInfeasible
	}
	return s.Assignment(flat)
}

// Solver is the Hungarian algorithm on a flat row-major n×n cost matrix
// (cell (i, j) at index i*n+j), run one phase per row. Phase k matches
// row k by a shortest augmenting path; it reads only row k and the rows
// already matched, all < k. The solver records its state (potentials
// and matching) after every phase, so a run on a matrix that differs
// only in rows ≥ r can resume at phase r from that record and replay
// the from-scratch run bit for bit. All memory is allocated by
// NewSolver; Run, Resume, Bound and Assignment allocate nothing.
type Solver struct {
	n int
	// Internally 1-indexed, following the classic formulation: u and v
	// are row and column potentials, p[j] is the row matched to column
	// j (0 = none); index 0 is the virtual row and column.
	u, v []float64
	p    []int
	// Per-phase scratch.
	way  []int
	minv []float64
	used []bool
	// trailUV[k] and trailP[k] hold (u, v) and p after phase k.
	trailUV  []float64 // n × 2(n+1)
	trailP   []int     // n × (n+1)
	rowToCol []int
}

// NewSolver returns a solver for n×n matrices in its initial state.
func NewSolver(n int) *Solver {
	m := n + 1
	return &Solver{
		n:        n,
		u:        make([]float64, m),
		v:        make([]float64, m),
		p:        make([]int, m),
		way:      make([]int, m),
		minv:     make([]float64, m),
		used:     make([]bool, m),
		trailUV:  make([]float64, n*2*m),
		trailP:   make([]int, n*m),
		rowToCol: make([]int, n),
	}
}

// Run executes phases from..n-1 on cost, starting from the solver's
// current state (the initial state for from = 0, or the state Resume
// loaded). It reports false when some phase finds no augmenting path:
// the matrix then has no feasible perfect assignment.
func (s *Solver) Run(cost []float64, from int) bool {
	m := s.n + 1
	for k := from; k < s.n; k++ {
		if !s.phase(cost, k+1) {
			return false
		}
		uv := s.trailUV[k*2*m : (k+1)*2*m]
		copy(uv[:m], s.u)
		copy(uv[m:], s.v)
		copy(s.trailP[k*m:(k+1)*m], s.p)
	}
	return true
}

// Resume loads the state parent reached after phase r-1, and parent's
// record of phases 0..r-1, so that Run(cost, r) continues parent's run.
// r = 0 loads the initial state. s and parent must have the same size.
func (s *Solver) Resume(parent *Solver, r int) {
	m := s.n + 1
	copy(s.trailUV[:r*2*m], parent.trailUV[:r*2*m])
	copy(s.trailP[:r*m], parent.trailP[:r*m])
	if r == 0 {
		clear(s.u)
		clear(s.v)
		clear(s.p)
		return
	}
	uv := parent.trailUV[(r-1)*2*m : r*2*m]
	copy(s.u, uv[:m])
	copy(s.v, uv[m:])
	copy(s.p, parent.trailP[(r-1)*m:r*m])
}

// Bound returns the optimum of cost, a matrix that equals the one parent
// solved to completion except that the cells at the flat indices in
// banned now cost more (typically Forbidden). It starts from parent's
// final potentials, which stay dual-feasible because no cost fell,
// unmatches the rows whose matched cell is in banned and re-augments
// only those rows: O(n²) per row instead of a full solve. ok is false
// when the matrix has no feasible perfect assignment. Ties may be broken
// differently from a from-scratch run, so only the value is reported;
// it equals Solve's total up to floating-point rounding.
func (s *Solver) Bound(parent *Solver, cost []float64, banned []int) (value float64, ok bool) {
	copy(s.u, parent.u)
	copy(s.v, parent.v)
	copy(s.p, parent.p)
	for _, c := range banned {
		i, j := c/s.n+1, c%s.n+1
		if s.p[j] == i {
			s.p[j] = 0
		}
	}
	for _, c := range banned {
		i := c/s.n + 1
		if !s.matched(i) && !s.phase(cost, i) {
			return 0, false
		}
	}
	_, value, err := s.Assignment(cost)
	return value, err == nil
}

// matched reports whether row i (1-indexed) has a column.
func (s *Solver) matched(i int) bool {
	for j := 1; j <= s.n; j++ {
		if s.p[j] == i {
			return true
		}
	}
	return false
}

// Assignment decodes the solver's current matching after a successful
// Run (or Bound): rowToCol[i] is the column of row i and total the sum
// of their costs, accumulated in row order. The slice is the solver's
// own buffer, overwritten by the next call.
func (s *Solver) Assignment(cost []float64) (rowToCol []int, total float64, err error) {
	n := s.n
	for j := 1; j <= n; j++ {
		if s.p[j] == 0 {
			return nil, 0, ErrInfeasible
		}
		s.rowToCol[s.p[j]-1] = j - 1
	}
	for i := 0; i < n; i++ {
		c := cost[i*n+s.rowToCol[i]]
		if c == Forbidden {
			return nil, 0, ErrInfeasible
		}
		total += c
	}
	return s.rowToCol, total, nil
}

// phase matches the free row i (1-indexed) along a shortest augmenting
// path in the reduced costs and updates the potentials. It reports false
// when no augmenting path exists.
func (s *Solver) phase(cost []float64, i int) bool {
	n := s.n
	inf := math.Inf(1)
	u, v, p, way, minv, used := s.u, s.v, s.p, s.way, s.minv, s.used
	p[0] = i
	j0 := 0
	for j := range minv {
		minv[j] = inf
		used[j] = false
	}
	for {
		used[j0] = true
		i0 := p[j0]
		row, ui := cost[(i0-1)*n:i0*n], u[i0]
		delta := inf
		j1 := -1
		for j := 1; j <= n; j++ {
			if used[j] {
				continue
			}
			c := row[j-1]
			if c == Forbidden {
				c = inf
			}
			cur := c - ui - v[j]
			if cur < minv[j] {
				minv[j] = cur
				way[j] = j0
			}
			if minv[j] < delta {
				delta = minv[j]
				j1 = j
			}
		}
		if j1 < 0 || math.IsInf(delta, 1) {
			return false
		}
		for j := 0; j <= n; j++ {
			if used[j] {
				u[p[j]] += delta
				v[j] -= delta
			} else {
				minv[j] -= delta
			}
		}
		j0 = j1
		if p[j0] == 0 {
			break
		}
	}
	// Augment along the alternating path.
	for j0 != 0 {
		j1 := way[j0]
		p[j0] = p[j1]
		j0 = j1
	}
	return true
}
