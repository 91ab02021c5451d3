// Package ring implements Step 1 of the XRing flow (Sec. III-A): ring
// waveguide construction. All network nodes must be connected into a
// single cycle of minimum total Manhattan length whose edges can be
// implemented as L-shaped waveguides without crossings.
//
// The paper models this as a modified travelling-salesman problem:
// an assignment structure (each node has exactly one incoming and one
// outgoing selected edge, Eq. 1), no 2-cycles (Eq. 2), and pairwise
// conflict constraints between edges whose four L-shaped implementation
// option pairs all cross (Eq. 3, Fig. 6), minimizing total Manhattan
// length (Eq. 4). Sub-tours are *not* excluded in the model; the
// optimizer's sub-cycles are merged afterwards by a heuristic
// (Fig. 6(f)).
//
// Two exact solvers are provided:
//
//   - Construct: a branch-and-bound around the Hungarian assignment
//     relaxation (the production path, replacing Gurobi);
//   - ConstructMILP: the literal Eq. (1)-(4) model (NewMILPInstance) on
//     the generic internal/milp solver. Only tests call it, as an
//     independent cross-check of Construct; xbench -solver times
//     milp.Solve on the same models.
//
// Both share one Eq. (3) conflict table: a dense bitset over pairs of
// undirected edges, filled by an allocation-free geom.EdgesConflict scan
// sharded over the worker pool (skipped under DisableConflicts). The
// branch-and-bound keeps one cost matrix and bans cells in place. Each
// child is first bounded from its parent's final duals with an O(N²)
// re-augmentation (assign.Solver.Bound), which prunes most children;
// a child that survives resumes its parent's Hungarian run at the first
// row it changed (assign.Solver.Resume). The resumed run replays a
// from-scratch solve bit for bit, so the search visits, prunes and
// returns exactly what a search that re-solved every node would.
package ring

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"xring/internal/assign"
	"xring/internal/geom"
	"xring/internal/milp"
	"xring/internal/noc"
	"xring/internal/obs"
	"xring/internal/parallel"
)

// Step-1 telemetry: branch-and-bound nodes visited and pruned (bound
// cuts plus infeasible relaxations), incumbent improvements, and the
// Eq. (3) conflict-pair count per instance. The B&B counts accumulate
// in the solver state and post once per solve, so the recursion itself
// carries no atomics.
var (
	mBBNodes       = obs.NewCounter("ring.bb.nodes")
	mBBPruned      = obs.NewCounter("ring.bb.pruned")
	mBBIncumbents  = obs.NewCounter("ring.bb.incumbents")
	mConflictPairs = obs.NewCounter("ring.conflict.pairs")
)

// Result is the outcome of ring construction.
type Result struct {
	// Tour is the synthesized cyclic node order (node IDs).
	Tour []int
	// Orders is the chosen L-routing option per tour edge
	// (edge i = Tour[i] -> Tour[(i+1)%N]).
	Orders []geom.LOrder
	// Length is the total tour length in mm.
	Length float64
	// ModelObjective is the optimum of the Eq. (1)-(4) model before
	// sub-cycle merging (equals Length when no merging was needed).
	ModelObjective float64
	// Subcycles is the number of independent cycles the optimizer
	// produced before merging.
	Subcycles int
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// Optimal reports whether the model was solved to proven optimality.
	Optimal bool
}

// Options tunes the constructors.
type Options struct {
	// MaxNodes caps branch-and-bound nodes (default 500000).
	MaxNodes int
	// DisableConflicts drops Eq. (3), for ablation studies.
	DisableConflicts bool
}

type edgeKey struct{ a, b int } // undirected, a < b

func mkEdge(i, j int) edgeKey {
	if i > j {
		i, j = j, i
	}
	return edgeKey{i, j}
}

// conflictTable holds the paper's four-option conflict test for every
// pair of undirected candidate edges. Edge (a, b), a < b, has index
// a(2n−a−1)/2 + b−a−1, which numbers the pairs in the order the loops
// i < j enumerate them; the table is a dense symmetric bitset over
// index pairs (E = n(n−1)/2 edges, E² bits: 9.5 KB at n = 24). A table
// with nil bits (the DisableConflicts ablation) has no conflicts.
type conflictTable struct {
	n     int
	edges []edgeKey // by index
	bits  []uint64  // bit x·E+y set when edges x and y conflict
	pairs int       // conflicting unordered pairs
}

// edge returns the index of the undirected edge {i, j}.
func (ct *conflictTable) edge(i, j int) int {
	if i > j {
		i, j = j, i
	}
	return i*(2*ct.n-i-1)/2 + j - i - 1
}

// has reports whether the edges with indices x and y conflict.
func (ct *conflictTable) has(x, y int) bool {
	if ct.bits == nil {
		return false
	}
	k := x*len(ct.edges) + y
	return ct.bits[k>>6]&(1<<(k&63)) != 0
}

// set records that the edges with indices x and y conflict.
func (ct *conflictTable) set(x, y int) {
	e := len(ct.edges)
	for _, k := range [2]int{x*e + y, y*e + x} {
		ct.bits[k>>6] |= 1 << (k & 63)
	}
}

func (ct *conflictTable) conflicts(e, f edgeKey) bool {
	return ct.has(ct.edge(e.a, e.b), ct.edge(f.a, f.b))
}

// pairList returns every conflicting unordered pair once, in ascending
// order of (first, second) edge index.
func (ct *conflictTable) pairList() [][2]edgeKey {
	out := make([][2]edgeKey, 0, ct.pairs)
	for x := range ct.edges {
		for y := x + 1; y < len(ct.edges); y++ {
			if ct.has(x, y) {
				out = append(out, [2]edgeKey{ct.edges[x], ct.edges[y]})
			}
		}
	}
	return out
}

// conflictsFor returns the Eq. (3) conflict table, or an empty one
// without running the O(N⁴) scan when the ablation drops Eq. (3).
func conflictsFor(net *noc.Network, opt Options) *conflictTable {
	if opt.DisableConflicts {
		return &conflictTable{n: net.N()}
	}
	return buildConflicts(net)
}

// buildConflicts runs the paper's four-option conflict test over every
// pair of candidate edges. The O(N⁴) pair scan is sharded by stripes of
// the first edge index and fanned out over the shared worker pool; each
// stripe collects hits locally and the stripes merge into the table
// afterwards, so the result is the same set for any worker count.
func buildConflicts(net *noc.Network) *conflictTable {
	n := net.N()
	ct := &conflictTable{n: n}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ct.edges = append(ct.edges, edgeKey{i, j})
		}
	}
	edges := ct.edges
	ct.bits = make([]uint64, (len(edges)*len(edges)+63)/64)
	pos := net.Positions()
	stripes := parallel.Workers() * 4
	if stripes > len(edges) {
		stripes = len(edges)
	}
	if stripes == 0 {
		return ct
	}
	found, ferr := parallel.Map(context.Background(), stripes, func(s int) ([][2]int32, error) {
		var local [][2]int32
		// Stripe s owns first-edge indices x ≡ s (mod stripes), which
		// balances the triangular workload across stripes.
		for x := s; x < len(edges); x += stripes {
			e := edges[x]
			for y := x + 1; y < len(edges); y++ {
				f := edges[y]
				if geom.EdgesConflict(pos[e.a], pos[e.b], pos[f.a], pos[f.b]) {
					local = append(local, [2]int32{int32(x), int32(y)})
				}
			}
		}
		return local, nil
	})
	if ferr != nil {
		// The stripes never return errors, so this can only be a panic
		// the pool contained; an empty conflict table would silently
		// produce wrong rings, so fail loudly instead.
		panic(ferr)
	}
	for _, local := range found {
		ct.pairs += len(local)
		for _, p := range local {
			ct.set(int(p[0]), int(p[1]))
		}
	}
	mConflictPairs.Add(int64(ct.pairs))
	return ct
}

// Construct synthesizes the ring for a network using the assignment
// branch-and-bound. It returns the merged single tour, the per-edge
// L-orders, and solve statistics.
func Construct(net *noc.Network, opt Options) (*Result, error) {
	return ConstructCtx(context.Background(), net, opt)
}

// ConstructCtx is Construct under a context: spans nest beneath the
// caller's trace (ctx is otherwise unused — the solve itself is not
// cancellable mid-search, MaxNodes bounds it instead).
func ConstructCtx(ctx context.Context, net *noc.Network, opt Options) (*Result, error) {
	n := net.N()
	if n < 3 {
		return nil, fmt.Errorf("ring: need at least 3 nodes, have %d", n)
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	ctx, span := obs.Start(ctx, "ring.construct", obs.Int("nodes", n))
	defer span.End()

	_, cspan := obs.Start(ctx, "ring.conflicts")
	ct := conflictsFor(net, opt)
	cspan.Set(obs.Int("pairs", ct.pairs))
	cspan.End()

	_, sspan := obs.Start(ctx, "ring.solve")
	succ, objective, nodes, optimal, err := solveAssignmentBB(net, ct, opt)
	sspan.Set(obs.Int("bb_nodes", nodes), obs.Bool("optimal", optimal))
	sspan.End()
	if err != nil {
		return nil, err
	}
	_, mspan := obs.Start(ctx, "ring.merge")
	cycles := extractCycles(succ)
	tour, err := mergeCycles(net, ct, cycles)
	mspan.Set(obs.Int("subcycles", len(cycles)))
	mspan.End()
	if err != nil {
		return nil, err
	}
	orders, err := chooseOrders(net, tour)
	if err != nil {
		return nil, err
	}
	span.Set(obs.Int("bb_nodes", nodes), obs.Int("subcycles", len(cycles)),
		obs.Bool("optimal", optimal))
	return &Result{
		Tour:           tour,
		Orders:         orders,
		Length:         tourLength(net, tour),
		ModelObjective: objective,
		Subcycles:      len(cycles),
		Nodes:          nodes,
		Optimal:        optimal,
	}, nil
}

// ConstructHeuristic synthesizes a ring using only the paper's
// heuristic machinery: nearest-neighbour + 2-opt tour construction
// (HeuristicTour) followed by the same L-order embedding as the exact
// path. It never branches, so it completes in polynomial time
// regardless of MaxNodes — the degraded-mode fallback when the exact
// solver exhausts its budget or the deadline is nearly spent. The
// result is marked non-optimal.
func ConstructHeuristic(ctx context.Context, net *noc.Network, opt Options) (*Result, error) {
	n := net.N()
	if n < 3 {
		return nil, fmt.Errorf("ring: need at least 3 nodes, have %d", n)
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	ctx, span := obs.Start(ctx, "ring.construct.heuristic", obs.Int("nodes", n))
	defer span.End()

	_, cspan := obs.Start(ctx, "ring.conflicts")
	ct := conflictsFor(net, opt)
	cspan.Set(obs.Int("pairs", ct.pairs))
	cspan.End()
	tour, err := HeuristicTour(net, ct)
	if err != nil {
		return nil, err
	}
	orders, err := chooseOrders(net, tour)
	if err != nil {
		return nil, err
	}
	length := tourLength(net, tour)
	span.Set(obs.Bool("optimal", false))
	return &Result{
		Tour:           tour,
		Orders:         orders,
		Length:         length,
		ModelObjective: length,
		Subcycles:      1,
		Nodes:          0,
		Optimal:        false,
	}, nil
}

// dedge is a directed edge i→j in the Eq. (1)-(4) assignment model.
type dedge struct{ from, to int }

// MILPInstance is a compiled Eq. (1)-(4) model for one network, ready to
// hand to milp.Solve. Hint carries the construction heuristic's tour as
// the warm-start incumbent; nil when no feasible tour is known.
type MILPInstance struct {
	Model *milp.Model
	Hint  []bool

	n    int
	vars map[dedge]milp.Var
	ct   *conflictTable
}

// NewMILPInstance builds the literal paper model: Eq. (1) degree rows,
// Eq. (2) 2-cycle bans, Eq. (3) conflict pairs, Eq. (4) Manhattan
// objective — plus one symmetry-breaking row. Every directed tour has a
// reversed twin with identical objective (Manhattan costs are symmetric
// and conflicts are on undirected edges), so we keep only the
// orientation with succ(0) < pred(0):
//
//	sum_j j·b_0j − sum_j j·b_j0 ≤ 0
//
// Equality is impossible (2-cycles are banned and n ≥ 3), so exactly one
// orientation of each tour survives and the search space halves without
// losing any optimum. The warm-start tour is reversed as needed to respect
// the same orientation before being encoded as a hint.
func NewMILPInstance(net *noc.Network, opt Options) (*MILPInstance, error) {
	n := net.N()
	if n < 3 {
		return nil, fmt.Errorf("ring: need at least 3 nodes, have %d", n)
	}
	ct := conflictsFor(net, opt)
	pos := net.Positions()

	m := milp.NewModel()
	vars := map[dedge]milp.Var{}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := m.Binary(fmt.Sprintf("b_%d_%d", i, j))
			m.SetObjectiveCoef(v, geom.Manhattan(pos[i], pos[j])) // Eq. (4)
			vars[dedge{i, j}] = v
		}
	}
	// Eq. (1): in/out degree one.
	for i := 0; i < n; i++ {
		var out, in []milp.Var
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			out = append(out, vars[dedge{i, j}])
			in = append(in, vars[dedge{j, i}])
		}
		m.ExactlyOne(fmt.Sprintf("out_%d", i), out...)
		m.ExactlyOne(fmt.Sprintf("in_%d", i), in...)
	}
	// Eq. (2): no 2-cycles.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.AtMostOne(fmt.Sprintf("no2cyc_%d_%d", i, j), vars[dedge{i, j}], vars[dedge{j, i}])
		}
	}
	// Eq. (3): conflicting edge pairs (undirected conflicts expanded to
	// all four directed combinations).
	for _, pair := range ct.pairList() {
		e, f := pair[0], pair[1]
		for _, de := range []dedge{{e.a, e.b}, {e.b, e.a}} {
			for _, df := range []dedge{{f.a, f.b}, {f.b, f.a}} {
				m.AtMostOne("conflict", vars[de], vars[df])
			}
		}
	}
	// Tour-direction symmetry break: succ(0) < pred(0).
	var symb []milp.Term
	for j := 1; j < n; j++ {
		symb = append(symb,
			milp.Term{Var: vars[dedge{0, j}], Coef: float64(j)},
			milp.Term{Var: vars[dedge{j, 0}], Coef: -float64(j)})
	}
	m.AddConstraint("symbreak", symb, milp.LE, 0)

	inst := &MILPInstance{Model: m, n: n, vars: vars, ct: ct}
	chk := &bbState{net: net, ct: ct, n: n}
	if tour, err := HeuristicTour(net, ct); err == nil && chk.feasible(tourSucc(tour)) {
		inst.Hint = inst.encodeTour(tour)
	}
	return inst, nil
}

// encodeTour converts a node tour into a model incumbent, reversing the
// tour first when its orientation violates the symmetry-break row.
func (inst *MILPInstance) encodeTour(tour []int) []bool {
	t := append([]int(nil), tour...)
	succ := tourSucc(t)
	pred := make([]int, inst.n)
	for i, j := range succ {
		pred[j] = i
	}
	if succ[0] > pred[0] {
		for i, j := 0, len(t)-1; i < j; i, j = i+1, j-1 {
			t[i], t[j] = t[j], t[i]
		}
		succ = tourSucc(t)
	}
	hint := make([]bool, inst.Model.NumVars())
	for i, j := range succ {
		hint[inst.vars[dedge{i, j}]] = true
	}
	return hint
}

// Successors decodes a solver solution back into the succ array of the
// selected directed Hamiltonian structure (-1 for unassigned rows).
func (inst *MILPInstance) Successors(sol *milp.Solution) []int {
	succ := make([]int, inst.n)
	for i := range succ {
		succ[i] = -1
	}
	for de, v := range inst.vars {
		if sol.Value(v) {
			succ[de.from] = de.to
		}
	}
	return succ
}

// ConstructMILP builds and solves the literal Eq. (1)-(4) model with the
// generic 0/1 solver, then applies the same merging. It is exponential
// in the worst case and intended for N ≲ 10 and cross-validation. The
// solve is warm-started from the construction heuristic.
func ConstructMILP(net *noc.Network, opt Options) (*Result, error) {
	inst, err := NewMILPInstance(net, opt)
	if err != nil {
		return nil, err
	}
	maxNodes := opt.MaxNodes
	if maxNodes == 0 {
		maxNodes = 2_000_000
	}
	sol, err := milp.Solve(inst.Model, milp.Options{
		MaxNodes:      maxNodes,
		IncumbentHint: inst.Hint,
	})
	if err != nil {
		return nil, fmt.Errorf("ring: MILP solve: %w", err)
	}
	ct := inst.ct
	succ := inst.Successors(sol)
	cycles := extractCycles(succ)
	tour, err := mergeCycles(net, ct, cycles)
	if err != nil {
		return nil, err
	}
	orders, err := chooseOrders(net, tour)
	if err != nil {
		return nil, err
	}
	return &Result{
		Tour:           tour,
		Orders:         orders,
		Length:         tourLength(net, tour),
		ModelObjective: sol.Objective,
		Subcycles:      len(cycles),
		Nodes:          int(sol.Nodes),
		Optimal:        sol.Optimal,
	}, nil
}

func tourLength(net *noc.Network, tour []int) float64 {
	pos := net.Positions()
	total := 0.0
	for i := range tour {
		total += geom.Manhattan(pos[tour[i]], pos[tour[(i+1)%len(tour)]])
	}
	return total
}

// ---------------------------------------------------------------------
// Assignment branch-and-bound (production solver)
// ---------------------------------------------------------------------

type bbState struct {
	net *noc.Network
	ct  *conflictTable
	n   int
	// cost is the flat n×n successor-cost matrix of the node being
	// searched: branching bans cells in place and restores them on the
	// way back up, so the whole search shares one matrix.
	cost []float64
	// solvers[d] is the Hungarian workspace of the node at depth d; a
	// child resumes its parent's run from it.
	solvers  []*assign.Solver
	selected []edgeKey // firstViolation scratch
	best     float64
	bestSucc []int
	nodes    int
	maxNodes int
	// Telemetry tallies (posted to the obs registry once per solve).
	pruned     int // bound cuts + infeasible relaxations
	incumbents int // times a new best assignment was adopted
}

// tourSucc converts a cyclic tour into a successor function.
func tourSucc(tour []int) []int {
	succ := make([]int, len(tour))
	for i := range tour {
		succ[tour[i]] = tour[(i+1)%len(tour)]
	}
	return succ
}

func solveAssignmentBB(net *noc.Network, ct *conflictTable, opt Options) (succ []int, objective float64, nodes int, optimal bool, err error) {
	st := newBBState(net, ct, opt)
	st.search(0, nil, 0)
	mBBNodes.Add(int64(st.nodes))
	mBBPruned.Add(int64(st.pruned))
	mBBIncumbents.Add(int64(st.incumbents))
	succ, objective, optimal, err = st.outcome()
	return succ, objective, st.nodes, optimal, err
}

// newBBState sets up the search: the cost matrix and the incumbent from
// the heuristic warm start.
func newBBState(net *noc.Network, ct *conflictTable, opt Options) *bbState {
	n := net.N()
	pos := net.Positions()
	cost := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				cost[i*n+j] = assign.Forbidden
			} else {
				cost[i*n+j] = geom.Manhattan(pos[i], pos[j])
			}
		}
	}
	st := &bbState{net: net, ct: ct, n: n, cost: cost, best: math.Inf(1), maxNodes: opt.MaxNodes}
	if st.maxNodes == 0 {
		st.maxNodes = 500_000
	}
	// Warm start from the merge-friendly heuristic: a feasible
	// conflict-free tour is also a feasible assignment.
	if warm, werr := HeuristicTour(net, ct); werr == nil {
		if wsucc := tourSucc(warm); st.feasible(wsucc) {
			st.best = succCost(cost, wsucc)
			st.bestSucc = wsucc
		}
	}
	return st
}

// outcome reports the finished search: the best assignment, its cost
// and whether the search completed within the node budget.
func (st *bbState) outcome() (succ []int, objective float64, optimal bool, err error) {
	if st.bestSucc == nil {
		if st.nodes >= st.maxNodes {
			// The search stopped on the node budget, not on a proof of
			// infeasibility: report it as a budget exhaustion so callers
			// can fall back to the heuristic constructor (errors.Is
			// against milp.ErrBudget).
			return nil, 0, false,
				fmt.Errorf("ring: %w (assignment B&B explored %d of %d nodes)", milp.ErrBudget, st.nodes, st.maxNodes)
		}
		return nil, 0, false, errors.New("ring: no feasible assignment found (conflict constraints unsatisfiable)")
	}
	return st.bestSucc, st.best, st.nodes < st.maxNodes, nil
}

// succCost sums the flat n×n cost of an assignment in row order.
func succCost(cost []float64, succ []int) float64 {
	n := len(succ)
	total := 0.0
	for i, j := range succ {
		total += cost[i*n+j]
	}
	return total
}

// feasible checks the side constraints (2-cycles and conflicts) on a
// complete assignment.
func (st *bbState) feasible(succ []int) bool {
	_, _, ok := st.firstViolation(succ)
	return ok
}

// firstViolation returns the most useful violated constraint of an
// assignment: a 2-cycle (kind 0, pair of node indices) or a conflicting
// selected edge pair (kind 1). ok is true when no violation exists.
func (st *bbState) firstViolation(succ []int) (kind int, data [4]int, ok bool) {
	if st.n > 2 {
		for i, j := range succ {
			if j >= 0 && i < j && succ[j] == i {
				return 0, [4]int{i, j}, false
			}
		}
	}
	selected := st.selected[:0]
	for i, j := range succ {
		if j >= 0 {
			selected = append(selected, mkEdge(i, j))
		}
	}
	st.selected = selected
	for x := 0; x < len(selected); x++ {
		for y := x + 1; y < len(selected); y++ {
			if selected[x] != selected[y] && st.ct.conflicts(selected[x], selected[y]) {
				return 1, [4]int{selected[x].a, selected[x].b, selected[y].a, selected[y].b}, false
			}
		}
	}
	return 0, [4]int{}, true
}

// boundSlack widens the bound-first prune so that it only cuts nodes the
// full solve would cut too: Solver.Bound and a from-scratch solve reach
// the same optimum, but may sum it over different tied assignments and
// so differ in the last bits.
const boundSlack = 1e-7

// search visits the B&B node at depth d. The root solves st.cost from
// scratch. A child's matrix is its parent's (depth d-1) with the cells
// in banned raised to Forbidden, all in rows ≥ r. Its optimum is
// bounded first from the parent's final duals (Solver.Bound, O(n²) per
// banned matched cell), which prunes most children. A child that
// survives resumes the parent's Hungarian run at phase r: phases before
// r read only rows < r, so the resumed run replays a from-scratch solve
// of the child's matrix bit for bit, and the node is decided exactly as
// a from-scratch search would decide it.
func (st *bbState) search(d int, banned []int, r int) {
	st.nodes++
	if st.nodes >= st.maxNodes {
		return
	}
	if d == len(st.solvers) {
		st.solvers = append(st.solvers, assign.NewSolver(st.n))
	}
	s := st.solvers[d]
	if d > 0 {
		parent := st.solvers[d-1]
		if v, ok := s.Bound(parent, st.cost, banned); !ok || v >= st.best-milp.Eps+boundSlack {
			st.pruned++
			return // infeasible branch, or bound
		}
		s.Resume(parent, r)
	}
	var succ []int
	var total float64
	err := assign.ErrInfeasible
	if s.Run(st.cost, r) {
		succ, total, err = s.Assignment(st.cost)
	}
	if err != nil {
		st.pruned++
		return // infeasible branch
	}
	if total >= st.best-milp.Eps {
		st.pruned++
		return // bound
	}
	kind, data, ok := st.firstViolation(succ)
	if ok {
		st.best = total
		st.bestSucc = append([]int(nil), succ...)
		st.incumbents++
		return
	}
	n := st.n
	switch kind {
	case 0: // 2-cycle between data[0] and data[1]
		i, j := data[0], data[1]
		st.branch(d, [2]int{i*n + j, -1})
		st.branch(d, [2]int{j*n + i, -1})
	case 1: // conflict between undirected edges
		e := edgeKey{data[0], data[1]}
		f := edgeKey{data[2], data[3]}
		st.branch(d, [2]int{e.a*n + e.b, e.b*n + e.a})
		st.branch(d, [2]int{f.a*n + f.b, f.b*n + f.a})
	}
}

// branch searches the child of the depth-d node that bans the given flat
// cells (-1 = unused), then restores the matrix.
func (st *bbState) branch(d int, cells [2]int) {
	var banned [2]int
	var saved [2]float64
	nb, r := 0, st.n
	for _, c := range cells {
		if c < 0 || st.cost[c] == assign.Forbidden {
			continue
		}
		banned[nb], saved[nb] = c, st.cost[c]
		st.cost[c] = assign.Forbidden
		nb++
		r = min(r, c/st.n)
	}
	st.search(d+1, banned[:nb], r)
	for k := nb - 1; k >= 0; k-- {
		st.cost[banned[k]] = saved[k]
	}
}

// ---------------------------------------------------------------------
// Sub-cycle extraction and merging (Fig. 6(e)-(f))
// ---------------------------------------------------------------------

// extractCycles decomposes a successor function into its cycles.
func extractCycles(succ []int) [][]int {
	n := len(succ)
	seen := make([]bool, n)
	var cycles [][]int
	for s := 0; s < n; s++ {
		if seen[s] || succ[s] < 0 {
			continue
		}
		var cyc []int
		for v := s; !seen[v]; v = succ[v] {
			seen[v] = true
			cyc = append(cyc, v)
		}
		cycles = append(cycles, cyc)
	}
	return cycles
}

// mergeCycles combines sub-cycles into one tour. For every pair of
// cycles it examines every pair of edges (one per cycle) and both
// reconnection orientations, requiring the two new edges to be
// conflict-free with each other and with all surviving edges, and picks
// the reconnection with the minimum added length. If no conflict-free
// reconnection exists for the best pair, conflict checking against
// surviving edges is relaxed (the paper's heuristic only requires the
// pair itself to be conflict-free).
func mergeCycles(net *noc.Network, ct *conflictTable, cycles [][]int) ([]int, error) {
	pos := net.Positions()
	cur := make([][]int, len(cycles))
	copy(cur, cycles)

	dist := func(i, j int) float64 { return geom.Manhattan(pos[i], pos[j]) }

	for len(cur) > 1 {
		type merge struct {
			ci, cj   int // cycle indices
			xi, yj   int // edge start offsets within the cycles
			reversed bool
			delta    float64
		}
		bestStrict := merge{delta: math.Inf(1)}  // conflict-free vs all surviving edges
		bestRelaxed := merge{delta: math.Inf(1)} // only the new pair is conflict-free

		// Collect all surviving undirected edges for strict checking.
		allEdges := func(skipCi, skipXi, skipCj, skipYj int) []edgeKey {
			var out []edgeKey
			for c, cyc := range cur {
				for k := range cyc {
					if (c == skipCi && k == skipXi) || (c == skipCj && k == skipYj) {
						continue
					}
					out = append(out, mkEdge(cyc[k], cyc[(k+1)%len(cyc)]))
				}
			}
			return out
		}

		for ci := 0; ci < len(cur); ci++ {
			for cj := ci + 1; cj < len(cur); cj++ {
				a, b := cur[ci], cur[cj]
				for xi := range a {
					ax, axn := a[xi], a[(xi+1)%len(a)]
					removed1 := dist(ax, axn)
					for yj := range b {
						by, byn := b[yj], b[(yj+1)%len(b)]
						removed2 := dist(by, byn)
						for _, rev := range [2]bool{false, true} {
							var e1, e2 edgeKey
							var added float64
							if !rev {
								// a: ..ax -> byn.. (b forward), ..by -> axn..
								e1, e2 = mkEdge(ax, byn), mkEdge(by, axn)
								added = dist(ax, byn) + dist(by, axn)
							} else {
								// a: ..ax -> by.. (b reversed), ..byn -> axn..
								e1, e2 = mkEdge(ax, by), mkEdge(byn, axn)
								added = dist(ax, by) + dist(byn, axn)
							}
							delta := added - removed1 - removed2
							if ct.conflicts(e1, e2) {
								continue
							}
							if delta >= bestRelaxed.delta && delta >= bestStrict.delta {
								continue
							}
							strict := true
							for _, other := range allEdges(ci, xi, cj, yj) {
								if ct.conflicts(e1, other) || ct.conflicts(e2, other) {
									strict = false
									break
								}
							}
							if strict && delta < bestStrict.delta {
								bestStrict = merge{ci, cj, xi, yj, rev, delta}
							}
							if delta < bestRelaxed.delta {
								bestRelaxed = merge{ci, cj, xi, yj, rev, delta}
							}
						}
					}
				}
			}
		}
		best := bestStrict
		if math.IsInf(best.delta, 1) {
			best = bestRelaxed
		}
		if math.IsInf(best.delta, 1) {
			return nil, errors.New("ring: cannot merge sub-cycles without conflicts")
		}
		merged := spliceCycles(cur[best.ci], cur[best.cj], best.xi, best.yj, best.reversed)
		var next [][]int
		for c := range cur {
			if c != best.ci && c != best.cj {
				next = append(next, cur[c])
			}
		}
		next = append(next, merged)
		cur = next
	}
	return cur[0], nil
}

// spliceCycles joins cycle b into cycle a by removing edge (a[xi],
// a[xi+1]) and (b[yj], b[yj+1]) and reconnecting.
func spliceCycles(a, b []int, xi, yj int, reversed bool) []int {
	out := make([]int, 0, len(a)+len(b))
	// Walk a from xi+1 around to xi (inclusive): ends at a[xi].
	for k := 1; k <= len(a); k++ {
		out = append(out, a[(xi+k)%len(a)])
	}
	// out ends with a[xi]; append b starting appropriately.
	if !reversed {
		// a[xi] -> b[yj+1] ... b[yj]
		for k := 1; k <= len(b); k++ {
			out = append(out, b[(yj+k)%len(b)])
		}
	} else {
		// a[xi] -> b[yj] ... b[yj+1] (b reversed)
		for k := 0; k < len(b); k++ {
			out = append(out, b[(yj-k+len(b)*2)%len(b)])
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Heuristic warm start
// ---------------------------------------------------------------------

// HeuristicTour builds a conflict-aware tour with nearest-neighbour
// construction followed by 2-opt improvement. It is used to warm-start
// the branch-and-bound and as a fallback for very large networks.
func HeuristicTour(net *noc.Network, ct *conflictTable) ([]int, error) {
	n := net.N()
	pos := net.Positions()
	dist := func(i, j int) float64 { return geom.Manhattan(pos[i], pos[j]) }

	// Nearest neighbour from node 0.
	tour := []int{0}
	used := make([]bool, n)
	used[0] = true
	for len(tour) < n {
		last := tour[len(tour)-1]
		bestJ, bestD := -1, math.Inf(1)
		for j := 0; j < n; j++ {
			if !used[j] && dist(last, j) < bestD {
				bestD = dist(last, j)
				bestJ = j
			}
		}
		tour = append(tour, bestJ)
		used[bestJ] = true
	}

	// 2-opt: reverse segments while it shortens the tour or removes
	// conflicts between tour edges.
	improved := true
	for iter := 0; improved && iter < 200; iter++ {
		improved = false
		for i := 0; i < n-1; i++ {
			for j := i + 1; j < n; j++ {
				a, b := tour[i], tour[(i+1)%n]
				c, d := tour[j], tour[(j+1)%n]
				if a == c || b == d || a == d {
					continue
				}
				delta := dist(a, c) + dist(b, d) - dist(a, b) - dist(c, d)
				conflictNow := ct != nil && ct.conflicts(mkEdge(a, b), mkEdge(c, d))
				conflictAfter := ct != nil && ct.conflicts(mkEdge(a, c), mkEdge(b, d))
				if delta < -milp.Eps || (conflictNow && !conflictAfter && delta <= milp.Eps) {
					// Reverse tour[i+1..j].
					for lo, hi := i+1, j; lo < hi; lo, hi = lo+1, hi-1 {
						tour[lo], tour[hi] = tour[hi], tour[lo]
					}
					improved = true
				}
			}
		}
	}
	// Validate conflict-freedom.
	if ct != nil {
		for i := 0; i < n; i++ {
			ei := mkEdge(tour[i], tour[(i+1)%n])
			for j := i + 1; j < n; j++ {
				ej := mkEdge(tour[j], tour[(j+1)%n])
				if ei != ej && ct.conflicts(ei, ej) {
					return nil, errors.New("ring: heuristic tour has conflicting edges")
				}
			}
		}
	}
	return tour, nil
}

// ---------------------------------------------------------------------
// L-order assignment
// ---------------------------------------------------------------------

// OrdersFor finds a crossing-free L-order assignment for an arbitrary
// tour, or an error when no planar embedding exists. It lets callers
// evaluate externally supplied tours (e.g. manual designs).
func OrdersFor(net *noc.Network, tour []int) ([]geom.LOrder, error) {
	return chooseOrders(net, tour)
}

// chooseOrders assigns an L-routing option to every tour edge so that no
// two non-adjacent edges cross, via backtracking over the two options
// per edge (most-constrained-first).
func chooseOrders(net *noc.Network, tour []int) ([]geom.LOrder, error) {
	n := len(tour)
	pos := net.Positions()
	type edge struct{ a, b geom.Point }
	edges := make([]edge, n)
	for i := range edges {
		edges[i] = edge{pos[tour[i]], pos[tour[(i+1)%n]]}
	}
	// allowed[i][j] for i<j non-adjacent: set of (oi, oj) pairs.
	type optPair [2]geom.LOrder
	allowed := make(map[[2]int][]optPair)
	adjacent := func(i, j int) bool {
		return j == i+1 || (i == 0 && j == n-1)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if adjacent(i, j) {
				continue
			}
			var ok []optPair
			for _, oi := range [2]geom.LOrder{geom.VH, geom.HV} {
				pi := geom.LPath(edges[i].a, edges[i].b, oi)
				for _, oj := range [2]geom.LOrder{geom.VH, geom.HV} {
					pj := geom.LPath(edges[j].a, edges[j].b, oj)
					if !geom.PathsCross(pi, pj) {
						ok = append(ok, optPair{oi, oj})
					}
				}
			}
			if len(ok) == 0 {
				return nil, fmt.Errorf("ring: tour edges %d and %d cannot be embedded without crossing", i, j)
			}
			if len(ok) < 4 {
				allowed[[2]int{i, j}] = ok
			}
		}
	}
	orders := make([]geom.LOrder, n)
	set := make([]bool, n)

	// Order edges by number of constraints (most-constrained first).
	degree := make([]int, n)
	for key := range allowed {
		degree[key[0]]++
		degree[key[1]]++
	}
	seq := make([]int, n)
	for i := range seq {
		seq[i] = i
	}
	sort.Slice(seq, func(x, y int) bool { return degree[seq[x]] > degree[seq[y]] })

	compatible := func(i int, oi geom.LOrder) bool {
		for j := 0; j < n; j++ {
			if !set[j] || j == i {
				continue
			}
			lo, hi := i, j
			swap := false
			if lo > hi {
				lo, hi = hi, lo
				swap = true
			}
			pairs, has := allowed[[2]int{lo, hi}]
			if !has {
				continue
			}
			match := false
			for _, p := range pairs {
				a, b := p[0], p[1]
				if swap {
					a, b = b, a
				}
				if a == oi && b == orders[j] {
					match = true
					break
				}
			}
			if !match {
				return false
			}
		}
		return true
	}

	var backtrack func(k int) bool
	backtrack = func(k int) bool {
		if k == n {
			return true
		}
		i := seq[k]
		for _, o := range [2]geom.LOrder{geom.VH, geom.HV} {
			if compatible(i, o) {
				orders[i] = o
				set[i] = true
				if backtrack(k + 1) {
					return true
				}
				set[i] = false
			}
		}
		return false
	}
	if !backtrack(0) {
		return nil, errors.New("ring: no globally consistent L-order assignment exists")
	}
	return orders, nil
}
