package ring

import (
	"context"
	"errors"
	"math"
	"testing"

	"xring/internal/geom"
	"xring/internal/milp"
	"xring/internal/noc"
	"xring/internal/phys"
	"xring/internal/router"
)

// checkTour validates that a result is a permutation tour with a
// crossing-free embedding, via the router validator.
func checkTour(t *testing.T, net *noc.Network, res *Result) {
	t.Helper()
	if len(res.Tour) != net.N() {
		t.Fatalf("tour has %d entries for %d nodes", len(res.Tour), net.N())
	}
	d, err := router.NewDesign(net, phys.Default(), res.Tour, res.Orders)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("synthesized tour invalid: %v", err)
	}
	if math.Abs(d.Perimeter()-res.Length) > 1e-9 {
		t.Fatalf("reported length %v != perimeter %v", res.Length, d.Perimeter())
	}
}

func TestConstructGrid8(t *testing.T) {
	net := noc.Floorplan8()
	res, err := Construct(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkTour(t, net, res)
	// The optimal 4x2 grid tour has length 16 (8 edges of one pitch).
	if math.Abs(res.Length-16) > 1e-9 {
		t.Fatalf("tour length = %v, want 16", res.Length)
	}
	if !res.Optimal {
		t.Fatal("grid-8 should be solved to optimality")
	}
}

func TestConstructGrid16(t *testing.T) {
	net := noc.Floorplan16()
	res, err := Construct(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkTour(t, net, res)
	if math.Abs(res.Length-32) > 1e-9 {
		t.Fatalf("tour length = %v, want 32", res.Length)
	}
}

func TestConstructGrid32(t *testing.T) {
	net := noc.Floorplan32()
	res, err := Construct(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkTour(t, net, res)
	if math.Abs(res.Length-64) > 1e-9 {
		t.Fatalf("tour length = %v, want 64", res.Length)
	}
}

func TestConstructTooSmall(t *testing.T) {
	net := noc.Grid(2, 1, 2, 1)
	if _, err := Construct(net, Options{}); err == nil {
		t.Fatal("want error for 2-node network")
	}
}

func TestConstructIrregular(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		net := noc.Irregular(9, 10, 10, 1.5, seed)
		res, err := Construct(net, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkTour(t, net, res)
	}
}

func TestConstructMatchesMILPModel(t *testing.T) {
	// On small irregular instances the assignment B&B and the literal
	// Eq. (1)-(4) model must agree on the model optimum.
	for _, seed := range []int64{10, 11, 12} {
		net := noc.Irregular(6, 8, 8, 1.5, seed)
		exact, err := Construct(net, Options{})
		if err != nil {
			t.Fatalf("seed %d construct: %v", seed, err)
		}
		ref, err := ConstructMILP(net, Options{})
		if err != nil {
			t.Fatalf("seed %d milp: %v", seed, err)
		}
		if math.Abs(exact.ModelObjective-ref.ModelObjective) > 1e-6 {
			t.Fatalf("seed %d: assignment B&B objective %v != MILP %v",
				seed, exact.ModelObjective, ref.ModelObjective)
		}
		checkTour(t, net, exact)
		checkTour(t, net, ref)
	}
}

func TestModelObjectiveIsLowerBound(t *testing.T) {
	// The model ignores connectivity, so its optimum can only be below
	// (or equal to) the final merged tour length.
	for _, seed := range []int64{21, 22, 23, 24} {
		net := noc.Irregular(8, 10, 10, 1.5, seed)
		res, err := Construct(net, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.ModelObjective > res.Length+1e-9 {
			t.Fatalf("seed %d: model objective %v exceeds tour length %v",
				seed, res.ModelObjective, res.Length)
		}
	}
}

func TestDisableConflictsAblation(t *testing.T) {
	// Without Eq. (3) the model optimum can only improve (fewer
	// constraints), but the merged tour may no longer embed planar.
	net := noc.Irregular(8, 10, 10, 1.5, 31)
	with, err := Construct(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Construct(net, Options{DisableConflicts: true})
	if err != nil {
		// Acceptable: the unconstrained tour may admit no embedding.
		t.Logf("conflict-free ablation failed to embed (expected sometimes): %v", err)
		return
	}
	if without.ModelObjective > with.ModelObjective+1e-9 {
		t.Fatalf("dropping constraints must not worsen the relaxation: %v > %v",
			without.ModelObjective, with.ModelObjective)
	}
}

// TestDisableConflictsSkipsScan: the Eq. (3) ablation must not pay for
// the O(N⁴) conflict scan it then ignores.
func TestDisableConflictsSkipsScan(t *testing.T) {
	ct := conflictsFor(noc.Floorplan16(), Options{DisableConflicts: true})
	if ct.bits != nil || ct.pairs != 0 || ct.conflicts(edgeKey{0, 5}, edgeKey{1, 4}) {
		t.Fatalf("ablation table ran the scan: %d pairs", ct.pairs)
	}
	if ct := conflictsFor(noc.Floorplan16(), Options{}); ct.pairs == 0 {
		t.Fatal("the default table has no conflicts on the 16-node grid")
	}
}

func TestExtractCycles(t *testing.T) {
	succ := []int{1, 0, 3, 4, 2} // cycles (0,1) and (2,3,4)
	cycles := extractCycles(succ)
	if len(cycles) != 2 {
		t.Fatalf("got %d cycles, want 2", len(cycles))
	}
	total := 0
	for _, c := range cycles {
		total += len(c)
	}
	if total != 5 {
		t.Fatalf("cycles cover %d nodes, want 5", total)
	}
}

func TestSpliceCycles(t *testing.T) {
	a := []int{0, 1, 2}
	b := []int{3, 4, 5}
	// Remove edge (2,0) from a (xi=2) and (5,3) from b (yj=2), forward:
	// 2 -> 3 expected: tour ...0,1,2,3,4,5.
	out := spliceCycles(a, b, 2, 2, false)
	if len(out) != 6 {
		t.Fatalf("splice length %d", len(out))
	}
	// Must contain all six nodes exactly once.
	seen := map[int]bool{}
	for _, v := range out {
		if seen[v] {
			t.Fatalf("duplicate %d in %v", v, out)
		}
		seen[v] = true
	}
	// Check adjacency 2->3 exists in forward splice.
	adj := false
	for i := range out {
		if out[i] == 2 && out[(i+1)%len(out)] == 3 {
			adj = true
		}
	}
	if !adj {
		t.Fatalf("expected edge 2->3 in %v", out)
	}

	rev := spliceCycles(a, b, 2, 2, true)
	seen = map[int]bool{}
	for _, v := range rev {
		if seen[v] {
			t.Fatalf("duplicate %d in reversed splice %v", v, rev)
		}
		seen[v] = true
	}
	if len(rev) != 6 {
		t.Fatalf("reversed splice length %d", len(rev))
	}
}

func TestHeuristicTour(t *testing.T) {
	net := noc.Floorplan16()
	ct := buildConflicts(net)
	tour, err := HeuristicTour(net, ct)
	if err != nil {
		t.Fatal(err)
	}
	if len(tour) != 16 {
		t.Fatalf("tour length %d", len(tour))
	}
	seen := map[int]bool{}
	for _, v := range tour {
		if seen[v] {
			t.Fatalf("duplicate node %d", v)
		}
		seen[v] = true
	}
}

// TestBuildConflictsSymmetricAndIrreflexive checks the bitset against
// the geometric test itself: bit (x, y) is set exactly when edges x and
// y conflict, for both orders, never for x = y, and pairs counts the
// unordered pairs.
func TestBuildConflictsSymmetricAndIrreflexive(t *testing.T) {
	for _, net := range []*noc.Network{noc.Floorplan8(), noc.Irregular(12, 10, 10, 1.0, 3)} {
		ct := buildConflicts(net)
		pos := net.Positions()
		pairs := 0
		for x, e := range ct.edges {
			if ct.edge(e.a, e.b) != x || ct.edge(e.b, e.a) != x {
				t.Fatalf("edge %v has index %d, want %d", e, ct.edge(e.a, e.b), x)
			}
			if ct.has(x, x) {
				t.Fatal("edge conflicts with itself")
			}
			for y, f := range ct.edges {
				if y == x {
					continue
				}
				want := geom.EdgesConflict(pos[e.a], pos[e.b], pos[f.a], pos[f.b])
				if ct.has(x, y) != want || ct.has(y, x) != want {
					t.Fatalf("edges %v, %v: bits %v/%v, conflict test %v", e, f, ct.has(x, y), ct.has(y, x), want)
				}
				if want && x < y {
					pairs++
				}
			}
		}
		if pairs != ct.pairs || len(ct.pairList()) != pairs {
			t.Fatalf("pairs %d, pairList %d, want %d", ct.pairs, len(ct.pairList()), pairs)
		}
	}
}

func TestChooseOrdersOnKnownTour(t *testing.T) {
	net := noc.Floorplan8()
	tour := []int{0, 1, 2, 3, 7, 6, 5, 4}
	orders, err := chooseOrders(net, tour)
	if err != nil {
		t.Fatal(err)
	}
	d, err := router.NewDesign(net, phys.Default(), tour, orders)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("orders do not embed: %v", err)
	}
}

func BenchmarkConstruct16(b *testing.B) {
	net := noc.Floorplan16()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Construct(net, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConstruct32(b *testing.B) {
	net := noc.Floorplan32()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Construct(net, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestConstructHeuristic(t *testing.T) {
	for _, net := range []*noc.Network{noc.Floorplan8(), noc.Floorplan16(), noc.Floorplan32()} {
		res, err := ConstructHeuristic(context.Background(), net, Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", net.N(), err)
		}
		checkTour(t, net, res)
		if res.Optimal {
			t.Errorf("n=%d: heuristic result claims optimality", net.N())
		}
		if res.Subcycles != 1 || res.Nodes != 0 {
			t.Errorf("n=%d: got Subcycles=%d Nodes=%d, want 1 and 0", net.N(), res.Subcycles, res.Nodes)
		}
	}
}

func TestBudgetExhaustionWrapsErrBudget(t *testing.T) {
	// Poison the conflict table so every pair of candidate edges
	// conflicts: the heuristic warm start cannot produce a feasible
	// assignment, and a 1-node budget exhausts before the B&B proves
	// anything — the error must match milp.ErrBudget via errors.Is.
	net := noc.Floorplan8()
	ct := buildConflicts(net)
	for x := range ct.edges {
		for y := x + 1; y < len(ct.edges); y++ {
			ct.set(x, y)
		}
	}
	_, _, _, _, err := solveAssignmentBB(net, ct, Options{MaxNodes: 1})
	if !errors.Is(err, milp.ErrBudget) {
		t.Fatalf("err = %v, want errors.Is(err, milp.ErrBudget)", err)
	}
}
