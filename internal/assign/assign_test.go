package assign

import (
	"math"
	"math/rand"
	"testing"
)

// bruteForce enumerates all permutations to find the optimal assignment.
func bruteForce(cost [][]float64) (best float64, feasible bool) {
	n := len(cost)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best = math.Inf(1)
	var rec func(k int, acc float64)
	rec = func(k int, acc float64) {
		if acc >= best {
			return
		}
		if k == n {
			best = acc
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			c := cost[k][perm[k]]
			if c != Forbidden {
				rec(k+1, acc+c)
			}
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0, 0)
	return best, !math.IsInf(best, 1)
}

func TestSolveTrivial(t *testing.T) {
	got, total, err := Solve([][]float64{{7}})
	if err != nil || total != 7 || got[0] != 0 {
		t.Fatalf("Solve 1x1 = %v %v %v", got, total, err)
	}
	if r, total, err := Solve(nil); err != nil || total != 0 || r != nil {
		t.Fatalf("Solve empty = %v %v %v", r, total, err)
	}
}

func TestSolveKnown(t *testing.T) {
	// Classic example: optimal value 5 (0->1:1, 1->0:2, 2->2:2).
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	rc, total, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 5 {
		t.Fatalf("total = %v, want 5 (assignment %v)", total, rc)
	}
	seen := map[int]bool{}
	for _, c := range rc {
		if seen[c] {
			t.Fatalf("column %d assigned twice", c)
		}
		seen[c] = true
	}
}

func TestSolveNonSquare(t *testing.T) {
	if _, _, err := Solve([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("want error for ragged matrix")
	}
}

func TestSolveForbiddenDiagonal(t *testing.T) {
	// Successor-matrix shape: diagonal forbidden.
	n := 5
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			if i == j {
				cost[i][j] = Forbidden
			} else {
				cost[i][j] = float64((i*7+j*3)%11) + 1
			}
		}
	}
	rc, total, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range rc {
		if i == j {
			t.Fatalf("diagonal cell chosen at %d", i)
		}
	}
	want, _ := bruteForce(cost)
	if math.Abs(total-want) > 1e-9 {
		t.Fatalf("total = %v, want %v", total, want)
	}
}

func TestSolveInfeasible(t *testing.T) {
	cost := [][]float64{
		{Forbidden, Forbidden},
		{1, Forbidden},
	}
	if _, _, err := Solve(cost); err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestSolveMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(6) // up to 7x7
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				if rng.Float64() < 0.15 {
					cost[i][j] = Forbidden
				} else {
					cost[i][j] = float64(rng.Intn(50))
				}
			}
		}
		want, feasible := bruteForce(cost)
		rc, total, err := Solve(cost)
		if !feasible {
			if err == nil {
				t.Fatalf("trial %d: expected infeasible, got assignment %v cost %v", trial, rc, total)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: unexpected error %v (brute force found %v)", trial, err, want)
		}
		if math.Abs(total-want) > 1e-9 {
			t.Fatalf("trial %d: total %v != brute force %v", trial, total, want)
		}
		// Validate the assignment is a permutation avoiding forbidden cells.
		seen := make([]bool, n)
		sum := 0.0
		for i, j := range rc {
			if seen[j] {
				t.Fatalf("trial %d: duplicate column %d", trial, j)
			}
			seen[j] = true
			if cost[i][j] == Forbidden {
				t.Fatalf("trial %d: forbidden cell (%d,%d) used", trial, i, j)
			}
			sum += cost[i][j]
		}
		if math.Abs(sum-total) > 1e-9 {
			t.Fatalf("trial %d: reported total %v != recomputed %v", trial, total, sum)
		}
	}
}

// refSolve is the Hungarian algorithm as it stood before it was split
// into resumable phases: one self-contained O(n³) loop on a [][]float64
// matrix. Solve must reproduce it bit for bit.
func refSolve(cost [][]float64) (rowToCol []int, total float64, err error) {
	n := len(cost)
	inf := math.Inf(1)
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	p := make([]int, n+1)
	way := make([]int, n+1)
	at := func(i, j int) float64 {
		c := cost[i-1][j-1]
		if c == Forbidden {
			return inf
		}
		return c
	}
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, n+1)
		used := make([]bool, n+1)
		for j := range minv {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := -1
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := at(i0, j) - u[i0] - v[j]
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
				return nil, 0, ErrInfeasible
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
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	rowToCol = make([]int, n)
	for j := 1; j <= n; j++ {
		if p[j] == 0 {
			return nil, 0, ErrInfeasible
		}
		rowToCol[p[j]-1] = j - 1
	}
	for i := 0; i < n; i++ {
		c := cost[i][rowToCol[i]]
		if c == Forbidden {
			return nil, 0, ErrInfeasible
		}
		total += c
	}
	return rowToCol, total, nil
}

// manhattanMatrix is a successor-matrix cost on random lattice points:
// symmetric, forbidden diagonal and full of ties, like Step 1's.
func manhattanMatrix(rng *rand.Rand, n int) [][]float64 {
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = float64(rng.Intn(12))*0.5, float64(rng.Intn(12))*0.5
	}
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			if i == j {
				cost[i][j] = Forbidden
			} else {
				cost[i][j] = math.Abs(xs[i]-xs[j]) + math.Abs(ys[i]-ys[j])
			}
		}
	}
	return cost
}

func flatten(cost [][]float64) []float64 {
	var out []float64
	for _, row := range cost {
		out = append(out, row...)
	}
	return out
}

func sameSolve(t *testing.T, what string, rc []int, total float64, err error, wrc []int, wtotal float64, werr error) {
	t.Helper()
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s: err %v, want %v", what, err, werr)
	}
	if err != nil {
		return
	}
	if math.Float64bits(total) != math.Float64bits(wtotal) {
		t.Fatalf("%s: total %v, want %v", what, total, wtotal)
	}
	for i := range wrc {
		if rc[i] != wrc[i] {
			t.Fatalf("%s: rowToCol %v, want %v", what, rc, wrc)
		}
	}
}

// TestSolveMatchesReference pins the phase-split Solve to the original
// single-loop algorithm on tie-heavy and random matrices.
func TestSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(14)
		cost := manhattanMatrix(rng, n)
		for k := 0; k < rng.Intn(n*n/3+1); k++ {
			cost[rng.Intn(n)][rng.Intn(n)] = Forbidden
		}
		rc, total, err := Solve(cost)
		wrc, wtotal, werr := refSolve(cost)
		sameSolve(t, "Solve", rc, total, err, wrc, wtotal, werr)
	}
}

// TestSolverResumeAndBound runs a branch-and-bound-like walk: a parent
// matrix is solved, then random cells (some of them in the parent's
// assignment) are banned. Resuming the parent's run at the smallest
// banned row must equal a from-scratch Solve bit for bit, and Bound
// must agree with Solve on feasibility and, within 1e-9, on the value.
func TestSolverResumeAndBound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	infeasibleSeen := 0
	for trial := 0; trial < 400; trial++ {
		n := 3 + rng.Intn(14)
		cost := manhattanMatrix(rng, n)
		flat := flatten(cost)
		parent := NewSolver(n)
		if !parent.Run(flat, 0) {
			continue
		}
		prc, _, err := parent.Assignment(flat)
		if err != nil {
			t.Fatal(err)
		}
		child := NewSolver(n)
		for step := 0; step < 4; step++ {
			var banned []int
			for k := 0; k < 1+rng.Intn(2*n); k++ {
				i := rng.Intn(n)
				j := rng.Intn(n)
				if rng.Intn(2) == 0 {
					j = prc[i] // hit the parent's assignment
				}
				if flat[i*n+j] != Forbidden {
					banned = append(banned, i*n+j)
				}
			}
			if len(banned) == 0 {
				continue
			}
			saved := make([]float64, len(banned))
			r := n
			for k, c := range banned {
				saved[k] = flat[c]
				flat[c] = Forbidden
				cost[c/n][c%n] = Forbidden
				r = min(r, c/n)
			}
			wrc, wtotal, werr := refSolve(cost)
			value, ok := child.Bound(parent, flat, banned)
			if !ok {
				infeasibleSeen++
			}
			if ok != (werr == nil) {
				t.Fatalf("trial %d: Bound feasible=%v, Solve err %v", trial, ok, werr)
			}
			if ok && math.Abs(value-wtotal) > 1e-9 {
				t.Fatalf("trial %d: Bound %v, Solve %v", trial, value, wtotal)
			}
			// Resume at r, or at any earlier phase: both replay Solve.
			for _, from := range []int{r, rng.Intn(r + 1)} {
				child.Resume(parent, from)
				var rc []int
				var total float64
				err := ErrInfeasible
				if child.Run(flat, from) {
					rc, total, err = child.Assignment(flat)
				}
				sameSolve(t, "resumed", rc, total, err, wrc, wtotal, werr)
			}
			for k := len(banned) - 1; k >= 0; k-- { // undo in reverse: a cell may repeat
				c := banned[k]
				flat[c] = saved[k]
				cost[c/n][c%n] = saved[k]
			}
		}
	}
	if infeasibleSeen == 0 {
		t.Fatal("no banned matrix was infeasible: the walk does not cover that case")
	}
}

func BenchmarkSolve32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 32
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			if i == j {
				cost[i][j] = Forbidden
			} else {
				cost[i][j] = rng.Float64() * 100
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Solve(cost); err != nil {
			b.Fatal(err)
		}
	}
}
