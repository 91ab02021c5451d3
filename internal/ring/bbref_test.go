package ring

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"xring/internal/assign"
	"xring/internal/geom"
	"xring/internal/milp"
	"xring/internal/noc"
)

// refBB is the assignment branch-and-bound as it stood before the
// resumable solver: every node deep-copies its parent's [][]float64
// cost matrix, bans cells in the copy and re-solves it from scratch
// with assign.Solve. The production search must reproduce it exactly.
type refBB struct {
	chk                *bbState // side-constraint checks only
	best               float64
	bestSucc           []int
	nodes, maxNodes    int
	pruned, incumbents int
}

func refSuccCost(cost [][]float64, succ []int) float64 {
	total := 0.0
	for i, j := range succ {
		total += cost[i][j]
	}
	return total
}

func refSolveAssignmentBB(net *noc.Network, ct *conflictTable, opt Options) (rb *refBB, succ []int, objective float64, err error) {
	n := net.N()
	pos := net.Positions()
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			if i == j {
				cost[i][j] = assign.Forbidden
			} else {
				cost[i][j] = geom.Manhattan(pos[i], pos[j])
			}
		}
	}
	chk := &bbState{net: net, ct: ct, n: n}
	rb = &refBB{chk: chk, best: math.Inf(1), maxNodes: opt.MaxNodes}
	if rb.maxNodes == 0 {
		rb.maxNodes = 500_000
	}
	if warm, werr := HeuristicTour(net, ct); werr == nil {
		wsucc := tourSucc(warm)
		if chk.feasible(wsucc) {
			rb.best = refSuccCost(cost, wsucc)
			rb.bestSucc = wsucc
		}
	}
	rb.search(cost)
	if rb.bestSucc == nil {
		if rb.nodes >= rb.maxNodes {
			return rb, nil, 0, fmt.Errorf("ring: %w (assignment B&B explored %d of %d nodes)", milp.ErrBudget, rb.nodes, rb.maxNodes)
		}
		return rb, nil, 0, errors.New("ring: no feasible assignment found (conflict constraints unsatisfiable)")
	}
	return rb, rb.bestSucc, rb.best, nil
}

func cloneCost(cost [][]float64) [][]float64 {
	out := make([][]float64, len(cost))
	for i, row := range cost {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

func (rb *refBB) search(cost [][]float64) {
	rb.nodes++
	if rb.nodes >= rb.maxNodes {
		return
	}
	succ, total, err := assign.Solve(cost)
	if err != nil {
		rb.pruned++
		return
	}
	if total >= rb.best-milp.Eps {
		rb.pruned++
		return
	}
	kind, data, ok := rb.chk.firstViolation(succ)
	if ok {
		rb.best = total
		rb.bestSucc = append([]int(nil), succ...)
		rb.incumbents++
		return
	}
	switch kind {
	case 0:
		i, j := data[0], data[1]
		c1 := cloneCost(cost)
		c1[i][j] = assign.Forbidden
		rb.search(c1)
		c2 := cloneCost(cost)
		c2[j][i] = assign.Forbidden
		rb.search(c2)
	case 1:
		for _, e := range []edgeKey{{data[0], data[1]}, {data[2], data[3]}} {
			c := cloneCost(cost)
			c[e.a][e.b] = assign.Forbidden
			c[e.b][e.a] = assign.Forbidden
			rb.search(c)
		}
	}
}

// TestBBMatchesReference runs the production search (in-place bans,
// bound-first pruning, resumed Hungarian runs) and the reference on
// seeded irregular floorplans of 8 to 24 nodes at 2.5 mm and 1.0 mm
// spacing, with the default node budget and a tiny one. Successors,
// objective bits, node, prune and incumbent counts and the error text
// must all be identical.
func TestBBMatchesReference(t *testing.T) {
	sizes := []int{8, 12, 16, 20, 24}
	seeds := 6
	if testing.Short() {
		sizes, seeds = []int{8, 12, 16}, 3
	}
	expanded := 0
	for _, n := range sizes {
		for _, spacing := range []float64{2.5, 1.0} {
			side := 16 + float64(n-16)/2
			if spacing == 1.0 {
				side = 12
			}
			for seed := int64(0); seed < int64(seeds); seed++ {
				net := noc.Irregular(n, side, side, spacing, seed)
				ct := buildConflicts(net)
				for _, maxNodes := range []int{0, 5} {
					opt := Options{MaxNodes: maxNodes}
					name := fmt.Sprintf("n=%d spacing=%v seed=%d maxNodes=%d", n, spacing, seed, maxNodes)
					rb, wsucc, wobj, werr := refSolveAssignmentBB(net, ct, opt)
					st := newBBState(net, ct, opt)
					st.search(0, nil, 0)
					succ, obj, _, err := st.outcome()
					if fmt.Sprint(err) != fmt.Sprint(werr) {
						t.Fatalf("%s: error %v, reference %v", name, err, werr)
					}
					if math.Float64bits(obj) != math.Float64bits(wobj) || fmt.Sprint(succ) != fmt.Sprint(wsucc) {
						t.Fatalf("%s: succ %v objective %v, reference %v %v", name, succ, obj, wsucc, wobj)
					}
					if st.nodes != rb.nodes || st.pruned != rb.pruned || st.incumbents != rb.incumbents {
						t.Fatalf("%s: nodes/pruned/incumbents %d/%d/%d, reference %d/%d/%d", name,
							st.nodes, st.pruned, st.incumbents, rb.nodes, rb.pruned, rb.incumbents)
					}
					if rb.nodes > 1 {
						expanded++
					}
				}
			}
		}
	}
	if expanded == 0 {
		t.Fatal("no floorplan needed branching: the comparison covers only root solves")
	}
}
