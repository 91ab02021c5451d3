package delta

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"xring/internal/core"
	"xring/internal/geom"
	"xring/internal/loss"
	"xring/internal/noc"
	"xring/internal/parallel"
	"xring/internal/pdn"
	"xring/internal/router"
)

// synthesize builds the attachment point for the tests: a synthesized
// irregular floorplan (irregular placements are what the placement
// optimizer perturbs).
func synthesize(t *testing.T, n int, seed int64, opt core.Options) *core.Result {
	t.Helper()
	net := noc.Irregular(n, float64(n), float64(n), 2.0, seed)
	res, err := core.Synthesize(net, opt)
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	return res
}

// randomMove draws a spacing-respecting proposal for one node, like the
// placement optimizer does.
func randomMove(rng *rand.Rand, net *noc.Network, stepMM float64) (int, geom.Point) {
	for {
		node := rng.Intn(net.N())
		p := net.Nodes[node].Pos
		p.X += (rng.Float64()*2 - 1) * stepMM
		p.Y += (rng.Float64()*2 - 1) * stepMM
		ok := true
		for i, other := range net.Nodes {
			if i != node && geom.Manhattan(p, other.Pos) < 0.5 {
				ok = false
				break
			}
		}
		if ok {
			return node, p
		}
	}
}

// TestRandomMovesBitIdentical is the core property test: random move
// sequences with accept/reject mixes, asserting every delta-evaluated
// report is bit-identical (eps 0) to a full recompute of the same
// structure at the same geometry. The full-recompute reference uses the
// shared worker pool, so the property runs under both the serial and
// the parallel pool configuration.
func TestRandomMovesBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		opt  core.Options
	}{
		{"nopdn", core.Options{MaxWL: 8}},
		{"tree", core.Options{MaxWL: 8, WithPDN: true}},
		{"comb", core.Options{MaxWL: 8, WithPDN: true, NoOpenings: true}},
	}
	for _, workers := range []int{1, 0} { // serial pool, then default width
		parallel.SetWorkers(workers)
		for _, tc := range cases {
			tc := tc
			t.Run(fmt.Sprintf("%s-workers%d", tc.name, workers), func(t *testing.T) {
				for _, seed := range []int64{1, 2, 3} {
					res := synthesize(t, 8, seed, tc.opt)
					ev, err := Attach(res, Options{CrossCheckEvery: 8})
					if err != nil {
						t.Fatalf("seed %d: attach: %v", seed, err)
					}
					rng := rand.New(rand.NewSource(seed))
					for move := 0; move < 60; move++ {
						node, p := randomMove(rng, ev.Network(), 1.0)
						if rng.Float64() < 0.4 {
							// Accepted move: commit (periodic cross-check
							// fires inside), then verify the committed state.
							if _, err := ev.Commit(node, p); err != nil {
								t.Fatalf("seed %d move %d: commit: %v", seed, move, err)
							}
							full, err := ev.FullRecompute()
							if err != nil {
								t.Fatalf("seed %d move %d: full: %v", seed, move, err)
							}
							if err := CompareReports(ev.Reports(), full, 0); err != nil {
								t.Fatalf("seed %d move %d: committed state diverged: %v", seed, move, err)
							}
						} else {
							// Rejected move: CheckMove compares delta vs full
							// at the tentative geometry and reverts.
							if _, err := ev.CheckMove(node, p); err != nil {
								t.Fatalf("seed %d move %d: check: %v", seed, move, err)
							}
							// The revert must restore the committed reports
							// bit for bit.
							full, err := ev.FullRecompute()
							if err != nil {
								t.Fatalf("seed %d move %d: full after revert: %v", seed, move, err)
							}
							if err := CompareReports(ev.Reports(), full, 0); err != nil {
								t.Fatalf("seed %d move %d: revert diverged: %v", seed, move, err)
							}
						}
					}
				}
			})
		}
	}
}

// TestEvalMoveMatchesCommit asserts a scratch evaluation of a move
// produces the exact reports committing the same move produces, and
// that RecomputeMove (the delta bench's reference) scores it the same.
func TestEvalMoveMatchesCommit(t *testing.T) {
	res := synthesize(t, 8, 5, core.Options{MaxWL: 8, WithPDN: true})
	ev, err := Attach(res, Options{})
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	for move := 0; move < 20; move++ {
		node, p := randomMove(rng, ev.Network(), 1.2)
		scratch, err := ev.EvalMove(node, p)
		if err != nil {
			t.Fatalf("move %d: eval: %v", move, err)
		}
		full, err := ev.RecomputeMove(node, p)
		if err != nil {
			t.Fatalf("move %d: recompute: %v", move, err)
		}
		if err := CompareReports(scratch, full, 0); err != nil {
			t.Fatalf("move %d: scratch vs recompute: %v", move, err)
		}
		committed, err := ev.Commit(node, p)
		if err != nil {
			t.Fatalf("move %d: commit: %v", move, err)
		}
		if err := CompareReports(scratch, committed, 0); err != nil {
			t.Fatalf("move %d: scratch vs committed: %v", move, err)
		}
	}
}

// TestAttachMatchesSynthesis asserts the evaluator's initial reports
// equal the attached result's analyses (same structure, same geometry).
func TestAttachMatchesSynthesis(t *testing.T) {
	res := synthesize(t, 8, 1, core.Options{MaxWL: 8, WithPDN: true})
	ev, err := Attach(res, Options{})
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	if err := CompareReports(ev.Reports(), &Reports{Loss: res.Loss, Xtalk: res.Xtalk}, 0); err != nil {
		t.Fatalf("attach reports differ from synthesis: %v", err)
	}
}

// TestEvaluatorIsolation asserts moves never leak into the caller's
// network or design.
func TestEvaluatorIsolation(t *testing.T) {
	res := synthesize(t, 8, 2, core.Options{MaxWL: 8, WithPDN: true})
	before := append([]noc.Node(nil), res.Design.Net.Nodes...)
	ev, err := Attach(res, Options{})
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	rng := rand.New(rand.NewSource(9))
	for move := 0; move < 10; move++ {
		node, p := randomMove(rng, ev.Network(), 1.0)
		if _, err := ev.Commit(node, p); err != nil {
			t.Fatalf("commit: %v", err)
		}
	}
	for i, n := range res.Design.Net.Nodes {
		if !n.Pos.Eq(before[i].Pos) {
			t.Fatalf("node %d of the caller's network moved: %v -> %v", i, before[i].Pos, n.Pos)
		}
	}
}

// TestCrossCheckCatchesCorruption corrupts a structural count cached in
// the evaluator's Pricer and asserts the periodic cross-check hard-fails
// instead of silently drifting. It also pins that EvalMove and Commit
// reuse the Pricer built at Attach: an evaluator that rebuilt it per
// move would price from fresh counts, and the corruption would vanish.
func TestCrossCheckCatchesCorruption(t *testing.T) {
	res := synthesize(t, 8, 3, core.Options{MaxWL: 8, WithPDN: true})
	ev, err := Attach(res, Options{CrossCheckEvery: 1})
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	want := ev.Reports().Loss.Losses[0].Throughs + 3
	corruptThroughs(t, ev.pricer, 3) // simulate a stale structural cache
	rng := rand.New(rand.NewSource(4))
	node, p := randomMove(rng, ev.Network(), 1.0)
	scratch, err := ev.EvalMove(node, p)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if got := scratch.Loss.Losses[0].Throughs; got != want {
		t.Fatalf("EvalMove priced %d throughs for %v, the corrupted cache holds %d", got, scratch.Loss.Sigs[0], want)
	}
	_, err = ev.Commit(node, p)
	if err == nil {
		t.Fatal("commit with corrupted cache passed its cross-check")
	}
	if !strings.Contains(err.Error(), "cross-check failed") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// corruptThroughs adds by to the through count loss.Pricer caches for
// its first signal. The count is unexported, so the test reaches it by
// reflection; it fails loudly if the field layout changes.
func corruptThroughs(t *testing.T, p *loss.Pricer, by int) {
	t.Helper()
	st := reflect.ValueOf(p).Elem().FieldByName("st")
	if !st.IsValid() || st.Kind() != reflect.Slice || st.Len() == 0 {
		t.Fatal("loss.Pricer has no cached structure slice st")
	}
	f := st.Index(0).FieldByName("throughs")
	if !f.IsValid() || !f.CanInt() {
		t.Fatal("loss.Pricer's structure has no integer field throughs")
	}
	v := reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
	v.SetInt(v.Int() + int64(by))
}

// TestWorstSNRInfinity exercises the ±Inf comparison path: a design
// with no noise has WorstSNR = +Inf in both reports.
func TestWorstSNRInfinity(t *testing.T) {
	res := synthesize(t, 8, 1, core.Options{MaxWL: 8}) // no PDN: no noise mechanisms
	if !math.IsInf(res.Xtalk.WorstSNR, 1) {
		t.Skip("fixture unexpectedly noisy")
	}
	ev, err := Attach(res, Options{})
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	full, err := ev.FullRecompute()
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	if err := CompareReports(ev.Reports(), full, 0); err != nil {
		t.Fatalf("infinite-SNR reports differ: %v", err)
	}
}

// rebuiltPlan builds the PDN afresh at the evaluator's current geometry
// on a private copy of its design (BuildComb rewrites crossings), and
// returns the plan with the copy's waveguide crossing lists.
func rebuiltPlan(t *testing.T, ev *Evaluator) (*pdn.Plan, [][]router.Crossing) {
	t.Helper()
	cp := *ev.Design()
	cp.Waveguides = make([]*router.Waveguide, len(ev.Design().Waveguides))
	for i, w := range ev.Design().Waveguides {
		wc := *w
		wc.Crossings = append([]router.Crossing(nil), w.Crossings...)
		cp.Waveguides[i] = &wc
	}
	var plan *pdn.Plan
	var err error
	switch ev.kind {
	case pdnTree:
		plan, err = pdn.BuildTree(&cp)
	case pdnComb:
		plan, err = pdn.BuildComb(&cp)
	default:
		t.Fatalf("evaluator has no PDN")
	}
	if err != nil {
		t.Fatal(err)
	}
	xs := make([][]router.Crossing, len(cp.Waveguides))
	for i, w := range cp.Waveguides {
		xs[i] = w.Crossings
	}
	return plan, xs
}

// TestRestoredPlanMatchesRebuild drives random EvalMove, CheckMove and
// Commit sequences and, after every call, demands that the evaluator's
// plan and waveguide crossings deep-equal a fresh PDN build at its
// current geometry: a tentative move's revert restores the saved plan
// and crossings instead of rebuilding them.
func TestRestoredPlanMatchesRebuild(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  core.Options
	}{
		{"tree", core.Options{MaxWL: 8, WithPDN: true}},
		{"comb", core.Options{MaxWL: 8, WithPDN: true, NoOpenings: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{1, 2} {
				res := synthesize(t, 8, seed, tc.opt)
				ev, err := Attach(res, Options{CrossCheckEvery: -1})
				if err != nil {
					t.Fatalf("seed %d: attach: %v", seed, err)
				}
				if tc.name == "comb" && ev.Design().TotalCrossings() == 0 {
					t.Fatalf("seed %d: comb fixture has no crossings", seed)
				}
				rng := rand.New(rand.NewSource(seed))
				for move := 0; move < 40; move++ {
					node, p := randomMove(rng, ev.Network(), 1.0)
					switch r := rng.Float64(); {
					case r < 0.3:
						_, err = ev.Commit(node, p)
					case r < 0.5:
						_, err = ev.CheckMove(node, p)
					default:
						_, err = ev.EvalMove(node, p)
					}
					if err != nil {
						t.Fatalf("seed %d move %d: %v", seed, move, err)
					}
					plan, xs := rebuiltPlan(t, ev)
					if !reflect.DeepEqual(ev.plan, plan) {
						t.Fatalf("seed %d move %d: plan differs from a fresh build", seed, move)
					}
					for i, w := range ev.Design().Waveguides {
						if !reflect.DeepEqual(w.Crossings, xs[i]) {
							t.Fatalf("seed %d move %d: wg %d crossings %v, fresh build %v", seed, move, i, w.Crossings, xs[i])
						}
					}
				}
			}
		})
	}
}

// BenchmarkEvalMove scores random single-node proposals on a 16-node
// tree-PDN design without committing them.
func BenchmarkEvalMove(b *testing.B) {
	res, err := core.Synthesize(noc.Irregular(16, 16, 16, 2.0, 5), core.Options{MaxWL: 16, WithPDN: true})
	if err != nil {
		b.Fatal(err)
	}
	ev, err := Attach(res, Options{CrossCheckEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	moves := make([]struct {
		node int
		p    geom.Point
	}, 64)
	for i := range moves {
		moves[i].node, moves[i].p = randomMove(rng, ev.Network(), 1.5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := moves[i%len(moves)]
		if _, err := ev.EvalMove(m.node, m.p); err != nil {
			b.Fatal(err)
		}
	}
}
