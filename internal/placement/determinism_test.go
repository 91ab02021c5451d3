package placement

import (
	"testing"

	"xring/internal/core"
	"xring/internal/noc"
	"xring/internal/parallel"
)

// TestOptimizeParallelMatchesSerial checks that the round-based search
// walks the identical trajectory whether proposals are evaluated
// sequentially or on the worker pool: same moves, same scores, same
// final placement.
func TestOptimizeParallelMatchesSerial(t *testing.T) {
	defer parallel.SetWorkers(0)
	for _, seed := range []int64{1, 3} {
		net := noc.Irregular(8, 12, 12, 1.5, seed)
		base := Options{
			Objective:  MinWorstIL,
			Synth:      core.Options{MaxWL: 8},
			Iterations: 40,
			StepMM:     1.5,
			Seed:       seed,
		}

		parallel.SetWorkers(1)
		core.ResetRingCache()
		netS, resS, traceS, err := Optimize(net, base)
		if err != nil {
			t.Fatal(err)
		}

		parallel.SetWorkers(8)
		core.ResetRingCache()
		netP, resP, traceP, err := Optimize(net, base)
		if err != nil {
			t.Fatal(err)
		}

		if traceS.Evaluated != traceP.Evaluated {
			t.Fatalf("seed %d: evaluated %d serially vs %d in parallel", seed, traceS.Evaluated, traceP.Evaluated)
		}
		if len(traceS.Moves) != len(traceP.Moves) {
			t.Fatalf("seed %d: %d moves serially vs %d in parallel", seed, len(traceS.Moves), len(traceP.Moves))
		}
		for i := range traceS.Moves {
			a, b := traceS.Moves[i], traceP.Moves[i]
			if a != b {
				t.Fatalf("seed %d: move %d differs: %+v vs %+v", seed, i, a, b)
			}
		}
		if traceS.Final != traceP.Final {
			t.Fatalf("seed %d: final score %v serially vs %v in parallel", seed, traceS.Final, traceP.Final)
		}
		for i := range netS.Nodes {
			if !netS.Nodes[i].Pos.Eq(netP.Nodes[i].Pos) {
				t.Fatalf("seed %d: node %d placed at %v serially vs %v in parallel",
					seed, i, netS.Nodes[i].Pos, netP.Nodes[i].Pos)
			}
		}
		if resS.Loss.WorstIL != resP.Loss.WorstIL || resS.Loss.TotalPowerMW != resP.Loss.TotalPowerMW {
			t.Fatalf("seed %d: final analyses differ", seed)
		}
	}
}
