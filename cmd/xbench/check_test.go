package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func writeReport(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckMissingCommittedRatioFails: every comparator passes a report
// checked against itself, and fails when the committed ratio is missing
// (zero) instead of passing silently.
func TestCheckMissingCommittedRatioFails(t *testing.T) {
	cases := []struct {
		name             string
		committed, noRat any
		check            func(path string) error
	}{
		{"solver", solverReport{Ratio: 0.4}, solverReport{},
			func(p string) error { return checkSolverReport(solverReport{Ratio: 0.4}, p) }},
		{"delta", deltaReport{Speedup: 10}, deltaReport{},
			func(p string) error { return checkDeltaReport(deltaReport{Speedup: 10}, p) }},
		{"explore", exploreReport{Amplification: 3}, exploreReport{},
			func(p string) error { return checkExploreReport(exploreReport{Amplification: 3}, p) }},
		{"whatif", whatifReport{Amplification: 2, FullSetSurvivesMRR: true}, whatifReport{FullSetSurvivesMRR: true},
			func(p string) error {
				return checkWhatifReport(whatifReport{Amplification: 2, FullSetSurvivesMRR: true}, p)
			}},
		{"cluster", clusterReport{Amplification: 2, PeerFills: 1}, clusterReport{PeerFills: 1},
			func(p string) error {
				return checkClusterReport(clusterReport{Amplification: 2, PeerFills: 1}, p)
			}},
	}
	for _, c := range cases {
		if err := c.check(writeReport(t, c.committed)); err != nil {
			t.Errorf("%s: report checked against itself failed: %v", c.name, err)
		}
		if err := c.check(writeReport(t, c.noRat)); err == nil {
			t.Errorf("%s: committed report without a ratio passed", c.name)
		}
	}
}

func solverFixture() solverReport {
	return solverReport{
		Ratio:   0.4,
		Generic: []genericCase{{Name: "grid8", ColdNodes: 20, WarmNodes: 8}},
		Step1: []step1Case{
			{Name: "irregular18-s0", Error: "ring: no globally consistent L-order assignment exists"},
			{Name: "irregular18-s2", Nodes: 97, Optimal: true, Length: 85.9},
		},
	}
}

// TestCheckSolverMissingCaseFails: a committed case that the fresh run
// no longer produces is a failure, on both parts.
func TestCheckSolverMissingCaseFails(t *testing.T) {
	path := writeReport(t, solverFixture())
	if err := checkSolverReport(solverFixture(), path); err != nil {
		t.Fatalf("identical report failed: %v", err)
	}
	noGeneric := solverFixture()
	noGeneric.Generic = nil
	if err := checkSolverReport(noGeneric, path); err == nil {
		t.Error("run missing a committed generic case passed")
	}
	noStep1 := solverFixture()
	noStep1.Step1 = noStep1.Step1[:1]
	if err := checkSolverReport(noStep1, path); err == nil {
		t.Error("run missing a committed Step-1 case passed")
	}
}

// TestCheckSolverCommittedSuccessNowFails: a Step-1 instance committed
// as succeeding must still succeed, with the same node count; a
// committed failure that now succeeds is not a regression.
func TestCheckSolverCommittedSuccessNowFails(t *testing.T) {
	path := writeReport(t, solverFixture())

	broken := solverFixture()
	broken.Step1[1] = step1Case{Name: "irregular18-s2", Error: "ring: no globally consistent L-order assignment exists"}
	if err := checkSolverReport(broken, path); err == nil {
		t.Error("committed success that now errors passed")
	}

	moved := solverFixture()
	moved.Step1[1].Nodes++
	if err := checkSolverReport(moved, path); err == nil {
		t.Error("Step-1 node count change passed")
	}
	movedGeneric := solverFixture()
	movedGeneric.Generic[0].WarmNodes--
	if err := checkSolverReport(movedGeneric, path); err == nil {
		t.Error("generic node count change passed")
	}

	fixed := solverFixture()
	fixed.Step1[0] = step1Case{Name: "irregular18-s0", Nodes: 40, Optimal: true, Length: 90}
	if err := checkSolverReport(fixed, path); err != nil {
		t.Errorf("committed failure that now succeeds failed the check: %v", err)
	}
}
