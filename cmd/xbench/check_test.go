package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func writeRecord(t *testing.T, r *record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_"+r.Kind+".json")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// checkFile gates got against the record stored at path, as -check does.
func checkFile(t *testing.T, got *record, path string) error {
	t.Helper()
	want, err := readRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	return check(got, want, path)
}

// without returns a copy of r minus the metrics whose names match drop.
func without(r *record, drop func(name string) bool) *record {
	out := &record{Kind: r.Kind, Host: r.Host}
	for _, m := range r.Metrics {
		if !drop(m.Name) {
			out.Metrics = append(out.Metrics, m)
		}
	}
	return out
}

// with returns a copy of r with the named metric replaced by m.
func with(r *record, name string, m metric) *record {
	out := &record{Kind: r.Kind, Host: r.Host}
	for _, old := range r.Metrics {
		if old.Name == name {
			old = m
		}
		out.Metrics = append(out.Metrics, old)
	}
	return out
}

// TestCommittedRecordsSelfCheck: every committed BENCH_*.json parses,
// names a bench xbench runs, is named after its kind, and passes when
// checked against itself.
func TestCommittedRecordsSelfCheck(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(benches) {
		t.Errorf("%d committed records for %d benches: %v", len(paths), len(benches), paths)
	}
	for _, path := range paths {
		rec, err := readRecord(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if _, ok := benches[rec.Kind]; !ok {
			t.Errorf("%s: unknown bench kind %q", path, rec.Kind)
		}
		if filepath.Base(path) != "BENCH_"+rec.Kind+".json" {
			t.Errorf("%s records kind %q", path, rec.Kind)
		}
		if rec.Host.Cores < 1 || rec.Host.GoVersion == "" || rec.Host.TimestampUTC == "" {
			t.Errorf("%s: incomplete host %+v", path, rec.Host)
		}
		if err := check(rec, rec, path); err != nil {
			t.Errorf("%s checked against itself: %v", path, err)
		}
	}
}

// TestGateKinds drives every gate kind through the comparator: a value
// that moves the wrong way fails, one that moves the allowed way
// passes, and the presence rules hold for every kind.
func TestGateKinds(t *testing.T) {
	cases := []struct {
		gate       string
		committed  float64
		pass, fail []float64
	}{
		{gateExact, 10, []float64{10}, []float64{9, 11}},
		{gateMin, 10, []float64{10, 11}, []float64{9}},
		{gateMax, 10, []float64{10, 9}, []float64{11}},
		{gateRatio, 10, []float64{10, 8.01, 20}, []float64{7.99, 0}},
		{"", 10, []float64{0, 10, 1e9}, nil},
	}
	for _, c := range cases {
		want := &record{Kind: "k", Metrics: []metric{{Name: "m", Value: c.committed, Gate: c.gate}}}
		for _, v := range c.pass {
			got := &record{Kind: "k", Metrics: []metric{{Name: "m", Value: v, Gate: c.gate}}}
			if failures, _ := compareRecords(want, got); len(failures) > 0 {
				t.Errorf("gate %q: %v against %v failed: %v", c.gate, v, c.committed, failures)
			}
		}
		for _, v := range c.fail {
			got := &record{Kind: "k", Metrics: []metric{{Name: "m", Value: v, Gate: c.gate}}}
			if failures, _ := compareRecords(want, got); len(failures) != 1 {
				t.Errorf("gate %q: %v against %v: want 1 failure, got %v", c.gate, v, c.committed, failures)
			}
		}
		if c.gate == "" {
			continue
		}
		fresh := &record{Kind: "k", Metrics: []metric{{Name: "m", Value: c.committed, Gate: c.gate}}}
		empty := &record{Kind: "k"}
		if failures, _ := compareRecords(want, empty); len(failures) != 1 {
			t.Errorf("gate %q: committed metric missing from the run: want 1 failure, got %v", c.gate, failures)
		}
		if failures, _ := compareRecords(empty, fresh); len(failures) != 1 || !strings.Contains(failures[0], "re-record") {
			t.Errorf("gate %q: fresh-only metric: want 1 re-record failure, got %v", c.gate, failures)
		}
		info := &record{Kind: "k", Metrics: []metric{{Name: "m", Value: c.committed}}}
		if failures, _ := compareRecords(info, fresh); len(failures) != 1 {
			t.Errorf("gate %q: metric committed ungated: want 1 failure, got %v", c.gate, failures)
		}
		if failures, _ := compareRecords(want, info); len(failures) != 1 {
			t.Errorf("gate %q: metric ungated in the run: want 1 failure, got %v", c.gate, failures)
		}

		recorded := &record{Kind: "k", Metrics: []metric{{Name: "m", Gate: c.gate, Error: "no L-order"}}}
		failures, notes := compareRecords(recorded, fresh)
		if len(failures) > 0 || len(notes) != 1 {
			t.Errorf("gate %q: committed error that now succeeds: failures %v, notes %v", c.gate, failures, notes)
		}
		if failures, notes := compareRecords(recorded, recorded); len(failures) > 0 || len(notes) > 0 {
			t.Errorf("gate %q: committed error that still errors: failures %v, notes %v", c.gate, failures, notes)
		}
		if failures, _ := compareRecords(want, recorded); len(failures) != 1 {
			t.Errorf("gate %q: committed success that now errors: want 1 failure, got %v", c.gate, failures)
		}
	}

	// A committed ratio that is not positive fails whatever the run
	// measures: nothing could ever fall below it.
	for _, committed := range []float64{0, -1} {
		want := &record{Kind: "k", Metrics: []metric{{Name: "r", Value: committed, Gate: gateRatio}}}
		got := &record{Kind: "k", Metrics: []metric{{Name: "r", Value: 5, Gate: gateRatio}}}
		if failures, _ := compareRecords(want, got); len(failures) != 1 {
			t.Errorf("committed ratio %v: want 1 failure, got %v", committed, failures)
		}
	}
	unknown := &record{Kind: "k", Metrics: []metric{{Name: "m", Value: 1, Gate: "approx"}}}
	if failures, _ := compareRecords(unknown, unknown); len(failures) != 1 {
		t.Errorf("unknown gate kind: want 1 failure, got %v", failures)
	}
	if failures, _ := compareRecords(&record{Kind: "a"}, &record{Kind: "b"}); len(failures) != 1 {
		t.Errorf("kind mismatch: want 1 failure, got %v", failures)
	}
}

// TestCheckMissingCommittedRatioFails: every bench's record passes
// checked against itself, and fails when the committed ratio is zero or
// missing instead of passing silently.
func TestCheckMissingCommittedRatioFails(t *testing.T) {
	ratios := map[string]string{
		"solver":  "calibration_ratio",
		"delta":   "recompute_speedup",
		"explore": "amplification",
		"whatif":  "serial_amplification",
		"cluster": "amplification",
	}
	for kind, name := range ratios {
		got := &record{Kind: kind, Metrics: []metric{{Name: name, Value: 2, Gate: gateRatio}}}
		if err := checkFile(t, got, writeRecord(t, got)); err != nil {
			t.Errorf("%s: record checked against itself failed: %v", kind, err)
		}
		zero := with(got, name, metric{Name: name, Gate: gateRatio})
		if err := checkFile(t, got, writeRecord(t, zero)); err == nil {
			t.Errorf("%s: committed record with a zero ratio passed", kind)
		}
		noRatio := without(got, func(string) bool { return true })
		if err := checkFile(t, got, writeRecord(t, noRatio)); err == nil {
			t.Errorf("%s: committed record without a ratio passed", kind)
		}
	}
}

func solverFixture() *record {
	lorder := "ring: no globally consistent L-order assignment exists"
	return &record{Kind: "solver", Metrics: []metric{
		{Name: "generic/grid8/cold_nodes", Value: 20, Gate: gateExact},
		{Name: "generic/grid8/warm_nodes", Value: 8, Gate: gateExact},
		{Name: "step1/irregular18-s0/nodes", Gate: gateExact, Error: lorder},
		{Name: "step1/irregular18-s2/nodes", Value: 97, Gate: gateExact},
		{Name: "step1/irregular18-s2/length", Value: 85.9},
		{Name: "calibration_ratio", Value: 0.4, Gate: gateRatio},
	}}
}

// TestCheckSolverMissingCaseFails: a committed case that the fresh run
// no longer produces is a failure, on both parts.
func TestCheckSolverMissingCaseFails(t *testing.T) {
	path := writeRecord(t, solverFixture())
	if err := checkFile(t, solverFixture(), path); err != nil {
		t.Fatalf("identical record failed: %v", err)
	}
	noGeneric := without(solverFixture(), func(n string) bool { return strings.HasPrefix(n, "generic/") })
	if err := checkFile(t, noGeneric, path); err == nil {
		t.Error("run missing a committed generic case passed")
	}
	noStep1 := without(solverFixture(), func(n string) bool { return strings.HasPrefix(n, "step1/irregular18-s2/") })
	if err := checkFile(t, noStep1, path); err == nil {
		t.Error("run missing a committed Step-1 case passed")
	}
}

// TestCheckSolverCommittedSuccessNowFails: a Step-1 instance committed
// as succeeding must still succeed, with the same node count; a
// committed failure that now succeeds is not a regression.
func TestCheckSolverCommittedSuccessNowFails(t *testing.T) {
	path := writeRecord(t, solverFixture())
	const s2 = "step1/irregular18-s2/nodes"

	broken := with(solverFixture(), s2, metric{Name: s2, Gate: gateExact,
		Error: "ring: no globally consistent L-order assignment exists"})
	if err := checkFile(t, broken, path); err == nil {
		t.Error("committed success that now errors passed")
	}

	moved := with(solverFixture(), s2, metric{Name: s2, Value: 98, Gate: gateExact})
	if err := checkFile(t, moved, path); err == nil {
		t.Error("Step-1 node count change passed")
	}
	const warm = "generic/grid8/warm_nodes"
	movedGeneric := with(solverFixture(), warm, metric{Name: warm, Value: 7, Gate: gateExact})
	if err := checkFile(t, movedGeneric, path); err == nil {
		t.Error("generic node count change passed")
	}

	const s0 = "step1/irregular18-s0/nodes"
	fixed := with(solverFixture(), s0, metric{Name: s0, Value: 40, Gate: gateExact})
	if err := checkFile(t, fixed, path); err != nil {
		t.Errorf("committed failure that now succeeds failed the check: %v", err)
	}
}

// TestRunBenchRejectsUnknownKind: -check on a record of an unknown kind
// and -bench with an unknown name fail before running anything.
func TestRunBenchRejectsUnknownKind(t *testing.T) {
	path := writeRecord(t, &record{Kind: "nosuch"})
	if err := runBench("", "", path); err == nil || !strings.Contains(err.Error(), "unknown bench") {
		t.Errorf("-check on an unknown kind: %v", err)
	}
	if err := runBench("nosuch", "", ""); err == nil {
		t.Error("unknown -bench name passed")
	}
	if _, err := readRecord(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing record loaded")
	}
}
