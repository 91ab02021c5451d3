package main

// One record schema for every -bench mode, one writer and one -check
// comparator. A bench returns a record: its kind, the host it ran on,
// and a flat list of named metrics. Each metric carries its own gate,
// so the committed BENCH_<kind>.json file is the whole specification
// of what -check enforces:
//
//	exact  fresh == committed (deterministic counts)
//	min    fresh >= committed
//	max    fresh <= committed
//	ratio  fresh >= committed / ratioSlack (machine-independent ratios);
//	       a committed ratio <= 0 fails, since nothing could fall below it
//	""     recorded only
//
// A committed gated metric missing from the fresh run fails, and so
// does a fresh gated metric the committed record lacks. A committed
// metric that carries an error (a recorded failure, such as a Step-1
// instance with no consistent L-order) is not gated; if the fresh run
// succeeds there, -check prints a note asking for a re-record. A
// committed success whose fresh run errors fails.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// ratioSlack is how far a machine-independent ratio may fall below its
// committed value before -check fails (25%).
const ratioSlack = 1.25

// Gate kinds.
const (
	gateExact = "exact"
	gateMin   = "min"
	gateMax   = "max"
	gateRatio = "ratio"
)

// host fingerprints the machine and toolchain a record was made on.
type host struct {
	GoVersion    string `json:"goVersion"`
	GoOS         string `json:"goos"`
	GoArch       string `json:"goarch"`
	Cores        int    `json:"cores"`
	GoMaxProcs   int    `json:"gomaxprocs"`
	TimestampUTC string `json:"timestampUTC"`
}

// metric is one named value. Error, when set, records that the measured
// operation failed; Value is then meaningless.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Gate  string  `json:"gate,omitempty"`
	Error string  `json:"error,omitempty"`
}

// record is the BENCH_<kind>.json schema shared by every bench.
type record struct {
	Kind    string   `json:"kind"`
	Host    host     `json:"host"`
	Metrics []metric `json:"metrics"`
}

func newRecord(kind string) *record {
	return &record{Kind: kind, Host: host{
		GoVersion:    runtime.Version(),
		GoOS:         runtime.GOOS,
		GoArch:       runtime.GOARCH,
		Cores:        runtime.NumCPU(),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		TimestampUTC: time.Now().UTC().Format(time.RFC3339),
	}}
}

// add appends a metric; gate is one of the gate kinds or "" for info.
func (r *record) add(name string, value float64, gate string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Gate: gate})
}

// addError appends a gated metric whose measurement failed with err.
func (r *record) addError(name, gate string, err error) {
	r.Metrics = append(r.Metrics, metric{Name: name, Gate: gate, Error: err.Error()})
}

// write stores the record as indented JSON.
func (r *record) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readRecord loads a committed record.
func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if r.Kind == "" {
		return nil, fmt.Errorf("%s: no bench kind recorded", path)
	}
	return &r, nil
}

// check compares a fresh record against the committed one read from
// path, prints every failure and note, and returns an error on
// regression.
func check(got, want *record, path string) error {
	failures, notes := compareRecords(want, got)
	for _, n := range notes {
		fmt.Fprintf(os.Stderr, "%s check note: %s\n", got.Kind, n)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "%s check FAIL: %s\n", got.Kind, f)
		}
		return fmt.Errorf("%s check: %d regression(s) against %s", got.Kind, len(failures), path)
	}
	fmt.Fprintf(os.Stderr, "%s check OK against %s\n", got.Kind, path)
	return nil
}

// compareRecords applies the committed record's gates to a fresh one.
func compareRecords(want, got *record) (failures, notes []string) {
	if want.Kind != got.Kind {
		return []string{fmt.Sprintf("committed record is a %q bench, this run is %q", want.Kind, got.Kind)}, nil
	}
	fresh := map[string]metric{}
	for _, m := range got.Metrics {
		fresh[m.Name] = m
	}
	committed := map[string]bool{}
	for _, w := range want.Metrics {
		if w.Gate == "" {
			continue
		}
		committed[w.Name] = true
		g, ok := fresh[w.Name]
		switch {
		case !ok:
			failures = append(failures, fmt.Sprintf("%s: committed metric missing from this run", w.Name))
		case g.Gate != w.Gate:
			failures = append(failures, fmt.Sprintf("%s: gated %q in this run but %q in the record; re-record it", w.Name, g.Gate, w.Gate))
		case w.Error != "":
			if g.Error == "" {
				notes = append(notes, fmt.Sprintf("%s now succeeds (committed error %q); re-record to gate it", w.Name, w.Error))
			}
		case g.Error != "":
			failures = append(failures, fmt.Sprintf("%s: committed success now fails: %s", w.Name, g.Error))
		default:
			if f := gateFailure(w.Gate, w.Value, g.Value); f != "" {
				failures = append(failures, w.Name+": "+f)
			}
		}
	}
	for _, g := range got.Metrics {
		if g.Gate != "" && !committed[g.Name] {
			failures = append(failures, fmt.Sprintf("%s: gated metric not gated in the committed record; re-record it", g.Name))
		}
	}
	return failures, notes
}

// gateFailure returns why got fails the gate against want, or "".
func gateFailure(gate string, want, got float64) string {
	switch gate {
	case gateExact:
		if got != want {
			return fmt.Sprintf("%v -> %v; the value is deterministic, re-record if it changed on purpose", want, got)
		}
	case gateMin:
		if got < want {
			return fmt.Sprintf("fell %v -> %v", want, got)
		}
	case gateMax:
		if got > want {
			return fmt.Sprintf("grew %v -> %v", want, got)
		}
	case gateRatio:
		if !(want > 0) {
			return fmt.Sprintf("committed ratio is not positive (%v); re-record it", want)
		}
		if got < want/ratioSlack {
			return fmt.Sprintf("fell %.2fx -> %.2fx (>25%%)", want, got)
		}
	default:
		return fmt.Sprintf("unknown gate %q", gate)
	}
	return ""
}
