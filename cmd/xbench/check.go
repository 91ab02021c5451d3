package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// ratioSlack is how far a machine-independent ratio may fall below its
// committed value before -check fails (25%).
const ratioSlack = 1.25

// checkAgainst is the shared -check driver: it loads the committed
// report at path into want, runs compare, and prints and returns the
// failures compare lists. kind names the bench in every message.
func checkAgainst(kind, path string, want any, compare func() []string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("%s check: %w", kind, err)
	}
	if err := json.Unmarshal(data, want); err != nil {
		return fmt.Errorf("%s check: parse %s: %w", kind, path, err)
	}
	failures := compare()
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "%s check FAIL: %s\n", kind, f)
		}
		return fmt.Errorf("%s check: %d regression(s) against %s", kind, len(failures), path)
	}
	fmt.Fprintf(os.Stderr, "%s check OK against %s\n", kind, path)
	return nil
}

// checkRatio gates a higher-is-better ratio against its committed value
// with ratioSlack. A committed ratio that is missing or not positive is
// a failure too: no fresh value could ever fall below it.
func checkRatio(name string, want, got float64) []string {
	if !(want > 0) {
		return []string{fmt.Sprintf("committed %s is missing or not positive (%v); re-record the report", name, want)}
	}
	if got < want/ratioSlack {
		return []string{fmt.Sprintf("%s fell %.2fx -> %.2fx (>25%%)", name, want, got)}
	}
	return nil
}
