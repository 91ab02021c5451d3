package service

import (
	"encoding/json"
	"testing"

	"xring/internal/core"
	"xring/internal/noc"
)

// FuzzExpandScenarios feeds arbitrary whatif fault specs to the
// expansion against a fixed 8-node design (a universe of a few hundred
// faults): no spec may panic it, and an accepted one stays within both
// the scenario cap and the total-fault cap.
func FuzzExpandScenarios(f *testing.F) {
	res, err := core.Synthesize(noc.Floorplan8(), core.Options{MaxWL: 7})
	if err != nil {
		f.Fatal(err)
	}
	d := res.Design
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec WhatifFaults
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		scs, _, err := expandScenarios(d, &spec)
		if err != nil {
			return
		}
		if len(scs) > maxWhatifScenarios {
			t.Fatalf("%s: %d scenarios, max %d", data, len(scs), maxWhatifScenarios)
		}
		total := 0
		for _, sc := range scs {
			total += len(sc)
		}
		if total > maxWhatifFaults {
			t.Fatalf("%s: %d faults, max %d", data, total, maxWhatifFaults)
		}
	})
}
