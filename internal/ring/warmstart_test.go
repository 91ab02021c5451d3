package ring

import (
	"testing"

	"xring/internal/noc"
)

// TestMILPInstanceRoundTrip: the exported instance must carry a feasible
// heuristic hint (respecting the symmetry break) and decode solver
// solutions back into a full successor assignment.
func TestMILPInstanceRoundTrip(t *testing.T) {
	net := noc.Irregular(6, 8, 8, 1.5, 43)
	inst, err := NewMILPInstance(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Hint == nil {
		t.Fatal("heuristic hint missing on a feasible instance")
	}
	if _, ok := inst.Model.Check(inst.Hint); !ok {
		t.Fatal("encoded hint violates the model (symmetry break orientation?)")
	}
	res, err := ConstructMILP(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkTour(t, net, res)
}
