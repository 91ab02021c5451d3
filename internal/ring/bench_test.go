package ring

import (
	"slices"
	"testing"

	"xring/internal/noc"
	"xring/internal/parallel"
)

// TestBuildConflictsWorkerInvariant pins the sharded conflict scan to
// the single-worker result: the table is a set, so any stripe count and
// completion order must produce the identical bitset.
func TestBuildConflictsWorkerInvariant(t *testing.T) {
	defer parallel.SetWorkers(0)
	for _, net := range []*noc.Network{
		noc.Floorplan16(),
		noc.Irregular(20, 20, 20, 1.5, 11),
	} {
		parallel.SetWorkers(1)
		serial := buildConflicts(net)
		parallel.SetWorkers(8)
		par := buildConflicts(net)
		if serial.pairs == 0 || serial.pairs != par.pairs {
			t.Fatalf("conflict count: %d serial vs %d parallel", serial.pairs, par.pairs)
		}
		if !slices.Equal(serial.bits, par.bits) {
			t.Fatal("parallel conflict bitset differs from the serial one")
		}
	}
}

// BenchmarkBuildConflicts16 measures the Step-1 conflict scan on the
// standard 16-node floorplan (the bounding-box rejection in
// geom.EdgesConflict is the main lever at this size).
func BenchmarkBuildConflicts16(b *testing.B) {
	net := noc.Floorplan16()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ct := buildConflicts(net); ct == nil {
			b.Fatal("nil table")
		}
	}
}

// BenchmarkBuildConflicts32 is the 32-node variant: ~496 edges, ~123k
// edge pairs.
func BenchmarkBuildConflicts32(b *testing.B) {
	net := noc.Floorplan32()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ct := buildConflicts(net); ct == nil {
			b.Fatal("nil table")
		}
	}
}

// BenchmarkBuildConflictsIrregular48 stresses the scan on a large
// irregular floorplan where few pairs are rejected trivially.
func BenchmarkBuildConflictsIrregular48(b *testing.B) {
	net := noc.Irregular(48, 40, 40, 1.5, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ct := buildConflicts(net); ct == nil {
			b.Fatal("nil table")
		}
	}
}
