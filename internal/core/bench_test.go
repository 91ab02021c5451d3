package core

import (
	"context"
	"testing"

	"xring/internal/noc"
	"xring/internal/ring"
)

// sweepBenchNets returns n seeded 17-node irregular floorplans whose
// Step-1 ring construction succeeds, on the 16.5 mm die and 2.5 mm
// spacing of the sweep workload, with their rings already in the
// default engine's cache.
func sweepBenchNets(b *testing.B, n int) []*noc.Network {
	b.Helper()
	var nets []*noc.Network
	for seed := int64(1); len(nets) < n; seed++ {
		if seed > int64(16*n) {
			b.Fatalf("only %d of %d seeded floorplans have a ring", len(nets), n)
		}
		net := noc.Irregular(17, 16.5, 16.5, 2.5, seed)
		if _, err := ConstructRingShared(context.Background(), net, ring.Options{}); err != nil {
			continue
		}
		nets = append(nets, net)
	}
	return nets
}

// BenchmarkSweepIrregular17 times one full Sweep (every #wl, both
// sharing policies, with the PDN) per op over 8 seeded 17-node irregular
// floorplans, rotating the objective. Rings are built before the timer,
// so Steps 2-4 and the analyses dominate, Step 3 the most.
func BenchmarkSweepIrregular17(b *testing.B) {
	ResetRingCache()
	ResetHintCache()
	nets := sweepBenchNets(b, 8)
	objectives := []Objective{MinPower, MaxSNR, MinWorstIL}
	opt := Options{WithPDN: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SweepCtx(context.Background(), nets[i%len(nets)], opt, objectives[i%len(objectives)], nil); err != nil {
			b.Fatal(err)
		}
	}
}
