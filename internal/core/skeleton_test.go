package core

import (
	"context"
	"testing"

	"xring/internal/noc"
	"xring/internal/ring"
)

// TestSkeletonMatchesFreshConstruction asserts the sweep's shared
// Step-2 prefix is invisible in the results: every (#wl, policy)
// candidate synthesized from a skeleton clone is bit-identical to one
// that runs shortcut construction itself.
func TestSkeletonMatchesFreshConstruction(t *testing.T) {
	for _, net := range []*noc.Network{
		noc.Floorplan8(),
		noc.Irregular(8, 10, 10, 2.0, 4),
	} {
		rres, err := ring.Construct(net, ring.Options{})
		if err != nil {
			t.Fatalf("ring: %v", err)
		}
		base := Options{WithPDN: true}
		skel, err := buildShortcutSkeleton(context.Background(), net, rres, base)
		if err != nil {
			t.Fatalf("skeleton: %v", err)
		}
		for wl := 1; wl <= net.N(); wl++ {
			for _, share := range []bool{false, true} {
				opt := base
				opt.MaxWL = wl
				opt.ShareWavelengths = share
				fresh, freshErr := SynthesizeOnRingCtx(context.Background(), net, rres, opt)
				shared, sharedErr := synthesizeOnRing(context.Background(), net, rres, opt, skel)
				if (freshErr == nil) != (sharedErr == nil) {
					t.Fatalf("wl=%d share=%v: feasibility diverged: %v vs %v", wl, share, freshErr, sharedErr)
				}
				if freshErr != nil {
					continue
				}
				if fresh.Loss.WorstIL != shared.Loss.WorstIL ||
					fresh.Loss.TotalPowerMW != shared.Loss.TotalPowerMW ||
					fresh.Loss.WavelengthCount != shared.Loss.WavelengthCount ||
					fresh.Xtalk.WorstSNR != shared.Xtalk.WorstSNR ||
					fresh.Xtalk.NumNoisy != shared.Xtalk.NumNoisy {
					t.Fatalf("wl=%d share=%v: reports diverged: IL %v/%v P %v/%v SNR %v/%v",
						wl, share,
						fresh.Loss.WorstIL, shared.Loss.WorstIL,
						fresh.Loss.TotalPowerMW, shared.Loss.TotalPowerMW,
						fresh.Xtalk.WorstSNR, shared.Xtalk.WorstSNR)
				}
				if len(fresh.Design.Shortcuts) != len(shared.Design.Shortcuts) {
					t.Fatalf("wl=%d share=%v: %d vs %d shortcuts", wl, share,
						len(fresh.Design.Shortcuts), len(shared.Design.Shortcuts))
				}
			}
		}
		// Skeleton clones must stay channel-free across candidates: a
		// candidate's mapping must never leak into the shared skeleton.
		for i, sc := range skel.shortcuts {
			if len(sc.Channels) != 0 {
				t.Fatalf("skeleton shortcut %d picked up %d channels", i, len(sc.Channels))
			}
		}
	}
}
