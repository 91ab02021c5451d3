package router

import (
	"math/rand"
	"strings"
	"testing"

	"xring/internal/geom"
	"xring/internal/noc"
	"xring/internal/phys"
)

// randomTourDesign builds an n-node design over a seeded random tour.
// The nodes sit on a line: Slots and ChannelsCollide read tour
// positions only.
func randomTourDesign(t *testing.T, rng *rand.Rand, n int) *Design {
	t.Helper()
	net := &noc.Network{DieW: float64(n + 1), DieH: 2}
	for i := 0; i < n; i++ {
		net.Nodes = append(net.Nodes, noc.Node{ID: i, Pos: geom.Point{X: float64(i) + 0.5, Y: 1}})
	}
	d, err := NewDesign(net, phys.Default(), rng.Perm(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// randomSlot draws k distinct non-self signals. Each one after the first
// starts where an earlier one ends (head-to-tail reuse), shares an
// earlier one's source, or is drawn freely, with equal odds.
func randomSlot(rng *rand.Rand, n, k int) []noc.Signal {
	var sigs []noc.Signal
	for tries := 0; len(sigs) < k && tries < 20*k; tries++ {
		s := noc.Signal{Src: rng.Intn(n), Dst: rng.Intn(n)}
		if len(sigs) > 0 {
			prev := sigs[rng.Intn(len(sigs))]
			switch rng.Intn(3) {
			case 0:
				s.Src = prev.Dst
			case 1:
				s.Src = prev.Src
			}
		}
		dup := false
		for _, o := range sigs {
			dup = dup || o == s
		}
		if s.Src != s.Dst && !dup {
			sigs = append(sigs, s)
		}
	}
	return sigs
}

// TestSlotsMatchChannelsCollide is the differential test of the slot
// rows: over seeded random tours of every size from 3 to 130 nodes (so
// across the 64-bit word edges at 63-65 and 127-129), both directions
// and slots of 0-8 channels, a candidate collides with the slot's rows
// exactly when ChannelsCollide pairs it with one of the slot's channels.
// Up to 24 nodes and at the word edges every signal is a candidate;
// elsewhere 300 random ones plus every signal that starts, ends or has
// its source at one of the slot's endpoints.
func TestSlotsMatchChannelsCollide(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	edge := map[int]bool{63: true, 64: true, 65: true, 127: true, 128: true, 129: true}
	for n := 3; n <= 130; n++ {
		d := randomTourDesign(t, rng, n)
		for trial := 0; trial < 4; trial++ {
			dir := Direction(rng.Intn(2))
			slot := randomSlot(rng, n, rng.Intn(9))
			occ := NewSlots(d, 0)
			occ.Resize(2) // slot 1 holds the channels; slot 0 stays free
			for _, s := range slot {
				occ.Add(1, dir, s)
			}
			if occ.Free(1) != (len(slot) == 0) || !occ.Free(0) {
				t.Fatalf("n=%d %v %v: Free(1)=%v Free(0)=%v", n, dir, slot, occ.Free(1), occ.Free(0))
			}
			check := func(cand noc.Signal) {
				if cand.Src == cand.Dst {
					return
				}
				want := false
				for _, s := range slot {
					want = want || d.ChannelsCollide(dir, Channel{Sig: s}, Channel{Sig: cand})
				}
				if got := occ.Collides(1, dir, cand); got != want {
					t.Fatalf("n=%d %v slot %v: Collides(%v) = %v, ChannelsCollide says %v", n, dir, slot, cand, got, want)
				}
				if occ.Collides(0, dir, cand) {
					t.Fatalf("n=%d: %v collides with a free slot", n, cand)
				}
			}
			if n <= 24 || edge[n] {
				for _, cand := range noc.AllToAll(n) {
					check(cand)
				}
				continue
			}
			for i := 0; i < 300; i++ {
				check(noc.Signal{Src: rng.Intn(n), Dst: rng.Intn(n)})
			}
			for _, s := range slot {
				for k := 0; k < n; k++ {
					for _, cand := range []noc.Signal{{Src: s.Dst, Dst: k}, {Src: k, Dst: s.Src},
						{Src: k, Dst: s.Dst}, {Src: s.Src, Dst: k}} {
						check(cand)
					}
				}
			}
		}
	}
}

// TestSlotsResizeAndClear checks that cut-off and cleared slots come
// back free.
func TestSlotsResizeAndClear(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randomTourDesign(t, rng, 70)
	occ := NewSlots(d, 1)
	occ.Resize(3)
	for s := 0; s < 3; s++ {
		occ.Add(s, CW, noc.Signal{Src: 1, Dst: 69})
	}
	occ.Resize(1)
	occ.Resize(3)
	if occ.Free(0) || !occ.Free(1) || !occ.Free(2) {
		t.Fatal("Resize: cut slots must come back free and kept ones keep their channels")
	}
	occ.Clear(0, 1)
	if !occ.Free(0) || occ.Collides(0, CW, noc.Signal{Src: 2, Dst: 69}) {
		t.Fatal("Clear: slot 0 must be free")
	}
}

// TestValidateWaveguidesMatchesPairwise plants random channels, with
// collisions among them, on random tours and demands validateWaveguides
// report a collision exactly when some pair of same-λ channels on one
// waveguide collides under ChannelsCollide.
func TestValidateWaveguidesMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 400; iter++ {
		n := 3 + rng.Intn(70)
		d := randomTourDesign(t, rng, n)
		want := false
		for wi := 0; wi < 2; wi++ {
			w := &Waveguide{ID: wi, Dir: Direction(rng.Intn(2)), Opening: -1}
			for _, s := range randomSlot(rng, n, rng.Intn(7)) {
				c := Channel{Sig: s, WL: rng.Intn(3)}
				for _, o := range w.Channels {
					want = want || d.ChannelsCollide(w.Dir, o, c)
				}
				w.Channels = append(w.Channels, c)
			}
			d.Waveguides = append(d.Waveguides, w)
		}
		err := d.validateWaveguides()
		if (err != nil) != want || err != nil && !strings.Contains(err.Error(), "collision") {
			t.Fatalf("iter %d: validateWaveguides = %v, pairwise collision %v", iter, err, want)
		}
	}
}
