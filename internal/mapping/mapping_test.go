package mapping

import (
	"testing"

	"xring/internal/noc"
	"xring/internal/phys"
	"xring/internal/ring"
	"xring/internal/router"
	"xring/internal/shortcut"
)

// synth runs Steps 1-3 for a network and returns the design.
func synth(t *testing.T, net *noc.Network, opt Options) (*router.Design, *Stats) {
	t.Helper()
	res, err := ring.Construct(net, ring.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := router.NewDesign(net, phys.Default(), res.Tour, res.Orders)
	if err != nil {
		t.Fatal(err)
	}
	if err := shortcut.Construct(d, shortcut.Options{}); err != nil {
		t.Fatal(err)
	}
	stats, err := Run(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	return d, stats
}

func TestRunGrid8(t *testing.T) {
	net := noc.Floorplan8()
	d, stats := synth(t, net, Options{MaxWL: 8, AlignOpenings: true})
	if err := d.Validate(); err != nil {
		t.Fatalf("synthesized design invalid: %v", err)
	}
	// All 56 signals routed exactly once.
	if len(d.Routes) != 56 {
		t.Fatalf("routes = %d, want 56", len(d.Routes))
	}
	if stats.RingSignals+stats.ShortcutSignals != 56 {
		t.Fatalf("stats partition %d+%d != 56", stats.RingSignals, stats.ShortcutSignals)
	}
	// The two grid-8 shortcuts carry two signals each.
	if stats.ShortcutSignals != 4 {
		t.Fatalf("shortcut signals = %d, want 4", stats.ShortcutSignals)
	}
	// Every waveguide got an opening.
	for _, w := range d.Waveguides {
		if w.Opening < 0 {
			t.Fatalf("waveguide %d has no opening", w.ID)
		}
	}
}

func TestRunNoOpenings(t *testing.T) {
	net := noc.Floorplan8()
	d, _ := synth(t, net, Options{MaxWL: 8, NoOpenings: true})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, w := range d.Waveguides {
		if w.Opening != -1 {
			t.Fatalf("waveguide %d should have no opening", w.ID)
		}
	}
}

func TestRunRejectsBadBudget(t *testing.T) {
	net := noc.Floorplan8()
	res, err := ring.Construct(net, ring.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := router.NewDesign(net, phys.Default(), res.Tour, res.Orders)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(d, Options{MaxWL: 0}); err == nil {
		t.Fatal("want error for MaxWL=0")
	}
}

func TestTightBudgetCreatesMoreWaveguides(t *testing.T) {
	net := noc.Floorplan8()
	dWide, _ := synth(t, net, Options{MaxWL: 8})
	dTight, _ := synth(t, net, Options{MaxWL: 2})
	if err := dTight.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(dTight.Waveguides) <= len(dWide.Waveguides) {
		t.Fatalf("tight budget should need more waveguides: %d vs %d",
			len(dTight.Waveguides), len(dWide.Waveguides))
	}
	// Budget respected on every waveguide.
	for _, w := range dTight.Waveguides {
		for _, c := range w.Channels {
			if c.WL >= 2 {
				t.Fatalf("wavelength %d exceeds budget", c.WL)
			}
		}
	}
}

func TestShortestDirectionChosen(t *testing.T) {
	net := noc.Floorplan8()
	d, _ := synth(t, net, Options{MaxWL: 8, NoOpenings: true})
	for sig, r := range d.Routes {
		if r.Kind != router.OnRing {
			continue
		}
		dir := d.Waveguides[r.WG].Dir
		got := d.ArcLen(sig.Src, sig.Dst, dir)
		other := d.ArcLen(sig.Src, sig.Dst, 1-dir)
		if got > other+1e-9 {
			t.Fatalf("signal %v mapped to longer direction (%v > %v)", sig, got, other)
		}
	}
}

func TestShortcutWavelengthRules(t *testing.T) {
	// Irregular seed 7 yields a CSE-merged pair (see shortcut tests).
	net := noc.Irregular(10, 14, 14, 1.5, 7)
	d, _ := synth(t, net, Options{MaxWL: 10})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	foundPartnerPair := false
	for si, s := range d.Shortcuts {
		for _, c := range s.Channels {
			switch {
			case c.ViaCSE:
				if c.WL != 2 {
					t.Fatalf("CSE channel %v has λ%d, want λ2", c.Sig, c.WL)
				}
			case s.Partner == -1:
				if c.WL != 0 {
					t.Fatalf("plain shortcut channel %v has λ%d, want λ0", c.Sig, c.WL)
				}
			default:
				foundPartnerPair = true
				want := 0
				if si > s.Partner {
					want = 1
				}
				if c.WL != want {
					t.Fatalf("crossed shortcut %d channel %v has λ%d, want λ%d", si, c.Sig, c.WL, want)
				}
			}
		}
	}
	if !foundPartnerPair {
		t.Fatal("expected a CSE-merged pair in this instance")
	}
}

func TestPasserCounts(t *testing.T) {
	net := noc.Floorplan8()
	d, err := router.NewDesign(net, phys.Default(), []int{0, 1, 2, 3, 7, 6, 5, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := &router.Waveguide{ID: 0, Dir: router.CW, Opening: -1, Channels: []router.Channel{
		{Sig: noc.Signal{Src: 0, Dst: 3}, WL: 0}, // passes 1, 2
		{Sig: noc.Signal{Src: 1, Dst: 3}, WL: 1}, // passes 2
	}}
	counts := passerCounts(d, w, nil)
	if counts[1] != 1 || counts[2] != 2 || counts[0] != 0 || counts[7] != 0 {
		t.Fatalf("passerCounts = %v", counts)
	}
}

func TestRadialPairing(t *testing.T) {
	net := noc.Floorplan16()
	d, _ := synth(t, net, Options{MaxWL: 16})
	seen := map[int]bool{}
	for _, w := range d.Waveguides {
		if seen[w.Radial] {
			t.Fatalf("duplicate radial %d", w.Radial)
		}
		seen[w.Radial] = true
	}
	for r := 0; r < len(d.Waveguides); r++ {
		if !seen[r] {
			t.Fatalf("radial positions not contiguous: missing %d", r)
		}
	}
}

func TestAllSignalsReachable16(t *testing.T) {
	net := noc.Floorplan16()
	d, _ := synth(t, net, Options{MaxWL: 16, AlignOpenings: true})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Routes) != 240 {
		t.Fatalf("routes = %d, want 240", len(d.Routes))
	}
	for _, sig := range noc.AllToAll(16) {
		if _, ok := d.Routes[sig]; !ok {
			t.Fatalf("signal %v unrouted", sig)
		}
	}
}

func TestOpeningAlignment(t *testing.T) {
	// With alignment on, openings should concentrate on few nodes.
	net := noc.Floorplan16()
	d, _ := synth(t, net, Options{MaxWL: 16, AlignOpenings: true})
	nodes := map[int]bool{}
	for _, w := range d.Waveguides {
		nodes[w.Opening] = true
	}
	if len(nodes) > len(d.Waveguides) {
		t.Fatal("more opening nodes than waveguides")
	}
}

func TestChannelLowerBound(t *testing.T) {
	net := noc.Floorplan8()
	d, stats := synth(t, net, Options{MaxWL: 8, NoOpenings: true})
	if stats.ChannelLowerBound <= 0 {
		t.Fatal("lower bound must be positive for all-to-all traffic")
	}
	// The bound can never exceed the per-direction slot supply actually
	// consumed: #waveguides(dir) x #wl.
	for _, dir := range []router.Direction{router.CW, router.CCW} {
		supply := len(d.WaveguidesByDir(dir)) * d.MaxWL
		if stats.ChannelLowerBound > supply {
			t.Fatalf("bound %d exceeds %v slot supply %d", stats.ChannelLowerBound, dir, supply)
		}
	}
	// Closed form for the 8-ring with shortest-direction all-to-all:
	// every tour edge is crossed by 2x(1x7+2x6+3x5+4x4)/16... simply
	// require the known value on this symmetric instance.
	if stats.ChannelLowerBound != 10 {
		t.Fatalf("bound = %d, want 10 on the symmetric 8-ring", stats.ChannelLowerBound)
	}
}

func TestMaxWLSweepStaysValid(t *testing.T) {
	net := noc.Floorplan8()
	for wl := 1; wl <= 8; wl++ {
		d, _ := synth(t, net, Options{MaxWL: wl, AlignOpenings: true})
		if err := d.Validate(); err != nil {
			t.Fatalf("#wl=%d: %v", wl, err)
		}
		if len(d.Routes) != 56 {
			t.Fatalf("#wl=%d: %d routes", wl, len(d.Routes))
		}
	}
}

// refFirstFit is the reference first-fit probe the wavelength buckets
// replaced: per waveguide it builds the set of used wavelengths and
// checks a candidate slot against every channel of the waveguide.
func refFirstFit(d *router.Design, minWG int, sig noc.Signal, dir router.Direction,
	maxWL int, mode placeMode) (*router.Waveguide, int) {
	for _, pass := range modePasses[mode] {
		for _, w := range d.Waveguides[minWG:] {
			if w.Dir != dir {
				continue
			}
			if w.Opening >= 0 && d.PassesNode(sig.Src, sig.Dst, w.Opening, dir) {
				continue
			}
			used := map[int]bool{}
			for _, c := range w.Channels {
				used[c.WL] = true
			}
			for wl := 0; wl < maxWL; wl++ {
				if used[wl] && !pass.shared || !used[wl] && !pass.fresh {
					continue
				}
				ok := true
				for _, c := range w.Channels {
					if d.ChannelsCollide(dir, router.Channel{Sig: sig, WL: wl}, c) {
						ok = false
						break
					}
				}
				if ok {
					return w, wl
				}
			}
		}
	}
	return nil, 0
}

// TestFirstFitMatchesReference probes every signal, in both directions
// and under every placement mode and a range of floors, on finished
// designs, and demands the slot-index probe pick the same slot as the
// reference scan.
func TestFirstFitMatchesReference(t *testing.T) {
	for _, net := range []*noc.Network{noc.Floorplan8(), noc.Irregular(12, 12, 12, 2.0, 5)} {
		for _, wl := range []int{1, 2, 4, net.N()} {
			for _, share := range []bool{false, true} {
				d, _ := synth(t, net, Options{MaxWL: wl, PreferSharing: share, AlignOpenings: true})
				idx := newWLIndex(d, 0, 0)
				for _, sig := range noc.AllToAll(net.N()) {
					for _, dir := range []router.Direction{router.CW, router.CCW} {
						for _, mode := range []placeMode{freshOnly, freshThenShare, shareFirst} {
							for _, minWG := range []int{0, len(d.Waveguides) / 2} {
								gw, gwl := idx.firstFit(d, minWG, sig, dir, wl+1, mode)
								rw, rwl := refFirstFit(d, minWG, sig, dir, wl+1, mode)
								if gw != rw || (gw != nil && gwl != rwl) {
									t.Fatalf("#wl=%d share=%v %v %v mode %d floor %d: firstFit (%v, %d), reference (%v, %d)",
										wl, share, sig, dir, mode, minWG, gw, gwl, rw, rwl)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestFirstFitProbeAllocatesNothing guards the Step-3 hot loop: probing
// a warm waveguide for a slot must not touch the heap.
func TestFirstFitProbeAllocatesNothing(t *testing.T) {
	d, _ := synth(t, noc.Floorplan16(), Options{MaxWL: 4, PreferSharing: true})
	idx := newWLIndex(d, 0, 0)
	w := d.Waveguides[0]
	if len(w.Channels) < 2 {
		t.Fatalf("waveguide 0 carries %d channels, want a warm one", len(w.Channels))
	}
	sig := w.Channels[0].Sig
	allocs := testing.AllocsPerRun(100, func() {
		idx.firstFit(d, 0, sig, w.Dir, d.MaxWL, freshThenShare)
	})
	if allocs != 0 {
		t.Fatalf("first-fit probe: %v allocs, want 0", allocs)
	}
}

// TestRunAllocsBounded guards Step 3's allocation budget on a 17-node
// irregular floorplan: building the design, Step 2 and Run together
// stay under a fixed allocation count at every tested #wl and policy.
// The slot index, the route slab and the sized route table keep Run's
// own share to a few hundred allocations; a per-channel or per-slot
// allocation would add thousands.
func TestRunAllocsBounded(t *testing.T) {
	net := noc.Irregular(17, 16.5, 16.5, 2.5, 11)
	res, err := ring.Construct(net, ring.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const bound = 900
	for _, wl := range []int{2, 5, 9, 17} {
		for _, share := range []bool{false, true} {
			opt := Options{MaxWL: wl, PreferSharing: share, AlignOpenings: true,
				MaxWaveguides: WaveguideCap(net, phys.Default())}
			allocs := testing.AllocsPerRun(10, func() {
				d, err := router.NewDesign(net, phys.Default(), res.Tour, res.Orders)
				if err != nil {
					t.Fatal(err)
				}
				if err := shortcut.Construct(d, shortcut.Options{}); err != nil {
					t.Fatal(err)
				}
				if _, err := Run(d, opt); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("#wl=%d share=%v: %v allocs", wl, share, allocs)
			if allocs > bound {
				t.Errorf("#wl=%d share=%v: %v allocs, want <= %d", wl, share, allocs, bound)
			}
		}
	}
}
