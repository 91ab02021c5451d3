package mapping

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"xring/internal/noc"
	"xring/internal/phys"
	"xring/internal/ring"
	"xring/internal/router"
	"xring/internal/shortcut"
)

// naiveRun is the reference Step 3 the differential test compares Run
// with. It keeps no index: first fit scans every waveguide's channel
// list (refFirstFit), routes live in a map of individually allocated
// values, and jobs are ordered by a stable sort over the traffic order.
// Only the parts that never touch the slot index (the spare repack,
// radial pairing and the lower bound) are shared with Run.
func naiveRun(d *router.Design, opt Options) (*Stats, error) {
	if opt.MaxWL < 1 {
		return nil, fmt.Errorf("mapping: MaxWL must be >= 1, got %d", opt.MaxWL)
	}
	if opt.FaultTolerance < 0 || opt.FaultTolerance > 1 {
		return nil, fmt.Errorf("mapping: FaultTolerance must be 0 or 1, got %d", opt.FaultTolerance)
	}
	d.MaxWL = opt.MaxWL
	stats := &Stats{}
	sup, err := shortcut.SupportedSignals(d, opt.Traffic)
	if err != nil {
		return nil, err
	}
	owned := map[noc.Signal]bool{}
	for _, s := range sup {
		sc := d.Shortcuts[s.SC]
		wl := 0
		switch {
		case s.ViaCSE:
			wl = 2
		case sc.Partner != -1 && s.SC > sc.Partner:
			wl = 1
		}
		sc.Channels = append(sc.Channels, router.ShortcutChannel{Sig: s.Sig, WL: wl, ViaCSE: s.ViaCSE})
		d.Routes[s.Sig] = &router.Route{Sig: s.Sig, Kind: router.OnShortcut, SC: s.SC, ViaCSE: s.ViaCSE, WL: wl}
		owned[s.Sig] = true
	}
	stats.ShortcutSignals = len(sup)

	traffic := opt.Traffic
	if traffic == nil {
		traffic = noc.AllToAll(d.N())
	}
	var sigs []noc.Signal
	seen := map[noc.Signal]bool{}
	for _, sig := range traffic {
		if sig.Src == sig.Dst {
			return nil, fmt.Errorf("mapping: traffic contains self-signal %v", sig)
		}
		if seen[sig] {
			return nil, fmt.Errorf("mapping: traffic contains duplicate signal %v", sig)
		}
		seen[sig] = true
		if !owned[sig] {
			sigs = append(sigs, sig)
		}
	}
	mode := freshOnly
	if opt.PreferSharing {
		mode = shareFirst
	}
	underCap := func() bool {
		return opt.MaxWaveguides == 0 || len(d.Waveguides) < opt.MaxWaveguides
	}
	for _, jb := range naiveJobs(d, sigs) {
		placed := naivePlace(d, d.Routes, 0, jb.sig, jb.dir, opt.MaxWL, mode)
		if !placed && opt.AllowDetour {
			placed = naivePlace(d, d.Routes, 0, jb.sig, 1-jb.dir, opt.MaxWL, mode)
		}
		if !placed && underCap() {
			naiveNewWaveguide(d, d.Routes, jb.sig, jb.dir)
			placed = true
		}
		if !placed && mode == freshOnly {
			placed = naivePlace(d, d.Routes, 0, jb.sig, jb.dir, opt.MaxWL, freshThenShare)
		}
		if !placed {
			return nil, fmt.Errorf("mapping: signal %v does not fit", jb.sig)
		}
		stats.RingSignals++
	}
	if !opt.NoOpenings {
		if err := naiveOpen(d, d.Routes, 0, opt, stats); err != nil {
			return nil, err
		}
	}
	if opt.FaultTolerance > 0 {
		firstSpare := len(d.Waveguides)
		d.SpareRoutes = map[noc.Signal]*router.Route{}
		var all []noc.Signal
		for sig := range d.Routes {
			all = append(all, sig)
		}
		for _, jb := range naiveJobs(d, all) {
			if naivePlace(d, d.SpareRoutes, firstSpare, jb.sig, jb.dir, opt.MaxWL, freshThenShare) {
				continue
			}
			if !underCap() {
				return nil, fmt.Errorf("mapping: fault-tolerant spare for %v does not fit", jb.sig)
			}
			naiveNewWaveguide(d, d.SpareRoutes, jb.sig, jb.dir)
		}
		repackSpares(d, firstSpare, opt, stats)
		if !opt.NoOpenings {
			if err := naiveOpen(d, d.SpareRoutes, firstSpare, opt, stats); err != nil {
				return nil, err
			}
		}
		stats.SpareSignals = len(d.SpareRoutes)
		stats.SpareWGs = len(d.Waveguides) - firstSpare
	}
	assignRadials(d)
	stats.ChannelLowerBound = channelLowerBound(d)
	return stats, nil
}

// naiveJobs orders signals longest shortest-direction arc first, ties in
// (src, dst) order, with a stable sort.
func naiveJobs(d *router.Design, sigs []noc.Signal) []ringJob {
	var jobs []ringJob
	for _, sig := range sigs {
		cw := d.ArcLen(sig.Src, sig.Dst, router.CW)
		ccw := d.ArcLen(sig.Src, sig.Dst, router.CCW)
		dir, l := router.CW, cw
		if ccw < cw {
			dir, l = router.CCW, ccw
		}
		jobs = append(jobs, ringJob{sig, dir, l})
	}
	sort.SliceStable(jobs, func(i, j int) bool {
		if jobs[i].len != jobs[j].len {
			return jobs[i].len > jobs[j].len
		}
		if jobs[i].sig.Src != jobs[j].sig.Src {
			return jobs[i].sig.Src < jobs[j].sig.Src
		}
		return jobs[i].sig.Dst < jobs[j].sig.Dst
	})
	return jobs
}

func naivePlace(d *router.Design, routes map[noc.Signal]*router.Route, minWG int,
	sig noc.Signal, dir router.Direction, maxWL int, mode placeMode) bool {
	w, wl := refFirstFit(d, minWG, sig, dir, maxWL, mode)
	if w == nil {
		return false
	}
	w.Channels = append(w.Channels, router.Channel{Sig: sig, WL: wl})
	routes[sig] = &router.Route{Sig: sig, Kind: router.OnRing, WG: w.ID, WL: wl}
	return true
}

func naiveNewWaveguide(d *router.Design, routes map[noc.Signal]*router.Route, sig noc.Signal, dir router.Direction) {
	w := &router.Waveguide{ID: len(d.Waveguides), Dir: dir, Opening: -1}
	d.Waveguides = append(d.Waveguides, w)
	w.Channels = append(w.Channels, router.Channel{Sig: sig})
	routes[sig] = &router.Route{Sig: sig, Kind: router.OnRing, WG: w.ID}
}

// naiveOpen is the opening phase over plain channel lists.
func naiveOpen(d *router.Design, routes map[noc.Signal]*router.Route, start int, opt Options, stats *Stats) error {
	openingUsed := make([]bool, d.N())
	for _, w := range d.Waveguides[:start] {
		if w.Opening >= 0 {
			openingUsed[w.Opening] = true
		}
	}
	maxPasses := 4 * (len(d.Waveguides) + 1)
	for i := start; i < len(d.Waveguides); i++ {
		if i-start > maxPasses {
			return fmt.Errorf("mapping: opening relocation did not converge")
		}
		w := d.Waveguides[i]
		counts := passerCounts(d, w, nil)
		best, bestCount, bestAligned := -1, int(^uint(0)>>1), false
		for id, cnt := range counts {
			aligned := opt.AlignOpenings && openingUsed[id]
			if cnt < bestCount || cnt == bestCount && aligned && !bestAligned {
				best, bestCount, bestAligned = id, cnt, aligned
			}
		}
		var keep, move []router.Channel
		for _, c := range w.Channels {
			if d.PassesNode(c.Sig.Src, c.Sig.Dst, best, w.Dir) {
				move = append(move, c)
			} else {
				keep = append(keep, c)
			}
		}
		w.Channels = keep
		w.Opening = best
		openingUsed[best] = true
		mode := freshThenShare
		if opt.PreferSharing {
			mode = shareFirst
		}
		for _, c := range move {
			stats.Relocated++
			if naivePlace(d, routes, start, c.Sig, w.Dir, d.MaxWL, mode) {
				continue
			}
			naiveNewWaveguide(d, routes, c.Sig, w.Dir)
			stats.ExtraWGs++
		}
	}
	return nil
}

// oracleNets returns the differential test's floorplans: the paper's
// regular grids and seeded irregular floorplans of 9 to 24 nodes.
func oracleNets() []*noc.Network {
	nets := []*noc.Network{noc.Floorplan8(), noc.Floorplan16(), noc.Floorplan32()}
	for i, n := range []int{9, 12, 15, 17, 20, 24} {
		side := 10 + float64(n)/2
		nets = append(nets, noc.Irregular(n, side, side, 2.0, int64(100+i)))
	}
	return nets
}

// sameRouteTables reports whether two route tables hold equal values.
func sameRouteTables(a, b map[noc.Signal]*router.Route) bool {
	return len(a) == len(b) && maps.EqualFunc(a, b, func(x, y *router.Route) bool { return *x == *y })
}

// diffDesigns returns a description of the first Step-3 difference
// between two designs, or "".
func diffDesigns(got, want *router.Design) string {
	if len(got.Waveguides) != len(want.Waveguides) {
		return fmt.Sprintf("%d waveguides, want %d", len(got.Waveguides), len(want.Waveguides))
	}
	for i, g := range got.Waveguides {
		w := want.Waveguides[i]
		if g.ID != w.ID || g.Dir != w.Dir || g.Opening != w.Opening || g.Radial != w.Radial {
			return fmt.Sprintf("waveguide %d: {ID %d %v opening %d radial %d}, want {ID %d %v opening %d radial %d}",
				i, g.ID, g.Dir, g.Opening, g.Radial, w.ID, w.Dir, w.Opening, w.Radial)
		}
		if !slices.Equal(g.Channels, w.Channels) {
			return fmt.Sprintf("waveguide %d channels %v, want %v", i, g.Channels, w.Channels)
		}
	}
	for i, g := range got.Shortcuts {
		if !slices.Equal(g.Channels, want.Shortcuts[i].Channels) {
			return fmt.Sprintf("shortcut %d channels %v, want %v", i, g.Channels, want.Shortcuts[i].Channels)
		}
	}
	if !sameRouteTables(got.Routes, want.Routes) {
		return "route tables differ"
	}
	if (got.SpareRoutes == nil) != (want.SpareRoutes == nil) || !sameRouteTables(got.SpareRoutes, want.SpareRoutes) {
		return "spare route tables differ"
	}
	return ""
}

// ftWLs returns the #wl values a floorplan's fault-tolerant cases run
// at. The exact spare repack takes about half a second per run on small
// floorplans, so the 8-node grid runs one #wl it improves (5) besides
// #wl=1, and the 9-node floorplan none; larger all-to-all designs exceed
// the repack's size gate, and run a spread of #wl from tight to wide.
func ftWLs(n int, traffic []noc.Signal) []int {
	switch {
	case n == 8 && traffic == nil:
		return []int{1, 5}
	case n < 12 || traffic != nil && n < 20:
		return nil
	}
	return []int{1, 2, 3, n / 2, n}
}

// TestRunMatchesNaiveMapper compares Run with naiveRun on the paper's
// grids and seeded irregular floorplans of 9 to 24 nodes, for all-to-all
// and a seeded traffic subset, under both sharing policies, with and
// without openings: nominal at every #wl, fault-tolerant at the #wl of
// ftWLs. The waveguides, shortcut channels, routes, spare routes and
// stats must be equal.
func TestRunMatchesNaiveMapper(t *testing.T) {
	if raceEnabled {
		// Step 3 runs on one goroutine, so the race detector has nothing
		// to check here, and it slows the spare repack about 30x.
		t.Skip("differential output check; too slow under the race detector")
	}
	repacked := false
	for ni, net := range oracleNets() {
		res, err := ring.Construct(net, ring.Options{})
		if err != nil {
			t.Fatalf("floorplan %d: %v", ni, err)
		}
		n := net.N()
		rng := rand.New(rand.NewSource(int64(ni)))
		var subset []noc.Signal
		for _, sig := range noc.AllToAll(n) {
			if rng.Intn(2) == 0 {
				subset = append(subset, sig)
			}
		}
		rng.Shuffle(len(subset), func(i, j int) { subset[i], subset[j] = subset[j], subset[i] })
		build := func(traffic []noc.Signal) *router.Design {
			d, err := router.NewDesign(net, phys.Default(), res.Tour, res.Orders)
			if err != nil {
				t.Fatal(err)
			}
			if err := shortcut.Construct(d, shortcut.Options{Traffic: traffic}); err != nil {
				t.Fatal(err)
			}
			return d
		}
		for _, traffic := range [][]noc.Signal{nil, subset} {
			type point struct{ wl, ft int }
			var points []point
			for wl := 1; wl <= n; wl++ {
				points = append(points, point{wl, 0})
			}
			for _, wl := range ftWLs(n, traffic) {
				points = append(points, point{wl, 1})
			}
			for _, pt := range points {
				for _, share := range []bool{false, true} {
					for _, noOpen := range []bool{false, true} {
						opt := Options{MaxWL: pt.wl, PreferSharing: share, NoOpenings: noOpen, AlignOpenings: true,
							MaxWaveguides: WaveguideCap(net, phys.Default()), Traffic: traffic, FaultTolerance: pt.ft}
						name := fmt.Sprintf("floorplan %d (%d nodes) traffic %d #wl=%d share=%v noOpen=%v ft=%d",
							ni, n, len(traffic), pt.wl, share, noOpen, pt.ft)
						dg, dw := build(traffic), build(traffic)
						got, gerr := Run(dg, opt)
						want, werr := naiveRun(dw, opt)
						if (gerr == nil) != (werr == nil) {
							t.Fatalf("%s: Run error %v, naive error %v", name, gerr, werr)
						}
						if gerr != nil {
							continue
						}
						if *got != *want {
							t.Fatalf("%s: stats %+v, want %+v", name, *got, *want)
						}
						if diff := diffDesigns(dg, dw); diff != "" {
							t.Fatalf("%s: %s", name, diff)
						}
						repacked = repacked || got.SpareRepacked
					}
				}
			}
		}
	}
	if !repacked {
		t.Fatal("no fault-tolerant case ran the spare repack")
	}
}
