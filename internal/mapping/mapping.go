// Package mapping implements Step 3 of the XRing flow (Sec. III-C):
// signal mapping, wavelength assignment, and ring waveguide opening.
//
// Signals not supported by shortcuts are mapped onto ring waveguides in
// their shortest travel direction, first-fit over the existing
// waveguides of that direction under a per-waveguide wavelength budget
// #wl (the method inherited from ORing [17]); when no waveguide has a
// compatible free wavelength a new ring waveguide is created. Wavelength
// reuse on one waveguide is allowed for arc-disjoint signals.
//
// Shortcut signals reuse the ring wavelength set: λ0 on non-crossing
// shortcuts, λ0/λ1 on the two shortcuts of a CSE-merged pair, and λ2 for
// the CSE-routed swapped signals (Sec. III-C).
//
// Finally, each ring waveguide is opened at the node passed by the
// fewest signals; signals that still pass the opening are relocated to
// other waveguides of the same direction (or to a fresh waveguide),
// respecting #wl and the other waveguides' openings. Openings let the
// PDN reach inner rings without crossings (Fig. 8).
package mapping

import (
	"fmt"
	"math"
	"sort"

	"xring/internal/noc"
	"xring/internal/obs"
	"xring/internal/phys"
	"xring/internal/router"
	"xring/internal/shortcut"
)

// WaveguideCap returns how many ring waveguides the floorplan can hold:
// concentric pairs stack radially with the Sec. III-D corridor spacing,
// and the stack cannot exceed half the smaller die dimension (at which
// point the innermost ring would collapse onto the die centre).
func WaveguideCap(net *noc.Network, par phys.Params) int {
	spacing := par.RingSpacingMM(net.N())
	budget := math.Min(net.DieW, net.DieH) / 2
	pairs := int(budget / spacing)
	if pairs < 1 {
		pairs = 1
	}
	return 2 * pairs
}

// Options tunes Step 3.
type Options struct {
	// MaxWL is the per-ring wavelength budget #wl (>= 1).
	MaxWL int
	// NoOpenings skips the opening phase (used for the no-PDN
	// comparisons of Table I and by baseline routers).
	NoOpenings bool
	// AlignOpenings biases opening choice toward nodes already used as
	// openings on other waveguides, easing radial PDN trunk routing.
	AlignOpenings bool
	// Traffic restricts the signals the router must support; nil means
	// all-to-all (the paper's evaluation pattern).
	Traffic []noc.Signal
	// MaxWaveguides caps the total ring waveguide count (0 = unlimited).
	// Concentric ring pairs stack radially with the Sec. III-D corridor
	// spacing, so a die can physically hold only so many; callers derive
	// the cap from the floorplan. When the cap is reached, the mapper
	// falls back to wavelength sharing; if that fails too, Run errors
	// (the #wl setting is infeasible on this die).
	MaxWaveguides int
	// AllowDetour lets a signal take the longer ring direction when the
	// shorter one has no free slot, before a new waveguide is created
	// (ORNoC's waveguide-count-minimizing behaviour; the source of its
	// long worst-case paths in Tables I and II).
	AllowDetour bool
	// PreferSharing selects the baseline (ORNoC-style) packing policy:
	// reuse an occupied wavelength on an existing waveguide whenever the
	// arcs are disjoint, minimizing waveguide count at the price of
	// drop-leakage noise. XRing's default policy places each signal on a
	// fresh (waveguide, wavelength) slot, opening a new waveguide when
	// the budget is exhausted, and only shares while relocating channels
	// away from openings.
	PreferSharing bool
	// FaultTolerance requests k-fault-tolerant mapping: after the
	// primary pass, every signal additionally receives a cold-standby
	// spare route on dedicated protection waveguides, disjoint from all
	// primary-traffic waveguides, so the full signal set survives any
	// single MRR failure or ring-segment cut. Only k=0 (off) and k=1 are
	// supported. The spare layer is greedily packed, then repacked
	// exactly through internal/milp (warm-started from the greedy
	// assignment) when the model is small enough.
	FaultTolerance int
}

// placement mode for firstFit.
type placeMode int

const (
	freshOnly      placeMode = iota // unused wavelength slots only
	freshThenShare                  // prefer fresh, fall back to reuse
	shareFirst                      // first fit in wavelength order (reuse-greedy)
)

// slotPass says which (waveguide, wavelength) slots one first-fit pass
// over the waveguides admits: fresh slots (no channel on that wavelength
// yet) and/or shared ones.
type slotPass struct{ fresh, shared bool }

// modePasses lists each mode's passes in probe order.
var modePasses = [...][]slotPass{
	freshOnly:      {{fresh: true}},
	freshThenShare: {{fresh: true}, {shared: true}},
	shareFirst:     {{fresh: true, shared: true}},
}

// wlIndex buckets every ring waveguide's channels by wavelength:
// byWG[w.ID][λ] holds w's channels on λ in w.Channels order. Only
// same-wavelength channels can collide (router.Design.ChannelsCollide),
// so a first-fit probe of slot (w, λ) checks that bucket alone, and
// probing all of w's slots costs O(#wl + w's channels) instead of
// O(#wl × w's channels). "λ is in use on w" is the bucket's length, not
// a set built per probe. Every change Step 3 makes to a waveguide's
// channel list goes through add, newWaveguide or resync, so the buckets
// never go stale.
type wlIndex struct {
	byWG [][][]router.Channel
}

// newWLIndex indexes the waveguides a design already has.
func newWLIndex(d *router.Design) *wlIndex {
	x := &wlIndex{}
	for _, w := range d.Waveguides {
		x.resync(w)
	}
	return x
}

// buckets returns w's wavelength buckets, growing the index to w.ID.
func (x *wlIndex) buckets(w *router.Waveguide) [][]router.Channel {
	for len(x.byWG) <= w.ID {
		x.byWG = append(x.byWG, nil)
	}
	return x.byWG[w.ID]
}

// add appends a channel to w and to its wavelength bucket.
func (x *wlIndex) add(w *router.Waveguide, c router.Channel) {
	w.Channels = append(w.Channels, c)
	x.index(w, c)
}

// index appends a channel of w to its wavelength bucket.
func (x *wlIndex) index(w *router.Waveguide, c router.Channel) {
	b := x.buckets(w)
	for len(b) <= c.WL {
		b = append(b, nil)
	}
	b[c.WL] = append(b[c.WL], c)
	x.byWG[w.ID] = b
}

// resync rebuilds w's buckets from w.Channels after the list was
// filtered or rewritten, reusing the buckets' storage.
func (x *wlIndex) resync(w *router.Waveguide) {
	b := x.buckets(w)
	for wl := range b {
		b[wl] = b[wl][:0]
	}
	for _, c := range w.Channels {
		x.index(w, c)
	}
}

// distinct returns how many wavelengths w carries.
func (x *wlIndex) distinct(w *router.Waveguide) int {
	n := 0
	for _, on := range x.buckets(w) {
		if len(on) > 0 {
			n++
		}
	}
	return n
}

// place records sig on slot (w, wl) in w's channels and the route table.
func (x *wlIndex) place(routes map[noc.Signal]*router.Route, w *router.Waveguide, sig noc.Signal, wl int) {
	x.add(w, router.Channel{Sig: sig, WL: wl})
	routes[sig] = &router.Route{Sig: sig, Kind: router.OnRing, WG: w.ID, WL: wl}
}

// newWaveguide appends a fresh waveguide of direction dir to the design
// and places sig on it at λ0.
func (x *wlIndex) newWaveguide(d *router.Design, routes map[noc.Signal]*router.Route, sig noc.Signal, dir router.Direction) {
	w := &router.Waveguide{ID: len(d.Waveguides), Dir: dir, Opening: -1}
	d.Waveguides = append(d.Waveguides, w)
	x.resync(w) // the ID may index buckets of a waveguide a repack dropped
	x.place(routes, w, sig, 0)
}

// Stats reports what Step 3 did.
type Stats struct {
	// RingSignals and ShortcutSignals partition the traffic.
	RingSignals     int
	ShortcutSignals int
	// Relocated counts channels moved away from openings.
	Relocated int
	// ExtraWGs counts waveguides created only to relocate channels.
	ExtraWGs int
	// ChannelLowerBound is max over directions and tour cuts of the
	// number of arcs crossing the cut: no assignment can use fewer
	// (waveguide, wavelength) slots in that direction, however clever.
	// Comparing #waveguides x #wl against it bounds the optimality gap
	// of the greedy packing.
	ChannelLowerBound int
	// SpareSignals and SpareWGs report the fault-tolerance spare layer:
	// how many cold-standby routes were added and how many protection
	// waveguides carry them (zero in nominal mode).
	SpareSignals int
	SpareWGs     int
	// SpareRepacked reports that the exact MILP repack improved on the
	// greedy spare packing (the greedy assignment was its warm start).
	SpareRepacked bool
}

// channelLowerBound computes the max-cut load over the realized routes.
func channelLowerBound(d *router.Design) int {
	n := d.N()
	best := 0
	for _, dir := range [2]router.Direction{router.CW, router.CCW} {
		// load[i] counts arcs traversing the tour edge i -> i+1.
		load := make([]int, n)
		for _, w := range d.Waveguides {
			if w.Dir != dir {
				continue
			}
			for _, c := range w.Channels {
				si := d.TourPos(c.Sig.Src)
				di := d.TourPos(c.Sig.Dst)
				step := 1
				if dir == router.CCW {
					step = n - 1
				}
				for i := si; i != di; i = (i + step) % n {
					e := i
					if dir == router.CCW {
						e = (i + n - 1) % n
					}
					load[e]++
				}
			}
		}
		for _, l := range load {
			if l > best {
				best = l
			}
		}
	}
	return best
}

// Run executes Step 3 on a design whose tour (Step 1) and shortcuts
// (Step 2) are in place. It fills d.Waveguides, channel wavelengths,
// d.Routes and the waveguide openings.
func Run(d *router.Design, opt Options) (*Stats, error) {
	if opt.MaxWL < 1 {
		return nil, fmt.Errorf("mapping: MaxWL must be >= 1, got %d", opt.MaxWL)
	}
	if opt.FaultTolerance < 0 || opt.FaultTolerance > 1 {
		return nil, fmt.Errorf("mapping: FaultTolerance must be 0 or 1, got %d", opt.FaultTolerance)
	}
	d.MaxWL = opt.MaxWL
	stats := &Stats{}
	idx := newWLIndex(d)

	supported, err := assignShortcutChannels(d, opt.Traffic)
	if err != nil {
		return nil, err
	}
	stats.ShortcutSignals = len(supported)

	if err := mapRingSignals(d, idx, supported, opt, stats); err != nil {
		return nil, err
	}
	if !opt.NoOpenings {
		if err := openWaveguidesIn(d, idx, d.Routes, 0, opt, stats); err != nil {
			return nil, err
		}
	}
	if opt.FaultTolerance > 0 {
		if err := addSpareLayer(d, idx, opt, stats); err != nil {
			return nil, err
		}
	}
	assignRadials(d)
	stats.ChannelLowerBound = channelLowerBound(d)
	recordMappingMetrics(d, idx, stats)
	return stats, nil
}

// Step-3 telemetry: how many distinct wavelengths each realized ring
// waveguide carries (the allocation the #wl budget is spent on), plus
// the relocation work the opening phase did.
var (
	mWLPerWG = obs.NewHistogram("mapping.wavelengths_per_waveguide", "wavelengths",
		[]float64{1, 2, 4, 8, 16, 32, 64})
	mRelocated = obs.NewCounter("mapping.relocated_channels")
	mExtraWGs  = obs.NewCounter("mapping.extra_waveguides")
)

func recordMappingMetrics(d *router.Design, idx *wlIndex, stats *Stats) {
	if !obs.MetricsEnabled() {
		return
	}
	for _, w := range d.Waveguides {
		mWLPerWG.Observe(float64(idx.distinct(w)))
	}
	mRelocated.Add(int64(stats.Relocated))
	mExtraWGs.Add(int64(stats.ExtraWGs))
}

// assignShortcutChannels gives every shortcut-supported signal its
// wavelength per the Sec. III-C rules and records its route. It returns
// the set of signals now owned by shortcuts.
func assignShortcutChannels(d *router.Design, traffic []noc.Signal) (map[noc.Signal]bool, error) {
	sup, err := shortcut.SupportedSignals(d, traffic)
	if err != nil {
		return nil, err
	}
	owned := map[noc.Signal]bool{}
	for _, s := range sup {
		sc := d.Shortcuts[s.SC]
		wl := 0
		switch {
		case s.ViaCSE:
			// CSE-routed swapped signals: a wavelength distinct from both
			// direct wavelengths of the merged pair.
			wl = 2
		case sc.Partner != -1:
			// The two crossed shortcuts carry different wavelengths so
			// that crossing noise cannot reach a same-wavelength receiver.
			if s.SC > sc.Partner {
				wl = 1
			}
		}
		sc.Channels = append(sc.Channels, router.ShortcutChannel{Sig: s.Sig, WL: wl, ViaCSE: s.ViaCSE})
		d.Routes[s.Sig] = &router.Route{Sig: s.Sig, Kind: router.OnShortcut, SC: s.SC, ViaCSE: s.ViaCSE, WL: wl}
		owned[s.Sig] = true
	}
	return owned, nil
}

// mapRingSignals places every remaining signal onto a ring waveguide in
// its shortest direction, first-fit with wavelength reuse, creating
// waveguides on demand.
func mapRingSignals(d *router.Design, idx *wlIndex, owned map[noc.Signal]bool, opt Options, stats *Stats) error {
	traffic := opt.Traffic
	if traffic == nil {
		traffic = noc.AllToAll(d.N())
	}
	var sigs []noc.Signal
	seen := map[noc.Signal]bool{}
	for _, sig := range traffic {
		if sig.Src == sig.Dst {
			return fmt.Errorf("mapping: traffic contains self-signal %v", sig)
		}
		if seen[sig] {
			return fmt.Errorf("mapping: traffic contains duplicate signal %v", sig)
		}
		seen[sig] = true
		if !owned[sig] {
			sigs = append(sigs, sig)
		}
	}
	// Longest arcs first: they are the hardest to pack alongside others.
	type job struct {
		sig noc.Signal
		dir router.Direction
		len float64
	}
	jobs := make([]job, 0, len(sigs))
	for _, sig := range sigs {
		cw := d.ArcLen(sig.Src, sig.Dst, router.CW)
		ccw := d.ArcLen(sig.Src, sig.Dst, router.CCW)
		dir, l := router.CW, cw
		if ccw < cw {
			dir, l = router.CCW, ccw
		}
		jobs = append(jobs, job{sig, dir, l})
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

	mode := freshOnly
	if opt.PreferSharing {
		mode = shareFirst
	}
	underCap := func() bool {
		return opt.MaxWaveguides == 0 || len(d.Waveguides) < opt.MaxWaveguides
	}
	place := func(sig noc.Signal, dir router.Direction, mode placeMode) bool {
		return idx.placeFirstFit(d, d.Routes, 0, sig, dir, opt.MaxWL, mode)
	}
	for _, jb := range jobs {
		placed := place(jb.sig, jb.dir, mode)
		if !placed && opt.AllowDetour {
			placed = place(jb.sig, 1-jb.dir, mode)
		}
		if !placed && underCap() {
			idx.newWaveguide(d, d.Routes, jb.sig, jb.dir)
			placed = true
		}
		if !placed && mode == freshOnly {
			// The die is full: fall back to wavelength sharing.
			placed = place(jb.sig, jb.dir, freshThenShare)
		}
		if !placed {
			return fmt.Errorf("mapping: signal %v does not fit: #wl=%d with at most %d waveguides is infeasible",
				jb.sig, opt.MaxWL, opt.MaxWaveguides)
		}
		stats.RingSignals++
	}
	return nil
}

// firstFit returns the first admissible (waveguide, wavelength) slot for
// sig in direction dir, or nil when there is none. Only waveguides with
// ID >= minWG are probed: the primary pass uses the whole design, the
// fault-tolerance spare pass its protection waveguides only, which keeps
// the two layers waveguide-disjoint by construction. Fresh (unused)
// wavelength slots avoid the drop-leakage noise that wavelength-reuse
// chains leave at the next same-wavelength receiver (Sec. II-B); mode
// says whether fresh or shared slots are admitted, and in which pass.
// Within a pass the probe order is waveguide ID, then ascending
// wavelength. The probe allocates nothing.
func (x *wlIndex) firstFit(d *router.Design, minWG int, sig noc.Signal, dir router.Direction,
	maxWL int, mode placeMode) (*router.Waveguide, int) {
	for _, pass := range modePasses[mode] {
		for _, w := range d.Waveguides[minWG:] {
			if w.Dir != dir {
				continue
			}
			if w.Opening >= 0 && d.PassesNode(sig.Src, sig.Dst, w.Opening, dir) {
				continue
			}
			buckets := x.buckets(w)
			for wl := 0; wl < maxWL; wl++ {
				var on []router.Channel
				if wl < len(buckets) {
					on = buckets[wl]
				}
				if len(on) > 0 && !pass.shared || len(on) == 0 && !pass.fresh {
					continue
				}
				if !collidesAny(d, dir, router.Channel{Sig: sig, WL: wl}, on) {
					return w, wl
				}
			}
		}
	}
	return nil, 0
}

// collidesAny reports whether cand collides with any of the channels.
func collidesAny(d *router.Design, dir router.Direction, cand router.Channel, chans []router.Channel) bool {
	for _, c := range chans {
		if d.ChannelsCollide(dir, cand, c) {
			return true
		}
	}
	return false
}

// placeFirstFit places sig on the firstFit slot, recording the route in
// routes. It returns false when no admissible slot exists.
func (x *wlIndex) placeFirstFit(d *router.Design, routes map[noc.Signal]*router.Route, minWG int,
	sig noc.Signal, dir router.Direction, maxWL int, mode placeMode) bool {
	w, wl := x.firstFit(d, minWG, sig, dir, maxWL, mode)
	if w == nil {
		return false
	}
	x.place(routes, w, sig, wl)
	return true
}

// passerCounts returns, per node ID, how many channels of w traverse
// that node's sender/receiver gap.
func passerCounts(d *router.Design, w *router.Waveguide) []int {
	counts := make([]int, d.N())
	for _, c := range w.Channels {
		d.ForEachGapNode(c.Sig.Src, c.Sig.Dst, w.Dir, func(k int) { counts[k]++ })
	}
	return counts
}

// openWaveguidesIn chooses an opening per ring waveguide and relocates
// the channels that pass it (Sec. III-C, second half), restricted to one
// routing layer: waveguides with ID >= start are opened, and relocated
// channels stay in that layer (firstFit with the same floor, routes
// recorded in the given table). Openings already chosen on earlier
// waveguides seed the alignment preference.
func openWaveguidesIn(d *router.Design, idx *wlIndex, routes map[noc.Signal]*router.Route, start int,
	opt Options, stats *Stats) error {
	openingUsed := make([]bool, d.N())
	for _, w := range d.Waveguides[:start] {
		if w.Opening >= 0 {
			openingUsed[w.Opening] = true
		}
	}
	maxPasses := 4 * (len(d.Waveguides) + 1)
	for i := start; i < len(d.Waveguides); i++ {
		if i-start > maxPasses {
			return fmt.Errorf("mapping: opening relocation did not converge after %d waveguides", i-start)
		}
		w := d.Waveguides[i]
		counts := passerCounts(d, w)
		// Candidate: least-passed node; prefer nodes already used as
		// openings elsewhere, then smallest ID.
		best, bestCount, bestAligned := -1, int(^uint(0)>>1), false
		for id, cnt := range counts {
			aligned := opt.AlignOpenings && openingUsed[id]
			better := false
			switch {
			case cnt < bestCount:
				better = true
			case cnt == bestCount && aligned && !bestAligned:
				better = true
			}
			if better {
				best, bestCount, bestAligned = id, cnt, aligned
			}
		}
		// Relocate every channel passing the chosen opening.
		var keep []router.Channel
		var move []router.Channel
		for _, c := range w.Channels {
			if d.PassesNode(c.Sig.Src, c.Sig.Dst, best, w.Dir) {
				move = append(move, c)
			} else {
				keep = append(keep, c)
			}
		}
		w.Channels = keep
		idx.resync(w)
		w.Opening = best
		openingUsed[best] = true
		mode := freshThenShare
		if opt.PreferSharing {
			mode = shareFirst
		}
		for _, c := range move {
			stats.Relocated++
			if idx.placeFirstFit(d, routes, start, c.Sig, w.Dir, d.MaxWL, mode) {
				continue
			}
			idx.newWaveguide(d, routes, c.Sig, w.Dir)
			stats.ExtraWGs++
		}
	}
	return nil
}

// assignRadials organizes waveguides into radial pairs: CW and CCW
// waveguides are interleaved so that pair k consists of radial positions
// 2k (inner) and 2k+1 (outer), matching the Sec. III-D corridor layout.
func assignRadials(d *router.Design) {
	var cw, ccw []*router.Waveguide
	for _, w := range d.Waveguides {
		if w.Dir == router.CW {
			cw = append(cw, w)
		} else {
			ccw = append(ccw, w)
		}
	}
	radial := 0
	for i := 0; i < len(cw) || i < len(ccw); i++ {
		if i < len(cw) {
			cw[i].Radial = radial
			radial++
		}
		if i < len(ccw) {
			ccw[i].Radial = radial
			radial++
		}
	}
}
