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
	"cmp"
	"fmt"
	"math"
	"slices"

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

// wlIndex keeps every ring waveguide's channels as router.Slots rows,
// slot w.ID*stride+λ per (waveguide, wavelength) pair: a first-fit
// probe of slot (w, λ) is one set test, and "λ is in use on w" is a
// non-empty slot. used counts each waveguide's non-empty slots, so a
// probe for a fresh slot skips a full waveguide. Every change Step 3
// makes to a channel list goes through add, newWaveguide or resync, and
// the spare repack resizes the index to the renumbered waveguides and
// refills them, so the slots never go stale.
//
// The index also owns the route slab: Step 3 takes the router.Route
// value of every route it records from one backing array.
type wlIndex struct {
	stride int // slots per waveguide: #wl
	occ    router.Slots
	used   []int // per waveguide, its slots that hold a channel
	slab   []router.Route
}

// newWLIndex indexes the waveguides a design already has, with d.MaxWL
// slots per waveguide and room for chans channels and routes route
// values.
func newWLIndex(d *router.Design, chans, routes int) *wlIndex {
	stride := max(d.MaxWL, 1)
	// First fit opens a waveguide only when every slot of the earlier
	// ones in its direction is taken, so chans channels need about chans
	// slots plus one partly filled waveguide per direction and layer.
	// Relocation may open a few more; the index grows then.
	x := &wlIndex{stride: stride, occ: router.NewSlots(d, chans+4*stride),
		used: make([]int, 0, chans/stride+4), slab: make([]router.Route, 0, routes)}
	x.size(len(d.Waveguides))
	for _, w := range d.Waveguides {
		x.resync(w)
	}
	return x
}

// size cuts the index to n waveguides or appends empty ones up to n.
func (x *wlIndex) size(n int) {
	x.occ.Resize(n * x.stride)
	x.used = append(x.used[:min(n, len(x.used))], make([]int, max(n-len(x.used), 0))...)
}

// add appends a channel to w and to its slot.
func (x *wlIndex) add(w *router.Waveguide, c router.Channel) {
	w.Channels = append(w.Channels, c)
	slot := w.ID*x.stride + c.WL
	if x.occ.Free(slot) {
		x.used[w.ID]++
	}
	x.occ.Add(slot, w.Dir, c.Sig)
}

// resync rebuilds w's slots and count from w.Channels after it changed.
func (x *wlIndex) resync(w *router.Waveguide) {
	x.occ.Clear(w.ID*x.stride, (w.ID+1)*x.stride)
	x.used[w.ID] = 0
	chans := w.Channels
	w.Channels = w.Channels[:0]
	for _, c := range chans {
		x.add(w, c)
	}
}

// distinct returns how many wavelengths w carries.
func (x *wlIndex) distinct(w *router.Waveguide) int { return x.used[w.ID] }

// take returns a pointer to a copy of r in the slab. Should the slab
// outgrow its size, earlier pointers still point at their own values.
func (x *wlIndex) take(r router.Route) *router.Route {
	x.slab = append(x.slab, r)
	return &x.slab[len(x.slab)-1]
}

// newWaveguide appends a fresh waveguide of direction dir to the design,
// places sig on it at λ0 and returns it.
func (x *wlIndex) newWaveguide(d *router.Design, sig noc.Signal, dir router.Direction) *router.Waveguide {
	w := &router.Waveguide{ID: len(d.Waveguides), Dir: dir, Opening: -1,
		Channels: make([]router.Channel, 0, x.stride)}
	d.Waveguides = append(d.Waveguides, w)
	x.size(len(d.Waveguides))
	x.add(w, router.Channel{Sig: sig})
	return w
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
		// load[e] counts arcs traversing the tour edge e -> e+1. A CCW
		// arc covers the edges of the CW walk from its Dst to its Src.
		load := make([]int, n)
		for _, w := range d.Waveguides {
			if w.Dir != dir {
				continue
			}
			for _, c := range w.Channels {
				e, to := d.TourPos(c.Sig.Src), d.TourPos(c.Sig.Dst)
				if dir == router.CCW {
					e, to = to, e
				}
				for ; e != to; e = (e + 1) % n {
					load[e]++
				}
			}
		}
		best = max(best, slices.Max(load))
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
	n := d.N()
	traffic := opt.Traffic
	if traffic == nil {
		traffic = noc.AllToAll(n)
	} else if err := checkTraffic(traffic, n); err != nil {
		return nil, err
	}
	d.MaxWL = opt.MaxWL
	if len(d.Routes) == 0 {
		d.Routes = make(map[noc.Signal]*router.Route, len(traffic))
	}
	sup, err := shortcut.SupportedSignals(d, opt.Traffic)
	if err != nil {
		return nil, err
	}
	// Every signal gets one route, and with fault tolerance one spare;
	// relocation moves a route instead of making a new one, so the
	// route slab is exact. Shortcut signals take no ring channel.
	routes := len(traffic) * (1 + opt.FaultTolerance)
	idx := newWLIndex(d, routes-len(sup), routes)
	stats := &Stats{ShortcutSignals: len(sup)}
	owned := assignShortcutChannels(d, idx, sup)

	if err := mapRingSignals(d, idx, traffic, owned, opt, stats); err != nil {
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

// checkTraffic rejects out-of-range, self and duplicate signals.
func checkTraffic(traffic []noc.Signal, n int) error {
	seen := make([]bool, n*n)
	for _, sig := range traffic {
		if sig.Src < 0 || sig.Src >= n || sig.Dst < 0 || sig.Dst >= n {
			return fmt.Errorf("mapping: traffic signal %v is outside the %d nodes", sig, n)
		}
		if sig.Src == sig.Dst {
			return fmt.Errorf("mapping: traffic contains self-signal %v", sig)
		}
		if seen[sig.Src*n+sig.Dst] {
			return fmt.Errorf("mapping: traffic contains duplicate signal %v", sig)
		}
		seen[sig.Src*n+sig.Dst] = true
	}
	return nil
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
// the signals now owned by shortcuts as an N×N table indexed Src*N+Dst.
func assignShortcutChannels(d *router.Design, idx *wlIndex, sup []shortcut.Supported) []bool {
	n := d.N()
	owned := make([]bool, n*n)
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
		d.Routes[s.Sig] = idx.take(router.Route{Sig: s.Sig, Kind: router.OnShortcut, SC: s.SC, ViaCSE: s.ViaCSE, WL: wl})
		owned[s.Sig.Src*n+s.Sig.Dst] = true
	}
	return owned
}

// ringJob is one signal to place on the ring.
type ringJob struct {
	sig noc.Signal
	dir router.Direction
	len float64
}

// ringJobs returns one job per signal not marked in skip (an N×N table
// indexed Src*N+Dst, or nil), in the signal's shortest travel direction
// (CW on a tie), longest arcs first: they are the hardest to pack
// alongside others. Ties go in (src, dst) order, so over distinct
// signals the order is total and does not depend on the input order.
func ringJobs(d *router.Design, sigs []noc.Signal, skip []bool) []ringJob {
	n := d.N()
	jobs := make([]ringJob, 0, len(sigs))
	for _, sig := range sigs {
		if skip != nil && skip[sig.Src*n+sig.Dst] {
			continue
		}
		cw := d.ArcLen(sig.Src, sig.Dst, router.CW)
		ccw := d.ArcLen(sig.Src, sig.Dst, router.CCW)
		dir, l := router.CW, cw
		if ccw < cw {
			dir, l = router.CCW, ccw
		}
		jobs = append(jobs, ringJob{sig, dir, l})
	}
	slices.SortFunc(jobs, func(a, b ringJob) int {
		if a.len != b.len {
			return cmp.Compare(b.len, a.len)
		}
		return cmp.Or(cmp.Compare(a.sig.Src, b.sig.Src), cmp.Compare(a.sig.Dst, b.sig.Dst))
	})
	return jobs
}

// mapRingSignals places every signal of the traffic that no shortcut
// owns onto a ring waveguide in its shortest direction, first-fit with
// wavelength reuse, creating waveguides on demand.
func mapRingSignals(d *router.Design, idx *wlIndex, traffic []noc.Signal, owned []bool, opt Options, stats *Stats) error {
	mode := freshOnly
	if opt.PreferSharing {
		mode = shareFirst
	}
	for _, jb := range ringJobs(d, traffic, owned) {
		w, wl := idx.placeFirstFit(d, 0, jb.sig, jb.dir, opt.MaxWL, mode)
		if w == nil && opt.AllowDetour {
			w, wl = idx.placeFirstFit(d, 0, jb.sig, 1-jb.dir, opt.MaxWL, mode)
		}
		if w == nil && (opt.MaxWaveguides == 0 || len(d.Waveguides) < opt.MaxWaveguides) {
			w, wl = idx.newWaveguide(d, jb.sig, jb.dir), 0
		}
		if w == nil && mode == freshOnly {
			// The die is full: fall back to wavelength sharing.
			w, wl = idx.placeFirstFit(d, 0, jb.sig, jb.dir, opt.MaxWL, freshThenShare)
		}
		if w == nil {
			return fmt.Errorf("mapping: signal %v does not fit: #wl=%d with at most %d waveguides is infeasible",
				jb.sig, opt.MaxWL, opt.MaxWaveguides)
		}
		d.Routes[jb.sig] = idx.take(router.Route{Sig: jb.sig, Kind: router.OnRing, WG: w.ID, WL: wl})
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
			if w.Opening >= 0 && d.PassesNode(sig.Src, sig.Dst, w.Opening, dir) ||
				!pass.shared && maxWL <= x.stride && x.used[w.ID] == x.stride {
				continue
			}
			for wl, slot := 0, w.ID*x.stride; wl < maxWL; wl, slot = wl+1, slot+1 {
				if wl >= x.stride || x.occ.Free(slot) {
					if pass.fresh {
						return w, wl
					}
				} else if pass.shared && !x.occ.Collides(slot, dir, sig) {
					return w, wl
				}
			}
		}
	}
	return nil, 0
}

// placeFirstFit places sig on the firstFit slot and returns it; the
// waveguide is nil when no admissible slot exists.
func (x *wlIndex) placeFirstFit(d *router.Design, minWG int, sig noc.Signal, dir router.Direction,
	maxWL int, mode placeMode) (*router.Waveguide, int) {
	w, wl := x.firstFit(d, minWG, sig, dir, maxWL, mode)
	if w != nil {
		x.add(w, router.Channel{Sig: sig, WL: wl})
	}
	return w, wl
}

// passerCounts returns, per node ID, how many channels of w traverse
// that node's sender/receiver gap, counting into buf when it has room.
func passerCounts(d *router.Design, w *router.Waveguide, buf []int) []int {
	if cap(buf) < d.N() {
		buf = make([]int, d.N())
	}
	counts := buf[:d.N()]
	clear(counts)
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
	mode := freshThenShare
	if opt.PreferSharing {
		mode = shareFirst
	}
	var counts []int
	var move []router.Channel
	maxPasses := 4 * (len(d.Waveguides) + 1)
	for i := start; i < len(d.Waveguides); i++ {
		if i-start > maxPasses {
			return fmt.Errorf("mapping: opening relocation did not converge after %d waveguides", i-start)
		}
		w := d.Waveguides[i]
		counts = passerCounts(d, w, counts)
		// Candidate: least-passed node; prefer nodes already used as
		// openings elsewhere, then smallest ID.
		best, bestCount, bestAligned := -1, math.MaxInt, false
		for id, cnt := range counts {
			aligned := opt.AlignOpenings && openingUsed[id]
			if cnt < bestCount || cnt == bestCount && aligned && !bestAligned {
				best, bestCount, bestAligned = id, cnt, aligned
			}
		}
		// Relocate every channel passing the chosen opening. The kept
		// channels are filtered in place: relocation never lands on w,
		// whose opening every moved channel passes.
		keep := w.Channels[:0]
		move = move[:0]
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
		for _, c := range move {
			stats.Relocated++
			to, wl := idx.placeFirstFit(d, start, c.Sig, w.Dir, d.MaxWL, mode)
			if to == nil {
				to, wl = idx.newWaveguide(d, c.Sig, w.Dir), 0
				stats.ExtraWGs++
			}
			r := routes[c.Sig]
			r.WG, r.WL = to.ID, wl
		}
	}
	return nil
}

// assignRadials organizes waveguides into radial pairs: CW and CCW
// waveguides are interleaved so that pair k consists of radial positions
// 2k (inner) and 2k+1 (outer), matching the Sec. III-D corridor layout.
func assignRadials(d *router.Design) {
	var byDir [2][]*router.Waveguide // CW, CCW
	for _, w := range d.Waveguides {
		byDir[w.Dir] = append(byDir[w.Dir], w)
	}
	radial := 0
	for i := 0; i < len(byDir[router.CW]) || i < len(byDir[router.CCW]); i++ {
		for _, ws := range byDir {
			if i < len(ws) {
				ws[i].Radial = radial
				radial++
			}
		}
	}
}
