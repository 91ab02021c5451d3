// Package shortcut implements Step 2 of the XRing flow (Sec. III-B):
// shortcut construction. Nodes that are physically close but far apart
// along the ring in both directions receive a dedicated waveguide pair,
// and shortcuts that would cross each other are merged with crossing
// switching elements (CSEs, Fig. 7) instead of being rejected.
//
// The rules, verbatim from the paper:
//
//   - a shortcut between two nodes is feasible when their senders and
//     receivers can be connected by additional waveguides without
//     crossing any existing ring waveguide;
//   - the gain of mapping the signal (i,j) onto its shortcut is
//     g(i,j) = min(len(cw path), len(ccw path)) - len(shortcut);
//     non-positive gains invalidate the shortcut;
//   - shortcuts are selected greedily by decreasing gain;
//   - a node participates in at most one shortcut;
//   - a shortcut crosses at most one other shortcut; crossing pairs are
//     merged with CSEs, which additionally route the "swapped" node
//     pairs along the two physical shortcuts.
package shortcut

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"xring/internal/geom"
	"xring/internal/noc"
	"xring/internal/obs"
	"xring/internal/router"
)

// Step-2 telemetry: candidate gains offered vs accepted under the
// one-per-node and one-crossing rules, CSE merges, and the distribution
// of accepted gains (mm of ring path saved per shortcut).
var (
	mCandidates = obs.NewCounter("shortcut.candidates")
	mAccepted   = obs.NewCounter("shortcut.accepted")
	mRejected   = obs.NewCounter("shortcut.rejected")
	mCSEMerged  = obs.NewCounter("shortcut.cse_merged")
	mGainMM     = obs.NewHistogram("shortcut.gain_mm", "mm",
		[]float64{0.5, 1, 2, 4, 8, 16, 32, 64})
)

// Candidate is a feasible shortcut option between two nodes.
type Candidate struct {
	A, B int
	// Paths holds the feasible physical routes (up to two L-options).
	Paths []geom.Polyline
	// Gain is g(A,B) per the paper's gain function.
	Gain float64
}

// Options tunes Step 2.
type Options struct {
	// Disable turns Step 2 off entirely (ablation: no shortcuts).
	Disable bool
	// NoCSE forbids crossing shortcuts (ablation: skip CSE merging).
	NoCSE bool
	// Traffic restricts the signals the router must support; nil means
	// all-to-all. Shortcuts are only built between node pairs that
	// actually communicate.
	Traffic []noc.Signal
}

// trafficSet is a traffic lookup set; the nil set stands for the
// all-to-all pattern and is built without a map.
type trafficSet map[noc.Signal]bool

// newTrafficSet normalizes a traffic slice into a lookup set; nil
// traffic yields the nil (all-to-all) set.
func newTrafficSet(traffic []noc.Signal) trafficSet {
	if traffic == nil {
		return nil
	}
	set := make(trafficSet, len(traffic))
	for _, s := range traffic {
		set[s] = true
	}
	return set
}

// has reports whether the traffic contains s. Every signal passed in
// joins two of the design's nodes, so all-to-all needs only Src != Dst.
func (t trafficSet) has(s noc.Signal) bool {
	if t == nil {
		return s.Src != s.Dst
	}
	return t[s]
}

// ringPaths returns the physical polyline of every ring edge.
func ringPaths(d *router.Design) []geom.Polyline {
	out := make([]geom.Polyline, d.N())
	for i := range out {
		out[i] = d.EdgePath(i)
	}
	return out
}

// feasiblePaths returns the L-shaped routes between nodes a and b that
// cross no ring edge (ring holds the ring-edge polylines). Routes
// through a third node's position are rejected by the crossing test,
// because the ring waveguide passes through every node. A straight pair
// has one route: both leg orders give the same polyline.
func feasiblePaths(d *router.Design, ring []geom.Polyline, a, b int) []geom.Polyline {
	pa := d.Net.Nodes[a].Pos
	pb := d.Net.Nodes[b].Pos
	vh, hv := geom.LPath(pa, pb, geom.VH), geom.LPath(pa, pb, geom.HV)
	routes := []geom.Polyline{vh, hv}
	if slices.Equal(vh, hv) {
		routes = routes[:1]
	}
	var out []geom.Polyline
	for _, p := range routes {
		ok := true
		for _, re := range ring {
			if geom.PathsCross(p, re) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, p)
		}
	}
	return out
}

// ringGain returns min(cw, ccw) ring path length minus the shortcut
// length for the pair (a, b).
func ringGain(d *router.Design, a, b int) float64 {
	cw := d.ArcLen(a, b, router.CW)
	ccw := d.ArcLen(a, b, router.CCW)
	sc := geom.Manhattan(d.Net.Nodes[a].Pos, d.Net.Nodes[b].Pos)
	return math.Min(cw, ccw) - sc
}

// Collect gathers all feasible shortcut candidates with positive gain,
// sorted by decreasing gain (ties broken by node IDs for determinism).
// Only node pairs present in the traffic (either direction) are
// considered; a nil traffic means all-to-all.
func Collect(d *router.Design, traffic []noc.Signal) []Candidate {
	n := d.N()
	want := newTrafficSet(traffic)
	ring := ringPaths(d)
	var out []Candidate
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !want.has(noc.Signal{Src: a, Dst: b}) && !want.has(noc.Signal{Src: b, Dst: a}) {
				continue
			}
			gain := ringGain(d, a, b)
			if gain <= 1e-9 {
				continue
			}
			paths := feasiblePaths(d, ring, a, b)
			if len(paths) == 0 {
				continue
			}
			out = append(out, Candidate{A: a, B: b, Paths: paths, Gain: gain})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Gain != out[j].Gain {
			return out[i].Gain > out[j].Gain
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Construct runs Step 2 on a design: it selects shortcuts greedily by
// gain under the one-per-node and one-crossing rules, merges crossing
// pairs with CSEs, and attaches the result to d.Shortcuts.
func Construct(d *router.Design, opt Options) error {
	if opt.Disable {
		return nil
	}
	cands := Collect(d, opt.Traffic)
	mCandidates.Add(int64(len(cands)))
	used := map[int]bool{} // node -> has a shortcut
	var selected []*router.Shortcut

	for _, c := range cands {
		if used[c.A] || used[c.B] {
			mRejected.Inc()
			continue
		}
		// Choose the orientation that crosses the fewest selected
		// shortcuts; zero preferred, exactly one (with a partner-free
		// shortcut) acceptable.
		bestPath := geom.Polyline(nil)
		bestPartner := -1
		bestCrossings := math.MaxInt
		for _, p := range c.Paths {
			partner := -1
			crossCount := 0
			ok := true
			for si, s := range selected {
				x := geom.CrossingsBetween(p, s.PathAB)
				if x == 0 {
					continue
				}
				crossCount += x
				if x > 1 || partner != -1 || s.Partner != -1 || opt.NoCSE {
					ok = false
					break
				}
				partner = si
			}
			if !ok {
				continue
			}
			if crossCount < bestCrossings {
				bestCrossings = crossCount
				bestPath = p
				bestPartner = partner
			}
		}
		if bestPath == nil {
			mRejected.Inc()
			continue
		}
		sc := &router.Shortcut{A: c.A, B: c.B, PathAB: bestPath, Partner: bestPartner}
		if bestPartner != -1 {
			selected[bestPartner].Partner = len(selected)
			mCSEMerged.Inc()
		}
		selected = append(selected, sc)
		used[c.A], used[c.B] = true, true
		mAccepted.Inc()
		mGainMM.Observe(c.Gain)
	}
	d.Shortcuts = selected
	return nil
}

// Supported describes one signal that Step 3 should map onto a shortcut
// rather than the ring, together with the physical metrics the loss
// engine needs.
type Supported struct {
	Sig    noc.Signal
	SC     int  // index of the shortcut the signal ENTERS
	ViaCSE bool // true when the signal exits on the partner shortcut
	// Length is the travelled waveguide length in mm.
	Length float64
	// Bends is the 90-degree bend count along the route.
	Bends int
	// PassesCrossing reports whether the route passes straight through
	// the CSE crossing (direct signals on merged shortcuts do).
	PassesCrossing bool
}

// SupportedSignals enumerates the signals carried by the design's
// shortcuts: the direct pair per shortcut, plus the swapped pairs of
// each CSE-merged crossing pair when riding the CSE still beats the
// ring after the extra CSE drop loss. traffic restricts the emitted
// signals (nil = all-to-all).
func SupportedSignals(d *router.Design, traffic []noc.Signal) ([]Supported, error) {
	want := newTrafficSet(traffic)
	var out []Supported
	for si, s := range d.Shortcuts {
		length := s.Length()
		passes := s.Partner != -1 // direct traffic passes the CSE crossing
		bends := s.PathAB.Bends()
		for _, sig := range [2]noc.Signal{{Src: s.A, Dst: s.B}, {Src: s.B, Dst: s.A}} {
			if want.has(sig) {
				out = append(out, Supported{Sig: sig, SC: si, Length: length, Bends: bends, PassesCrossing: passes})
			}
		}
		if s.Partner > si { // handle each merged pair once
			p := d.Shortcuts[s.Partner]
			x, err := crossingPoint(s.PathAB, p.PathAB)
			if err != nil {
				return nil, fmt.Errorf("shortcut: partners %d/%d: %w", si, s.Partner, err)
			}
			// Two possible endpoint pairings; pick the one with larger
			// total CSE gain (Sec. III-B merges the swapped pairs).
			type pairing struct {
				sigs [2]noc.Signal
				lens [2]float64
				gain float64
			}
			mk := func(a1, d1, a2, d2 int) pairing {
				l1 := distAlong(s.PathAB, d.Net.Nodes[a1].Pos, x) + distAlong(p.PathAB, x, d.Net.Nodes[d1].Pos)
				l2 := distAlong(s.PathAB, d.Net.Nodes[a2].Pos, x) + distAlong(p.PathAB, x, d.Net.Nodes[d2].Pos)
				g1 := math.Min(d.ArcLen(a1, d1, router.CW), d.ArcLen(a1, d1, router.CCW)) - l1
				g2 := math.Min(d.ArcLen(a2, d2, router.CW), d.ArcLen(a2, d2, router.CCW)) - l2
				return pairing{
					sigs: [2]noc.Signal{{Src: a1, Dst: d1}, {Src: a2, Dst: d2}},
					lens: [2]float64{l1, l2},
					gain: g1 + g2,
				}
			}
			p1 := mk(s.A, p.B, s.B, p.A)
			p2 := mk(s.A, p.A, s.B, p.B)
			bestP := p1
			if p2.gain > p1.gain {
				bestP = p2
			}
			// A CSE route couples into one extra on-resonance MRR (the
			// CSE itself, Fig. 7(b)), so a pure length gain is not
			// enough: the saved propagation must also pay for the extra
			// drop loss, or the "shortcut" would raise the signal's
			// insertion loss.
			extraDropLen := d.Par.DropDB / d.Par.PropagationDBPerMM
			for k := 0; k < 2; k++ {
				sig := bestP.sigs[k]
				gain := math.Min(d.ArcLen(sig.Src, sig.Dst, router.CW),
					d.ArcLen(sig.Src, sig.Dst, router.CCW)) - bestP.lens[k]
				if gain <= extraDropLen {
					continue // the ring route is at least as good
				}
				// Forward and reverse directions of the swapped pair.
				if want.has(sig) {
					out = append(out, Supported{Sig: sig, SC: si, ViaCSE: true, Length: bestP.lens[k],
						Bends: s.PathAB.Bends() + p.PathAB.Bends() + 1})
				}
				rev := noc.Signal{Src: sig.Dst, Dst: sig.Src}
				if want.has(rev) {
					out = append(out, Supported{Sig: rev, SC: s.Partner, ViaCSE: true,
						Length: bestP.lens[k], Bends: s.PathAB.Bends() + p.PathAB.Bends() + 1})
				}
			}
		}
	}
	return out, nil
}

// crossingPoint finds the unique crossing point between two polylines.
func crossingPoint(a, b geom.Polyline) (geom.Point, error) {
	pt, ok := geom.PolylineCrossingPoint(a, b)
	if !ok {
		return geom.Point{}, fmt.Errorf("expected exactly one crossing between %v and %v", a, b)
	}
	return pt, nil
}

// distAlong measures the walk distance between two on-path points.
func distAlong(p geom.Polyline, from, to geom.Point) float64 {
	return geom.DistAlong(p, from, to)
}
