// Package router defines the synthesized-design representation shared by
// every stage of the flow: the ring tour and its geometry, ring waveguide
// replicas with their channels (signal-to-wavelength assignments),
// shortcuts, per-signal routes, and the structural invariants that a
// valid wavelength-routed ring router must satisfy.
//
// Terminology follows the paper:
//
//   - the *tour* is the cyclic node order found in Step 1 (Sec. III-A);
//   - a *ring waveguide* is one replica of the tour, carrying signals in
//     one direction (clockwise = tour order, counter-clockwise = reverse);
//   - a *channel* is one signal mapped onto a ring waveguide with a
//     wavelength; its *arc* is the tour span from source to destination
//     in the waveguide's direction;
//   - an *opening* (Sec. III-C, Fig. 8) is the removed segment between a
//     node's receiver and sender, through which PDN waveguides enter;
//   - a *shortcut* (Sec. III-B) is a dedicated waveguide pair between two
//     nodes, optionally merged with a crossing shortcut by CSEs.
package router

import (
	"fmt"

	"xring/internal/geom"
	"xring/internal/noc"
	"xring/internal/phys"
)

// Direction is the travel direction of a ring waveguide.
type Direction int

const (
	// CW carries signals in tour order ("clockwise").
	CW Direction = iota
	// CCW carries signals against tour order.
	CCW
)

func (d Direction) String() string {
	if d == CW {
		return "cw"
	}
	return "ccw"
}

// Channel is one signal assigned to a ring waveguide with a wavelength.
type Channel struct {
	Sig noc.Signal
	WL  int
}

// Crossing is a waveguide crossing on a ring waveguide at a fixed arc
// coordinate (used by baseline designs whose PDN crosses the rings; the
// XRing flow produces none). Source describes what crosses here.
type Crossing struct {
	// Pos is the arc coordinate (mm along the tour, in CW orientation).
	Pos float64
	// AtNode is the node whose sender the crossing serves, for reports.
	AtNode int
	// FedWG is the waveguide whose sender the crossing PDN feed serves
	// (the crosstalk engine sizes injected laser leakage from that
	// feed); -1 when unknown.
	FedWG int
	// Source labels the origin, e.g. "pdn".
	Source string
}

// Waveguide is one ring waveguide replica.
type Waveguide struct {
	ID  int
	Dir Direction
	// Radial is the replica's radial position (0 = innermost). Waveguides
	// are laid out in pairs; Radial/2 is the pair index.
	Radial int
	// Opening is the node at which this waveguide is opened (Sec. III-C),
	// or -1 if it has no opening.
	Opening int
	// Channels are the signals mapped onto this waveguide.
	Channels []Channel
	// Crossings lists waveguide crossings on this ring (baselines only).
	Crossings []Crossing
}

// ShortcutChannel is one signal assigned to a shortcut.
type ShortcutChannel struct {
	Sig noc.Signal
	WL  int
	// ViaCSE marks signals that enter on one shortcut and leave on its
	// crossing partner through a crossing switching element (Fig. 7(b)).
	ViaCSE bool
}

// Shortcut is a dedicated waveguide pair between nodes A and B
// (Sec. III-B). PathAB is the physical route; B→A traffic uses the
// mirrored route alongside it.
type Shortcut struct {
	A, B   int
	PathAB geom.Polyline
	// Partner is the index of the shortcut this one crosses (merged with
	// CSEs), or -1. Crossing is mutual: Shortcuts[Partner].Partner points
	// back. A shortcut crosses at most one other (paper constraint).
	Partner int
	// Channels lists signals riding this shortcut. CSE channels appear
	// on the shortcut where they *enter*.
	Channels []ShortcutChannel
}

// Length returns the shortcut's waveguide length.
func (s *Shortcut) Length() float64 { return s.PathAB.Length() }

// RouteKind says which medium carries a signal.
type RouteKind int

const (
	// OnRing routes the signal along a ring waveguide.
	OnRing RouteKind = iota
	// OnShortcut routes the signal along a shortcut (direct or via CSE).
	OnShortcut
)

// Route records where a signal ended up after Step 3.
type Route struct {
	Sig    noc.Signal
	Kind   RouteKind
	WG     int // waveguide index when Kind == OnRing
	SC     int // shortcut index when Kind == OnShortcut
	ViaCSE bool
	WL     int
}

// Design is the complete synthesized router.
type Design struct {
	Net *noc.Network
	Par phys.Params

	// Tour is the cyclic node order from Step 1; Tour[i] is a node ID.
	Tour []int
	// EdgeOrders[i] is the L-routing choice for tour edge i
	// (Tour[i] -> Tour[(i+1)%N]).
	EdgeOrders []geom.LOrder

	Waveguides []*Waveguide
	Shortcuts  []*Shortcut

	// Routes maps every signal to its realized route (filled in Step 3).
	Routes map[noc.Signal]*Route

	// SpareRoutes maps signals to cold-standby protection routes added
	// by fault-tolerant mapping (Options.FaultTolerance). A spare lives
	// on a dedicated protection waveguide that carries no primary
	// channel, so any single MRR failure (or ring-segment cut) kills at
	// most one of {primary, spare} and the signal stays routable. Spares
	// are dark in nominal operation: analyses iterate Routes only, while
	// spare MRRs still contribute their passive through loss via the
	// waveguide channel lists. Nil or empty for nominal designs.
	SpareRoutes map[noc.Signal]*Route

	// MaxWL is the per-waveguide wavelength budget #wl used by Step 3.
	MaxWL int

	// cached geometry
	tourIndex []int     // node ID -> position in Tour
	cum       []float64 // cum[i] = arc coordinate of Tour[i] (CW)
	perimeter float64
}

// NewDesign creates a design skeleton for a network and tour.
// EdgeOrders defaults to VH for every edge if nil.
func NewDesign(net *noc.Network, par phys.Params, tour []int, orders []geom.LOrder) (*Design, error) {
	n := net.N()
	if len(tour) != n {
		return nil, fmt.Errorf("router: tour has %d entries for %d nodes", len(tour), n)
	}
	if orders == nil {
		orders = make([]geom.LOrder, n)
	}
	if len(orders) != n {
		return nil, fmt.Errorf("router: %d edge orders for %d edges", len(orders), n)
	}
	d := &Design{
		Net:        net,
		Par:        par,
		Tour:       append([]int(nil), tour...),
		EdgeOrders: append([]geom.LOrder(nil), orders...),
		Routes:     map[noc.Signal]*Route{},
	}
	if err := d.RefreshGeometry(); err != nil {
		return nil, err
	}
	return d, nil
}

// RefreshGeometry (re)builds the cached tour index and geometry (arc
// coordinates and perimeter) from the current node positions. The
// incremental evaluator calls it after perturbing a node position: the
// tour and all routed structure stay fixed, only the derived coordinates
// move.
func (d *Design) RefreshGeometry() error {
	n := d.Net.N()
	d.tourIndex = make([]int, n)
	for i := range d.tourIndex {
		d.tourIndex[i] = -1
	}
	for i, v := range d.Tour {
		if v < 0 || v >= n {
			return fmt.Errorf("router: tour entry %d out of range", v)
		}
		if d.tourIndex[v] != -1 {
			return fmt.Errorf("router: node %d appears twice in tour", v)
		}
		d.tourIndex[v] = i
	}
	d.cum = make([]float64, n+1)
	for i := 0; i < n; i++ {
		a := d.Net.Nodes[d.Tour[i]].Pos
		b := d.Net.Nodes[d.Tour[(i+1)%n]].Pos
		d.cum[i+1] = d.cum[i] + geom.Manhattan(a, b)
	}
	d.perimeter = d.cum[n]
	return nil
}

// N returns the node count.
func (d *Design) N() int { return d.Net.N() }

// Perimeter returns the total tour length in mm.
func (d *Design) Perimeter() float64 { return d.perimeter }

// TourPos returns the position of node id within the tour.
func (d *Design) TourPos(id int) int { return d.tourIndex[id] }

// NodeCoord returns the arc coordinate (mm, CW orientation) of a node.
func (d *Design) NodeCoord(id int) float64 { return d.cum[d.tourIndex[id]] }

// EdgePath returns the physical polyline of tour edge i.
func (d *Design) EdgePath(i int) geom.Polyline {
	n := d.N()
	a := d.Net.Nodes[d.Tour[i]].Pos
	b := d.Net.Nodes[d.Tour[(i+1)%n]].Pos
	return geom.LPath(a, b, d.EdgeOrders[i])
}

// RingPolyline returns the closed physical route of the base ring.
func (d *Design) RingPolyline() geom.Polyline {
	var pl geom.Polyline
	for i := 0; i < d.N(); i++ {
		p := d.EdgePath(i)
		if i == 0 {
			pl = append(pl, p...)
		} else {
			pl = append(pl, p[1:]...)
		}
	}
	return pl
}

// RadialScale returns the length multiplier for a waveguide replica:
// waveguide pairs are stacked concentrically with the Sec. III-D
// corridor spacing between them, so the perimeter of pair k exceeds the
// base tour by roughly 8*k*spacing (a rectilinear ring offset outward
// by s grows by 8s). All arc lengths on the waveguide scale
// accordingly.
func (d *Design) RadialScale(w *Waveguide) float64 {
	pair := w.Radial / 2
	if pair <= 0 || d.perimeter <= 0 {
		return 1
	}
	extra := 8 * d.Par.RingSpacingMM(d.N()) * float64(pair)
	return (d.perimeter + extra) / d.perimeter
}

// ArcLen returns the travel distance from src to dst in direction dir.
func (d *Design) ArcLen(src, dst int, dir Direction) float64 {
	si, di := d.tourIndex[src], d.tourIndex[dst]
	if si == di {
		return 0
	}
	cwLen := d.cum[di] - d.cum[si]
	if cwLen < 0 {
		cwLen += d.perimeter
	}
	if dir == CW {
		return cwLen
	}
	return d.perimeter - cwLen
}

// arcSteps returns how many tour steps a walk from src to dst takes in
// direction dir (n for a full lap when src == dst).
func (d *Design) arcSteps(src, dst int, dir Direction) int {
	n := d.N()
	off := d.tourIndex[dst] - d.tourIndex[src]
	if dir == CCW {
		off = -off
	}
	if off <= 0 {
		off += n
	}
	return off
}

// ForEachGapNode calls fn, in travel order, with every node whose
// sender/receiver gap a signal src->dst in direction dir traverses: the
// nodes strictly between src and dst along the travel direction. It
// allocates nothing.
func (d *Design) ForEachGapNode(src, dst int, dir Direction, fn func(k int)) {
	n := d.N()
	step := 1
	if dir == CCW {
		step = n - 1 // -1 mod n
	}
	i := d.tourIndex[src]
	for j := d.arcSteps(src, dst, dir) - 1; j > 0; j-- {
		i += step
		if i >= n {
			i -= n
		}
		fn(d.Tour[i])
	}
}

// PassesNode reports whether signal src->dst in direction dir traverses
// the sender/receiver gap of node k. It is O(1): k is passed exactly
// when it lies fewer tour steps from src than dst does.
func (d *Design) PassesNode(src, dst, k int, dir Direction) bool {
	if k == src || k == dst || k < 0 || k >= d.N() {
		return false
	}
	return d.arcSteps(src, k, dir) < d.arcSteps(src, dst, dir)
}

// ArcInterval returns the [from, to) arc coordinates (CW orientation) a
// channel occupies. For CCW waveguides the physical span is the same set
// of tour edges walked backwards, so the interval is given from dst to
// src in CW coordinates.
func (d *Design) ArcInterval(src, dst int, dir Direction) (from, to float64) {
	if dir == CW {
		return d.NodeCoord(src), d.NodeCoord(dst)
	}
	return d.NodeCoord(dst), d.NodeCoord(src)
}

// CoordInArc reports whether CW arc coordinate x lies strictly inside
// the interval [from, to) measured cyclically.
func (d *Design) CoordInArc(x, from, to float64) bool {
	span := to - from
	if span < 0 {
		span += d.perimeter
	}
	off := x - from
	if off < 0 {
		off += d.perimeter
	}
	return off > geom.Eps && off < span-geom.Eps
}

// CrossingsOnArc counts the ring crossings a channel traverses.
func (d *Design) CrossingsOnArc(w *Waveguide, src, dst int) int {
	from, to := d.ArcInterval(src, dst, w.Dir)
	n := 0
	for _, c := range w.Crossings {
		if d.CoordInArc(c.Pos, from, to) {
			n++
		}
	}
	return n
}

// BendsOnArc counts 90-degree bends traversed by a channel from src to
// dst in direction dir: the bends inside every tour edge the arc
// covers, plus one at each intermediate node joint where the incoming
// and outgoing orientations differ. A zero-length edge has no
// orientation, so the joints on either side of it count nothing. It
// allocates nothing.
func (d *Design) BendsOnArc(src, dst int, dir Direction) int {
	n := d.N()
	i, di := d.tourIndex[src], d.tourIndex[dst]
	bends := 0
	prevSegs, prevOutH := 0, false
	for i != di {
		ei, next := i, i+1
		if dir == CCW {
			ei = (i + n - 1) % n
			next = ei
		}
		a := d.Net.Nodes[d.Tour[ei]].Pos
		b := d.Net.Nodes[d.Tour[(ei+1)%n]].Pos
		segs, eb, firstH, lastH := geom.LShape(a, b, d.EdgeOrders[ei])
		bends += eb
		inH, outH := firstH, lastH
		if dir == CCW {
			inH, outH = lastH, firstH
		}
		if prevSegs > 0 && segs > 0 && prevOutH != inH {
			bends++
		}
		prevSegs, prevOutH = segs, outH
		i = next % n
	}
	return bends
}

// WaveguidesByDir returns the design's waveguides with the given
// direction, in ID order.
func (d *Design) WaveguidesByDir(dir Direction) []*Waveguide {
	var out []*Waveguide
	for _, w := range d.Waveguides {
		if w.Dir == dir {
			out = append(out, w)
		}
	}
	return out
}

// SendersOn returns the node IDs that have at least one sender
// (modulator) on waveguide w, in tour order starting at the tour origin.
func (d *Design) SendersOn(w *Waveguide) []int {
	has := make([]bool, d.N())
	n := 0
	for _, c := range w.Channels {
		if !has[c.Sig.Src] {
			has[c.Sig.Src] = true
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for _, id := range d.Tour {
		if has[id] {
			out = append(out, id)
		}
	}
	return out
}

// WavelengthsUsed returns the distinct wavelength count across the
// design (ring channels and shortcut channels).
func (d *Design) WavelengthsUsed() int {
	used := map[int]bool{}
	for _, w := range d.Waveguides {
		for _, c := range w.Channels {
			used[c.WL] = true
		}
	}
	for _, s := range d.Shortcuts {
		for _, c := range s.Channels {
			used[c.WL] = true
		}
	}
	return len(used)
}

// TotalCrossings returns the number of waveguide crossings in the whole
// design: ring crossings (from baseline PDNs) plus one CSE crossing per
// merged shortcut pair.
func (d *Design) TotalCrossings() int {
	n := 0
	for _, w := range d.Waveguides {
		n += len(w.Crossings)
	}
	for i, s := range d.Shortcuts {
		if s.Partner > i {
			n++
		}
	}
	return n
}

// ShortcutFor returns the shortcut connecting a and b and its index, or
// -1 and nil when there is none.
func (d *Design) ShortcutFor(a, b int) (int, *Shortcut) {
	for i, s := range d.Shortcuts {
		if (s.A == a && s.B == b) || (s.A == b && s.B == a) {
			return i, s
		}
	}
	return -1, nil
}
