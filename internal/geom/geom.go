// Package geom provides the planar geometry substrate for waveguide
// routing: points, axis-aligned segments, L-shaped Manhattan routes and
// exact crossing predicates.
//
// All coordinates are in millimetres. Waveguides are routed rectilinearly
// (horizontal and vertical segments only), matching the paper's assumption
// that an edge between two nodes is implemented either
// vertical-then-horizontal (VH) or horizontal-then-vertical (HV).
package geom

import (
	"fmt"
	"math"
)

// Eps is the tolerance used for floating-point comparisons of coordinates.
const Eps = 1e-9

// Point is a location on the chip plane, in millimetres.
type Point struct {
	X, Y float64
}

func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// Add returns p translated by d.
func (p Point) Add(d Point) Point { return Point{p.X + d.X, p.Y + d.Y} }

// Sub returns the componentwise difference p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Eq reports whether p and q coincide within Eps.
func (p Point) Eq(q Point) bool {
	return math.Abs(p.X-q.X) <= Eps && math.Abs(p.Y-q.Y) <= Eps
}

// Manhattan returns the L1 distance between p and q.
func Manhattan(p, q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

// Euclid returns the L2 distance between p and q.
func Euclid(p, q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Segment is an axis-aligned waveguide segment. A Segment whose endpoints
// coincide is degenerate and has zero length; degenerate segments never
// cross anything.
type Segment struct {
	A, B Point
}

func (s Segment) String() string { return fmt.Sprintf("[%v-%v]", s.A, s.B) }

// Horizontal reports whether the segment runs along the X axis.
func (s Segment) Horizontal() bool { return math.Abs(s.A.Y-s.B.Y) <= Eps }

// Vertical reports whether the segment runs along the Y axis.
func (s Segment) Vertical() bool { return math.Abs(s.A.X-s.B.X) <= Eps }

// Degenerate reports whether the segment has (near-)zero length.
func (s Segment) Degenerate() bool { return s.A.Eq(s.B) }

// Length returns the segment length. Axis-aligned segments have
// Manhattan length equal to Euclidean length.
func (s Segment) Length() float64 { return Manhattan(s.A, s.B) }

// Axis validity: a segment used for routing must be axis-aligned.
// AxisAligned reports whether s is horizontal or vertical.
func (s Segment) AxisAligned() bool { return s.Horizontal() || s.Vertical() }

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// contains reports whether the closed interval [lo,hi] contains v,
// with tolerance.
func contains(lo, hi, v float64) bool {
	return v >= lo-Eps && v <= hi+Eps
}

// overlap1D reports whether intervals [a1,a2] and [b1,b2] (unordered)
// share more than a single point.
func overlap1D(a1, a2, b1, b2 float64) bool {
	lo1, hi1 := minf(a1, a2), maxf(a1, a2)
	lo2, hi2 := minf(b1, b2), maxf(b1, b2)
	return minf(hi1, hi2)-maxf(lo1, lo2) > Eps
}

// ContainsPoint reports whether the axis-aligned segment s contains p
// (including endpoints).
func (s Segment) ContainsPoint(p Point) bool {
	if s.Horizontal() {
		return math.Abs(p.Y-s.A.Y) <= Eps &&
			contains(minf(s.A.X, s.B.X), maxf(s.A.X, s.B.X), p.X)
	}
	if s.Vertical() {
		return math.Abs(p.X-s.A.X) <= Eps &&
			contains(minf(s.A.Y, s.B.Y), maxf(s.A.Y, s.B.Y), p.Y)
	}
	return false
}

// Crosses reports whether two axis-aligned segments intersect in a way
// that would create a physical waveguide crossing or overlap.
//
// Two segments cross when:
//   - they are perpendicular and intersect at an interior point of both
//     (a classic waveguide crossing), or at an interior point of one and
//     an endpoint of the other (a T-junction, which is also illegal for
//     independent waveguides), or
//   - they are parallel, collinear, and overlap in more than a point
//     (two waveguides on top of each other).
//
// Merely sharing an endpoint (two consecutive segments of the same path)
// does not count as a crossing.
func Crosses(s, t Segment) bool {
	// Cheap bounding-box rejection: segments whose boxes are separated
	// by more than Eps cannot intersect, overlap or touch. This runs
	// before the exact orientation tests because the all-pairs conflict
	// scan (ring.buildConflicts) compares mostly far-apart segments.
	if minf(s.A.X, s.B.X) > maxf(t.A.X, t.B.X)+Eps ||
		minf(t.A.X, t.B.X) > maxf(s.A.X, s.B.X)+Eps ||
		minf(s.A.Y, s.B.Y) > maxf(t.A.Y, t.B.Y)+Eps ||
		minf(t.A.Y, t.B.Y) > maxf(s.A.Y, s.B.Y)+Eps {
		return false
	}
	if s.Degenerate() || t.Degenerate() {
		return false
	}
	sh, th := s.Horizontal(), t.Horizontal()
	switch {
	case sh && th:
		// Parallel horizontal: crossing only if same Y and X-overlap.
		if math.Abs(s.A.Y-t.A.Y) > Eps {
			return false
		}
		return overlap1D(s.A.X, s.B.X, t.A.X, t.B.X)
	case !sh && !th:
		if math.Abs(s.A.X-t.A.X) > Eps {
			return false
		}
		return overlap1D(s.A.Y, s.B.Y, t.A.Y, t.B.Y)
	}
	// Perpendicular. Normalize so h is horizontal, v vertical.
	h, v := s, t
	if !sh {
		h, v = t, s
	}
	ix, iy := v.A.X, h.A.Y // candidate intersection point
	if !contains(minf(h.A.X, h.B.X), maxf(h.A.X, h.B.X), ix) {
		return false
	}
	if !contains(minf(v.A.Y, v.B.Y), maxf(v.A.Y, v.B.Y), iy) {
		return false
	}
	p := Point{ix, iy}
	// Intersection exists; sharing an endpoint of BOTH segments is a
	// joint, not a crossing.
	endOfH := p.Eq(h.A) || p.Eq(h.B)
	endOfV := p.Eq(v.A) || p.Eq(v.B)
	return !(endOfH && endOfV)
}

// CrossingPoint returns the intersection point of two perpendicular
// segments that cross, and true; otherwise the zero Point and false.
func CrossingPoint(s, t Segment) (Point, bool) {
	if !Crosses(s, t) {
		return Point{}, false
	}
	if s.Horizontal() == t.Horizontal() {
		return Point{}, false // collinear overlap: no single point
	}
	h, v := s, t
	if !s.Horizontal() {
		h, v = t, s
	}
	return Point{v.A.X, h.A.Y}, true
}

// LOrder selects which leg of an L-shaped route comes first.
type LOrder int

const (
	// VH routes vertical first, then horizontal.
	VH LOrder = iota
	// HV routes horizontal first, then vertical.
	HV
)

func (o LOrder) String() string {
	if o == VH {
		return "VH"
	}
	return "HV"
}

// LPath returns the rectilinear route from a to b using the given leg
// order. Straight (or zero-length) routes return a single segment.
func LPath(a, b Point, order LOrder) Polyline {
	if math.Abs(a.X-b.X) <= Eps || math.Abs(a.Y-b.Y) <= Eps {
		return Polyline{a, b}
	}
	var corner Point
	if order == VH {
		corner = Point{a.X, b.Y}
	} else {
		corner = Point{b.X, a.Y}
	}
	return Polyline{a, corner, b}
}

// LShape summarises LPath(a, b, order) without building it: segs and
// bends are len(Segments()) and Bends() of that path, and firstH and
// lastH report whether its first and last segments are horizontal. When
// a and b coincide segs is 0 and the orientations mean nothing.
func LShape(a, b Point, order LOrder) (segs, bends int, firstH, lastH bool) {
	flatY := math.Abs(a.Y-b.Y) <= Eps
	if math.Abs(a.X-b.X) <= Eps || flatY {
		if a.Eq(b) {
			return 0, 0, false, false
		}
		return 1, 0, flatY, flatY
	}
	// A true L: VH runs vertical then horizontal, HV the reverse.
	h := order != VH
	return 2, 1, h, !h
}

// LOptions returns both L-shaped routing options for the edge a→b.
// For straight edges the two options coincide.
func LOptions(a, b Point) [2]Polyline {
	return [2]Polyline{LPath(a, b, VH), LPath(a, b, HV)}
}

// LOrderOf recovers the leg order an LPath polyline was built with, so
// the path can be rebuilt after one of its endpoints moves. Straight
// paths report VH (both orders produce the identical polyline).
func LOrderOf(p Polyline) LOrder {
	if len(p) < 2 || math.Abs(p[0].X-p[1].X) <= Eps {
		return VH // first leg vertical (or degenerate/straight)
	}
	return HV
}

// Polyline is an open rectilinear path given by its bend points.
type Polyline []Point

// Segments returns the constituent segments of the polyline.
// Degenerate (zero-length) segments are skipped.
func (p Polyline) Segments() []Segment {
	return p.appendSegments(make([]Segment, 0, len(p)-1))
}

// appendSegments appends the polyline's non-degenerate segments to dst.
func (p Polyline) appendSegments(dst []Segment) []Segment {
	for i := 0; i+1 < len(p); i++ {
		s := Segment{p[i], p[i+1]}
		if !s.Degenerate() {
			dst = append(dst, s)
		}
	}
	return dst
}

// Length returns the total length of the polyline.
func (p Polyline) Length() float64 {
	var l float64
	for i := 0; i+1 < len(p); i++ {
		l += Manhattan(p[i], p[i+1])
	}
	return l
}

// Start returns the first point of the polyline.
func (p Polyline) Start() Point { return p[0] }

// End returns the last point of the polyline.
func (p Polyline) End() Point { return p[len(p)-1] }

// Bends returns the number of 90-degree bends along the polyline.
func (p Polyline) Bends() int {
	// L-shaped routes have at most two segments: keep them on the stack.
	var buf [4]Segment
	segs := p.appendSegments(buf[:0])
	bends := 0
	for i := 0; i+1 < len(segs); i++ {
		if segs[i].Horizontal() != segs[i+1].Horizontal() {
			bends++
		}
	}
	return bends
}

// PathsCross reports whether two rectilinear paths cross, ignoring
// intersections that occur exactly at a shared terminal point of both
// paths (paths meeting at a common node are joints, not crossings).
func PathsCross(p, q Polyline) bool {
	// L-shaped routes have at most two segments: keep them on the stack.
	var pbuf, qbuf [4]Segment
	ps, qs := p.appendSegments(pbuf[:0]), q.appendSegments(qbuf[:0])
	for _, s := range ps {
		for _, t := range qs {
			if !Crosses(s, t) {
				continue
			}
			if pt, ok := CrossingPoint(s, t); ok {
				if isTerminal(p, pt) && isTerminal(q, pt) {
					continue // shared node endpoint
				}
			}
			return true
		}
	}
	return false
}

// CrossingsBetween counts distinct crossing points between two paths,
// ignoring shared terminal points. Collinear overlaps count as one.
func CrossingsBetween(p, q Polyline) int {
	n := 0
	for _, s := range p.Segments() {
		for _, t := range q.Segments() {
			if !Crosses(s, t) {
				continue
			}
			if pt, ok := CrossingPoint(s, t); ok {
				if isTerminal(p, pt) && isTerminal(q, pt) {
					continue
				}
			}
			n++
		}
	}
	return n
}

func isTerminal(p Polyline, pt Point) bool {
	return p.Start().Eq(pt) || p.End().Eq(pt)
}

// EdgesConflict implements the paper's conflict test (Sec. III-A,
// Fig. 6(b)-(d)): edges (a1,b1) and (a2,b2) conflict when none of the
// four combinations of L-shaped routing options implements both edges
// without a waveguide crossing.
//
// Edges that share an endpoint never conflict: the shared node is a
// joint on the ring, and the non-shared legs can always be locally
// spaced apart in a physical design.
//
// The test is PathsCross on the four LPath pairs, computed on fixed
// segment arrays so that it allocates nothing: Step 1 runs it on every
// pair of candidate edges.
func EdgesConflict(a1, b1, a2, b2 Point) bool {
	if a1.Eq(a2) || a1.Eq(b2) || b1.Eq(a2) || b1.Eq(b2) {
		return false
	}
	// Both L-shaped options of an edge stay inside the bounding box of
	// its endpoints, so edges with separated boxes can never cross under
	// any option pair — reject before building any segment.
	if minf(a1.X, b1.X) > maxf(a2.X, b2.X)+Eps ||
		minf(a2.X, b2.X) > maxf(a1.X, b1.X)+Eps ||
		minf(a1.Y, b1.Y) > maxf(a2.Y, b2.Y)+Eps ||
		minf(a2.Y, b2.Y) > maxf(a1.Y, b1.Y)+Eps {
		return false
	}
	for _, o1 := range [2]LOrder{VH, HV} {
		ps, np := lSegments(a1, b1, o1)
		for _, o2 := range [2]LOrder{VH, HV} {
			qs, nq := lSegments(a2, b2, o2)
			if !segsCross(ps[:np], a1, b1, qs[:nq], a2, b2) {
				return false
			}
		}
	}
	return true
}

// lSegments returns LPath(a, b, order).Segments() in a fixed array: the
// first n entries are the path's non-degenerate segments.
func lSegments(a, b Point, order LOrder) (segs [2]Segment, n int) {
	if math.Abs(a.X-b.X) <= Eps || math.Abs(a.Y-b.Y) <= Eps {
		if s := (Segment{a, b}); !s.Degenerate() {
			segs[0], n = s, 1
		}
		return segs, n
	}
	corner := Point{b.X, a.Y}
	if order == VH {
		corner = Point{a.X, b.Y}
	}
	for _, s := range [2]Segment{{a, corner}, {corner, b}} {
		if !s.Degenerate() {
			segs[n] = s
			n++
		}
	}
	return segs, n
}

// segsCross is PathsCross for two L paths given by their segments and
// terminals (pa, pb) and (qa, qb): a perpendicular crossing at a
// terminal of both paths is a joint, any other crossing or collinear
// overlap counts.
func segsCross(ps []Segment, pa, pb Point, qs []Segment, qa, qb Point) bool {
	for _, s := range ps {
		for _, t := range qs {
			if !Crosses(s, t) {
				continue
			}
			if s.Horizontal() != t.Horizontal() {
				h, v := s, t
				if !s.Horizontal() {
					h, v = t, s
				}
				x := Point{v.A.X, h.A.Y}
				if (pa.Eq(x) || pb.Eq(x)) && (qa.Eq(x) || qb.Eq(x)) {
					continue // shared node endpoint
				}
			}
			return true
		}
	}
	return false
}

// CompatibleOptions returns the pairs of L-orders (for edge 1 and edge 2
// respectively) under which the two edges do not cross. The result is
// empty exactly when the edges conflict.
func CompatibleOptions(a1, b1, a2, b2 Point) [][2]LOrder {
	var out [][2]LOrder
	orders := [2]LOrder{VH, HV}
	for _, o1 := range orders {
		p := LPath(a1, b1, o1)
		for _, o2 := range orders {
			q := LPath(a2, b2, o2)
			share := a1.Eq(a2) || a1.Eq(b2) || b1.Eq(a2) || b1.Eq(b2)
			if share || !PathsCross(p, q) {
				out = append(out, [2]LOrder{o1, o2})
			}
		}
	}
	return out
}

// PolylineCrossingPoint returns the unique crossing point between two
// polylines and true, or false when they cross zero times or more than
// once (collinear overlaps yield no point).
func PolylineCrossingPoint(a, b Polyline) (Point, bool) {
	var found []Point
	for _, sa := range a.Segments() {
		for _, sb := range b.Segments() {
			if pt, ok := CrossingPoint(sa, sb); ok {
				found = append(found, pt)
			}
		}
	}
	if len(found) != 1 {
		return Point{}, false
	}
	return found[0], true
}

// DistAlong measures the walk distance between two points lying on a
// polyline. A point not on the polyline is treated as lying at the end
// of the path (callers are expected to pass on-path points).
func DistAlong(p Polyline, from, to Point) float64 {
	coord := func(q Point) float64 {
		acc := 0.0
		for _, s := range p.Segments() {
			if s.ContainsPoint(q) {
				return acc + Manhattan(s.A, q)
			}
			acc += s.Length()
		}
		return acc
	}
	return math.Abs(coord(from) - coord(to))
}

// BoundingBox returns the axis-aligned bounding box of a set of points
// as (min, max) corners. It panics on an empty input.
func BoundingBox(pts []Point) (Point, Point) {
	if len(pts) == 0 {
		panic("geom: BoundingBox of empty point set")
	}
	lo, hi := pts[0], pts[0]
	for _, p := range pts[1:] {
		lo.X = minf(lo.X, p.X)
		lo.Y = minf(lo.Y, p.Y)
		hi.X = maxf(hi.X, p.X)
		hi.Y = maxf(hi.Y, p.Y)
	}
	return lo, hi
}
