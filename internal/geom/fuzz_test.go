package geom

import (
	"math"
	"testing"
)

// FuzzCrosses checks that the crossing predicate never panics and stays
// symmetric for arbitrary (finite) axis-aligned segments.
func FuzzCrosses(f *testing.F) {
	f.Add(0.0, 0.0, 4.0, 0.0, 2.0, -1.0, 2.0, 1.0)
	f.Add(0.0, 0.0, 0.0, 4.0, 0.0, 2.0, 0.0, 6.0)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, dx, dy float64) {
		clampF := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1000)
		}
		a := Point{clampF(ax), clampF(ay)}
		b := Point{clampF(bx), clampF(by)}
		c := Point{clampF(cx), clampF(cy)}
		d := Point{clampF(dx), clampF(dy)}
		// Snap to axis alignment: force one shared coordinate each.
		s1 := Segment{a, Point{b.X, a.Y}}
		s2 := Segment{c, Point{c.X, d.Y}}
		if Crosses(s1, s2) != Crosses(s2, s1) {
			t.Fatalf("asymmetric: %v vs %v", s1, s2)
		}
		// L-paths from the same endpoints never cross their own twin.
		p := LPath(a, b, VH)
		q := LPath(a, b, HV)
		_ = PathsCross(p, q) // must not panic
	})
}

// FuzzLShape checks the allocation-free L summary against the polyline
// it stands for: segment count, bends and end orientations must equal
// those of LPath(a, b, o).Segments() and .Bends() for any finite
// endpoints, straight and coincident ones included.
func FuzzLShape(f *testing.F) {
	f.Add(0.0, 0.0, 4.0, 3.0, 0)
	f.Add(1.0, 2.0, 5.0, 2.0, 1)       // horizontal
	f.Add(1.0, 2.0, 1.0, -2.0, 0)      // vertical
	f.Add(1.0, 2.0, 1.0, 2.0, 1)       // coincident
	f.Add(1.0, 2.0, 1.0+Eps/2, 7.0, 1) // straight within Eps
	f.Add(-3.5, 8.25, 6.0, -1.0, 7)    // any non-VH order routes HV
	f.Fuzz(func(t *testing.T, ax, ay, bx, by float64, order int) {
		clampF := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1000)
		}
		a := Point{clampF(ax), clampF(ay)}
		b := Point{clampF(bx), clampF(by)}
		o := LOrder(order)
		p := LPath(a, b, o)
		ps := p.Segments()
		segs, bends, firstH, lastH := LShape(a, b, o)
		if segs != len(ps) || bends != p.Bends() {
			t.Fatalf("LShape(%v, %v, %d) = %d segs %d bends; path %v has %d and %d",
				a, b, order, segs, bends, p, len(ps), p.Bends())
		}
		if segs > 0 && (firstH != ps[0].Horizontal() || lastH != ps[len(ps)-1].Horizontal()) {
			t.Fatalf("LShape(%v, %v, %d) orientations %v,%v; path %v", a, b, order, firstH, lastH, p)
		}
	})
}

// FuzzEdgesConflict pins the allocation-free conflict test to the
// polyline reference (four LPath pairs through PathsCross). The seed
// corpus in testdata/fuzz/FuzzEdgesConflict holds collinear,
// shared-endpoint and T-junction cases; inputs are snapped to a 0.5 mm
// lattice half the time so such coincidences keep occurring.
func FuzzEdgesConflict(f *testing.F) {
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, dx, dy float64, snap bool) {
		c := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			v = math.Mod(v, 100)
			if snap {
				v = math.Round(v*2) / 2
			}
			return v
		}
		a1, b1 := Point{c(ax), c(ay)}, Point{c(bx), c(by)}
		a2, b2 := Point{c(cx), c(cy)}, Point{c(dx), c(dy)}
		if got, want := EdgesConflict(a1, b1, a2, b2), refEdgesConflict(a1, b1, a2, b2); got != want {
			t.Fatalf("EdgesConflict(%v,%v,%v,%v) = %v, reference = %v", a1, b1, a2, b2, got, want)
		}
	})
}

// TestEdgesConflictAllocFree guards the Step-1 scan against allocation:
// the conflict test must build no polyline or segment slice, on
// separated, touching and overlapping edge pairs alike.
func TestEdgesConflictAllocFree(t *testing.T) {
	cases := [][4]Point{
		{{0, 0}, {4, 3}, {10, 10}, {12, 14}}, // separated boxes
		{{0, 0}, {4, 0}, {2, 0}, {6, 0}},     // collinear overlap
		{{0, 0}, {4, 4}, {0, 4}, {4, 0}},     // crossing diagonals
		{{0, 1}, {4, 1}, {2, 1}, {2, 5}},     // T-junction
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, func() { EdgesConflict(c[0], c[1], c[2], c[3]) }); n != 0 {
			t.Fatalf("EdgesConflict%v allocates %v times per call", c, n)
		}
	}
}
