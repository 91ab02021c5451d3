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
