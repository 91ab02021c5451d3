package geom

import (
	"math/rand"
	"testing"
)

// refEdgesConflict is the polyline reference of the conflict test: the
// four LPath option pairs through PathsCross, with no bounding-box
// rejection. It pins the allocation-free EdgesConflict to the plain
// definition.
func refEdgesConflict(a1, b1, a2, b2 Point) bool {
	if a1.Eq(a2) || a1.Eq(b2) || b1.Eq(a2) || b1.Eq(b2) {
		return false
	}
	for _, p := range LOptions(a1, b1) {
		for _, q := range LOptions(a2, b2) {
			if !PathsCross(p, q) {
				return false
			}
		}
	}
	return true
}

func randPoint(rng *rand.Rand) Point {
	// Snap to a 0.5 mm lattice so coincidences and T-junctions occur.
	return Point{
		X: float64(rng.Intn(41)) * 0.5,
		Y: float64(rng.Intn(41)) * 0.5,
	}
}

// TestEdgesConflictMatchesReference checks that the bounding-box
// rejection never changes the predicate on lattice geometry, where
// touching and collinear cases are common.
func TestEdgesConflictMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for k := 0; k < 20000; k++ {
		a1, b1 := randPoint(rng), randPoint(rng)
		a2, b2 := randPoint(rng), randPoint(rng)
		got := EdgesConflict(a1, b1, a2, b2)
		want := refEdgesConflict(a1, b1, a2, b2)
		if got != want {
			t.Fatalf("EdgesConflict(%v,%v,%v,%v) = %v, reference = %v",
				a1, b1, a2, b2, got, want)
		}
	}
}

// TestCrossesBBoxRejection spot-checks that clearly separated segments
// are rejected and touching ones still cross.
func TestCrossesBBoxRejection(t *testing.T) {
	far := Segment{Point{10, 10}, Point{12, 10}}
	near := Segment{Point{0, 0}, Point{0, 5}}
	if Crosses(far, near) {
		t.Fatal("separated segments must not cross")
	}
	// T-junction at the shared boundary must still be detected.
	h := Segment{Point{0, 1}, Point{4, 1}}
	v := Segment{Point{2, 1}, Point{2, 5}} // endpoint on h's interior
	if !Crosses(h, v) {
		t.Fatal("T-junction must still count as a crossing")
	}
}

func benchSegments(n int) []Segment {
	rng := rand.New(rand.NewSource(7))
	segs := make([]Segment, n)
	for i := range segs {
		a := randPoint(rng)
		var b Point
		if rng.Intn(2) == 0 {
			b = Point{a.X + float64(rng.Intn(9))*0.5, a.Y}
		} else {
			b = Point{a.X, a.Y + float64(rng.Intn(9))*0.5}
		}
		segs[i] = Segment{a, b}
	}
	return segs
}

// BenchmarkCrossesAllPairs measures the segment predicate on the
// all-pairs workload buildConflicts generates (mostly far-apart pairs).
func BenchmarkCrossesAllPairs(b *testing.B) {
	segs := benchSegments(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for x := 0; x < len(segs); x++ {
			for y := x + 1; y < len(segs); y++ {
				if Crosses(segs[x], segs[y]) {
					n++
				}
			}
		}
		_ = n
	}
}

// BenchmarkEdgesConflictAllPairs measures the conflict predicate the
// way Step 1 uses it: every pair of node-pair edges on a floorplan.
func BenchmarkEdgesConflictAllPairs(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]Point, 16)
	for i := range pts {
		pts[i] = randPoint(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for a := 0; a < len(pts); a++ {
			for bb := a + 1; bb < len(pts); bb++ {
				for c := 0; c < len(pts); c++ {
					for d := c + 1; d < len(pts); d++ {
						if EdgesConflict(pts[a], pts[bb], pts[c], pts[d]) {
							n++
						}
					}
				}
			}
		}
		_ = n
	}
}
