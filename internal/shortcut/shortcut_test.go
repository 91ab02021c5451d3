package shortcut

import (
	"math"
	"testing"

	"xring/internal/geom"
	"xring/internal/noc"
	"xring/internal/phys"
	"xring/internal/ring"
	"xring/internal/router"
)

// grid8Design builds the 4x2 floorplan with the boustrophedon tour.
func grid8Design(t *testing.T) *router.Design {
	t.Helper()
	net := noc.Floorplan8()
	d, err := router.NewDesign(net, phys.Default(), []int{0, 1, 2, 3, 7, 6, 5, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// uShapeDesign builds an 8-node non-convex (U-shaped) ring whose notch
// admits exactly one high-gain shortcut bridging the mouth.
func uShapeDesign(t *testing.T) *router.Design {
	t.Helper()
	pos := []geom.Point{
		{X: 0, Y: 0}, {X: 6, Y: 0}, // bottom
		{X: 6, Y: 4},               // right top
		{X: 4, Y: 4}, {X: 4, Y: 2}, // notch right wall
		{X: 2, Y: 2}, {X: 2, Y: 4}, // notch left wall
		{X: 0, Y: 4}, // left top
	}
	net := &noc.Network{DieW: 6, DieH: 4}
	for i, p := range pos {
		net.Nodes = append(net.Nodes, noc.Node{ID: i, Name: "n", Pos: p})
	}
	d, err := router.NewDesign(net, phys.Default(), []int{0, 1, 2, 3, 4, 5, 6, 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFeasiblePaths(t *testing.T) {
	d := grid8Design(t)
	// 1<->5 is a straight vertical chord: feasible.
	if paths := feasiblePaths(d, ringPaths(d), 1, 5); len(paths) != 1 {
		t.Fatalf("feasiblePaths(1,5) = %d paths, want 1", len(paths))
	}
	// 1<->6 must route through node 2's or node 5's position: infeasible.
	if paths := feasiblePaths(d, ringPaths(d), 1, 6); len(paths) != 0 {
		t.Fatalf("feasiblePaths(1,6) = %d paths, want 0", len(paths))
	}
}

// TestFeasiblePathsNearPair: two nodes 1e-4 mm apart in both axes are
// a valid floorplan (positions need only differ by more than 1e-9), and
// their two L routes are different polylines; both are feasible on this
// pinwheel ring. A straight pair still yields a single route.
func TestFeasiblePathsNearPair(t *testing.T) {
	pos := []geom.Point{{X: 5, Y: 5}, {X: 10, Y: 0}, {X: 5.0001, Y: 5.0001}, {X: 0, Y: 10}}
	net := &noc.Network{DieW: 10, DieH: 10}
	for i, p := range pos {
		net.Nodes = append(net.Nodes, noc.Node{ID: i, Name: "n", Pos: p})
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	d, err := router.NewDesign(net, phys.Default(), []int{0, 1, 2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if paths := feasiblePaths(d, ringPaths(d), 0, 2); len(paths) != 2 {
		t.Fatalf("feasiblePaths(0,2) = %v, want both L routes", paths)
	}
	g := grid8Design(t)
	if paths := feasiblePaths(g, ringPaths(g), 1, 5); len(paths) != 1 {
		t.Fatalf("straight chord: feasiblePaths(1,5) = %v, want one route", paths)
	}
}

func TestCollectGrid8(t *testing.T) {
	d := grid8Design(t)
	cands := Collect(d, nil)
	// Exactly the two vertical chords 1<->5 and 2<->6 have positive gain
	// and a feasible path on the 4x2 grid.
	if len(cands) != 2 {
		t.Fatalf("got %d candidates: %+v", len(cands), cands)
	}
	for _, c := range cands {
		if !(c.A == 1 && c.B == 5 || c.A == 2 && c.B == 6) {
			t.Fatalf("unexpected candidate %d-%d", c.A, c.B)
		}
		if math.Abs(c.Gain-4) > 1e-9 {
			t.Fatalf("candidate %d-%d gain = %v, want 4", c.A, c.B, c.Gain)
		}
	}
}

func TestConstructGrid8(t *testing.T) {
	d := grid8Design(t)
	if err := Construct(d, Options{}); err != nil {
		t.Fatal(err)
	}
	if len(d.Shortcuts) != 2 {
		t.Fatalf("selected %d shortcuts, want 2", len(d.Shortcuts))
	}
	for _, s := range d.Shortcuts {
		if s.Partner != -1 {
			t.Fatalf("parallel shortcuts must not be partners")
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("design with shortcuts invalid: %v", err)
	}
}

func TestConstructDisabled(t *testing.T) {
	d := grid8Design(t)
	if err := Construct(d, Options{Disable: true}); err != nil {
		t.Fatal(err)
	}
	if len(d.Shortcuts) != 0 {
		t.Fatal("Disable must produce no shortcuts")
	}
}

func TestConstructUShape(t *testing.T) {
	d := uShapeDesign(t)
	if err := Construct(d, Options{}); err != nil {
		t.Fatal(err)
	}
	// The notch-mouth chord 3<->6 is the only viable shortcut.
	if len(d.Shortcuts) != 1 {
		t.Fatalf("selected %d shortcuts, want 1 (%+v)", len(d.Shortcuts), d.Shortcuts)
	}
	s := d.Shortcuts[0]
	if !(s.A == 3 && s.B == 6) {
		t.Fatalf("selected %d-%d, want 3-6", s.A, s.B)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	sup, err := SupportedSignals(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sup) != 2 {
		t.Fatalf("supported %d signals, want 2 (both directions)", len(sup))
	}
	for _, s := range sup {
		if math.Abs(s.Length-2) > 1e-9 || s.ViaCSE || s.PassesCrossing {
			t.Fatalf("unexpected supported signal %+v", s)
		}
	}
}

func TestOnePerNodeRule(t *testing.T) {
	// On any design, after Construct no node may appear in two shortcuts
	// (Validate enforces it, so Validate passing suffices); check a few
	// irregular instances end-to-end.
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
		net := noc.Irregular(10, 12, 12, 1.5, seed)
		res, err := ring.Construct(net, ring.Options{})
		if err != nil {
			t.Fatalf("seed %d ring: %v", seed, err)
		}
		d, err := router.NewDesign(net, phys.Default(), res.Tour, res.Orders)
		if err != nil {
			t.Fatal(err)
		}
		if err := Construct(d, Options{}); err != nil {
			t.Fatalf("seed %d shortcut: %v", seed, err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestGainPositivity(t *testing.T) {
	// All selected shortcuts must strictly beat the ring.
	d := grid8Design(t)
	if err := Construct(d, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, s := range d.Shortcuts {
		cw := d.ArcLen(s.A, s.B, router.CW)
		ccw := d.ArcLen(s.A, s.B, router.CCW)
		if s.Length() >= math.Min(cw, ccw) {
			t.Fatalf("shortcut %d-%d has non-positive gain", s.A, s.B)
		}
	}
}

func TestSupportedSignalsCSEMechanics(t *testing.T) {
	// Synthetic crossing pair on a wide boundary ring: verify the CSE
	// bookkeeping (entry shortcut, lengths through the crossing point).
	pos := []geom.Point{
		{X: 1, Y: 0}, {X: 3, Y: 0}, // bottom
		{X: 4, Y: 1}, {X: 4, Y: 3}, // right
		{X: 3, Y: 4}, {X: 1, Y: 4}, // top
		{X: 0, Y: 3}, {X: 0, Y: 1}, // left
	}
	net := &noc.Network{DieW: 4, DieH: 4}
	for i, p := range pos {
		net.Nodes = append(net.Nodes, noc.Node{ID: i, Name: "n", Pos: p})
	}
	orders := []geom.LOrder{
		geom.VH, geom.HV, geom.VH, geom.VH, geom.VH, geom.HV, geom.VH, geom.VH,
	}
	d, err := router.NewDesign(net, phys.Default(), []int{0, 1, 2, 3, 4, 5, 6, 7}, orders)
	if err != nil {
		t.Fatal(err)
	}
	s1 := &router.Shortcut{A: 1, B: 4, Partner: 1,
		PathAB: geom.Polyline{pos[1], pos[4]}} // x=3 vertical
	s2 := &router.Shortcut{A: 2, B: 7, Partner: 0,
		PathAB: geom.Polyline{pos[2], pos[7]}} // y=1 horizontal
	d.Shortcuts = []*router.Shortcut{s1, s2}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	sup, err := SupportedSignals(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 4 direct signals; CSE candidates only when they beat the ring.
	direct, cse := 0, 0
	for _, s := range sup {
		if s.ViaCSE {
			cse++
			// CSE paths run through the crossing at (3,1).
			if s.Length <= 0 {
				t.Fatalf("CSE length %v", s.Length)
			}
		} else {
			direct++
			if !s.PassesCrossing {
				t.Fatal("direct signals on merged shortcuts pass the CSE crossing")
			}
		}
	}
	if direct != 4 {
		t.Fatalf("direct signals = %d, want 4", direct)
	}
	if cse%2 != 0 {
		t.Fatalf("CSE signals must come in direction pairs, got %d", cse)
	}
}

func TestDistAlong(t *testing.T) {
	p := geom.Polyline{{X: 0, Y: 0}, {X: 0, Y: 4}, {X: 3, Y: 4}}
	if got := distAlong(p, geom.Point{X: 0, Y: 0}, geom.Point{X: 0, Y: 4}); math.Abs(got-4) > 1e-9 {
		t.Fatalf("distAlong = %v, want 4", got)
	}
	if got := distAlong(p, geom.Point{X: 0, Y: 2}, geom.Point{X: 2, Y: 4}); math.Abs(got-4) > 1e-9 {
		t.Fatalf("distAlong = %v, want 4", got)
	}
	if got := distAlong(p, geom.Point{X: 3, Y: 4}, geom.Point{X: 0, Y: 0}); math.Abs(got-7) > 1e-9 {
		t.Fatalf("distAlong = %v, want 7", got)
	}
}

func TestCrossingPointHelper(t *testing.T) {
	a := geom.Polyline{{X: 0, Y: 1}, {X: 4, Y: 1}}
	b := geom.Polyline{{X: 2, Y: 0}, {X: 2, Y: 2}}
	pt, err := crossingPoint(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Eq(geom.Point{X: 2, Y: 1}) {
		t.Fatalf("crossing at %v", pt)
	}
	// No crossing is an error.
	c := geom.Polyline{{X: 0, Y: 5}, {X: 4, Y: 5}}
	if _, err := crossingPoint(a, c); err == nil {
		t.Fatal("want error for non-crossing paths")
	}
}

func TestNaturalCSEPair(t *testing.T) {
	// Regression: this irregular instance (a large die, so length gains
	// outweigh the extra CSE drop loss) is known to produce a CSE-merged
	// crossing pair with supported swapped signals.
	net := noc.Irregular(10, 30, 30, 3, 8)
	res, err := ring.Construct(net, ring.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := router.NewDesign(net, phys.Default(), res.Tour, res.Orders)
	if err != nil {
		t.Fatal(err)
	}
	if err := Construct(d, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	partnered := 0
	for _, s := range d.Shortcuts {
		if s.Partner != -1 {
			partnered++
		}
	}
	if partnered != 2 {
		t.Fatalf("partnered shortcuts = %d, want 2", partnered)
	}
	sup, err := SupportedSignals(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	cse := 0
	extraDropLen := d.Par.DropDB / d.Par.PropagationDBPerMM
	for _, s := range sup {
		if s.ViaCSE {
			cse++
			// A CSE route must beat the best ring route by more than the
			// length equivalent of its extra drop loss.
			best := math.Min(d.ArcLen(s.Sig.Src, s.Sig.Dst, router.CW),
				d.ArcLen(s.Sig.Src, s.Sig.Dst, router.CCW))
			if s.Length >= best-extraDropLen {
				t.Fatalf("CSE signal %v gain too small (%v vs %v - %v)", s.Sig, s.Length, best, extraDropLen)
			}
		}
	}
	if cse != 4 {
		t.Fatalf("CSE signals = %d, want 4", cse)
	}
}

func TestNoCSEOption(t *testing.T) {
	// With NoCSE, Construct must never produce partners.
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		net := noc.Irregular(12, 14, 14, 1.5, seed)
		res, err := ring.Construct(net, ring.Options{})
		if err != nil {
			continue
		}
		d, err := router.NewDesign(net, phys.Default(), res.Tour, res.Orders)
		if err != nil {
			t.Fatal(err)
		}
		if err := Construct(d, Options{NoCSE: true}); err != nil {
			t.Fatal(err)
		}
		for _, s := range d.Shortcuts {
			if s.Partner != -1 {
				t.Fatalf("seed %d: NoCSE produced partners", seed)
			}
		}
	}
}
