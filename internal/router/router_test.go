package router

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"xring/internal/geom"
	"xring/internal/noc"
	"xring/internal/phys"
)

// square4 builds a 2x2 grid with the non-crossing tour 0,1,3,2.
func square4(t *testing.T) *Design {
	t.Helper()
	net := noc.Grid(2, 2, 2, 1)
	d, err := NewDesign(net, phys.Default(), []int{0, 1, 3, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// grid8 builds the 4x2 floorplan with the boustrophedon tour.
func grid8(t *testing.T) *Design {
	t.Helper()
	net := noc.Floorplan8()
	d, err := NewDesign(net, phys.Default(), []int{0, 1, 2, 3, 7, 6, 5, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// octagon8 builds an 8-node ring whose nodes sit on a square boundary,
// supporting interior shortcuts that cross each other.
func octagon8(t *testing.T) *Design {
	t.Helper()
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
		geom.VH, // 0->1 straight
		geom.HV, // 1->2 via (4,0)
		geom.VH, // 2->3 straight
		geom.VH, // 3->4 via (4,4)
		geom.VH, // 4->5 straight
		geom.HV, // 5->6 via (0,4)
		geom.VH, // 6->7 straight
		geom.VH, // 7->0 via (0,0)
	}
	d, err := NewDesign(net, phys.Default(), []int{0, 1, 2, 3, 4, 5, 6, 7}, orders)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDesignErrors(t *testing.T) {
	net := noc.Grid(2, 2, 2, 1)
	if _, err := NewDesign(net, phys.Default(), []int{0, 1, 2}, nil); err == nil {
		t.Fatal("want error for short tour")
	}
	if _, err := NewDesign(net, phys.Default(), []int{0, 1, 1, 2}, nil); err == nil {
		t.Fatal("want error for duplicate tour entry")
	}
	if _, err := NewDesign(net, phys.Default(), []int{0, 1, 2, 9}, nil); err == nil {
		t.Fatal("want error for out-of-range tour entry")
	}
	if _, err := NewDesign(net, phys.Default(), []int{0, 1, 3, 2}, []geom.LOrder{geom.VH}); err == nil {
		t.Fatal("want error for wrong edge-order count")
	}
}

func TestPerimeterAndArcLen(t *testing.T) {
	d := square4(t)
	if math.Abs(d.Perimeter()-8) > geom.Eps {
		t.Fatalf("perimeter = %v, want 8", d.Perimeter())
	}
	// CW from 0 to 3 covers edges 0->1->3 = 4mm; CCW = 4mm too.
	if l := d.ArcLen(0, 3, CW); math.Abs(l-4) > geom.Eps {
		t.Fatalf("ArcLen(0,3,CW) = %v", l)
	}
	if l := d.ArcLen(0, 1, CCW); math.Abs(l-6) > geom.Eps {
		t.Fatalf("ArcLen(0,1,CCW) = %v, want 6", l)
	}
	if l := d.ArcLen(2, 2, CW); l != 0 {
		t.Fatalf("ArcLen same node = %v", l)
	}
	// CW + CCW spans the full perimeter.
	if s := d.ArcLen(1, 2, CW) + d.ArcLen(1, 2, CCW); math.Abs(s-8) > geom.Eps {
		t.Fatalf("CW+CCW = %v, want perimeter", s)
	}
}

// gapNodes collects ForEachGapNode's walk into a slice.
func gapNodes(d *Design, src, dst int, dir Direction) []int {
	var out []int
	d.ForEachGapNode(src, dst, dir, func(k int) { out = append(out, k) })
	return out
}

func TestGapNodesAndPasses(t *testing.T) {
	d := grid8(t) // tour 0,1,2,3,7,6,5,4
	gaps := gapNodes(d, 1, 7, CW)
	want := []int{2, 3}
	if len(gaps) != 2 || gaps[0] != want[0] || gaps[1] != want[1] {
		t.Fatalf("gap walk 1->7 CW = %v, want %v", gaps, want)
	}
	gapsR := gapNodes(d, 1, 7, CCW)
	wantR := []int{0, 4, 5, 6}
	if len(gapsR) != len(wantR) {
		t.Fatalf("gap walk 1->7 CCW = %v, want %v", gapsR, wantR)
	}
	for i := range wantR {
		if gapsR[i] != wantR[i] {
			t.Fatalf("gap walk 1->7 CCW = %v, want %v", gapsR, wantR)
		}
	}
	if !d.PassesNode(1, 7, 3, CW) {
		t.Fatal("1->7 CW should pass node 3")
	}
	if d.PassesNode(1, 7, 1, CW) || d.PassesNode(1, 7, 7, CW) {
		t.Fatal("arc endpoints are not passed")
	}
	if d.PassesNode(1, 7, 6, CW) {
		t.Fatal("1->7 CW should not pass node 6")
	}
}

func TestCoordInArcAndCrossings(t *testing.T) {
	d := grid8(t) // perimeter 16, nodes every 2mm
	w := &Waveguide{ID: 0, Dir: CW, Opening: -1}
	// A crossing at arc coordinate 3 (between nodes 1 and 2).
	w.Crossings = append(w.Crossings, Crossing{Pos: 3, AtNode: 1, Source: "pdn"})
	if got := d.CrossingsOnArc(w, 0, 3); got != 1 {
		t.Fatalf("CrossingsOnArc(0->3) = %d, want 1", got)
	}
	if got := d.CrossingsOnArc(w, 3, 0); got != 0 {
		t.Fatalf("CrossingsOnArc(3->0 CW wraps) = %d, want 0", got)
	}
	wr := &Waveguide{ID: 1, Dir: CCW, Opening: -1,
		Crossings: []Crossing{{Pos: 3, AtNode: 1, Source: "pdn"}}}
	if got := d.CrossingsOnArc(wr, 3, 0); got != 1 {
		t.Fatalf("CCW CrossingsOnArc(3->0) = %d, want 1", got)
	}
}

func TestBendsOnArc(t *testing.T) {
	d := square4(t)
	// 0->1 horizontal then 1->3 vertical: one joint bend.
	if got := d.BendsOnArc(0, 3, CW); got != 1 {
		t.Fatalf("BendsOnArc(0,3,CW) = %d, want 1", got)
	}
	if got := d.BendsOnArc(0, 1, CW); got != 0 {
		t.Fatalf("BendsOnArc(0,1,CW) = %d, want 0", got)
	}
	// Full horseshoe 0->2 CW: bends at 1 and 3.
	if got := d.BendsOnArc(0, 2, CW); got != 2 {
		t.Fatalf("BendsOnArc(0,2,CW) = %d, want 2", got)
	}
	// CCW single edge 0->2 (edge 3 backwards): no bends.
	if got := d.BendsOnArc(0, 2, CCW); got != 0 {
		t.Fatalf("BendsOnArc(0,2,CCW) = %d, want 0", got)
	}
}

func TestValidateTourGeometryCatchesCrossing(t *testing.T) {
	net := noc.Grid(2, 2, 2, 1)
	// Tour 0,1,2,3 has crossing diagonals on a 2x2 grid.
	d, err := NewDesign(net, phys.Default(), []int{0, 1, 2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "cross") {
		t.Fatalf("Validate = %v, want tour-crossing error", err)
	}
	if err := square4(t).Validate(); err != nil {
		t.Fatalf("valid square tour rejected: %v", err)
	}
}

func TestChannelsCollide(t *testing.T) {
	d := grid8(t)
	c := func(src, dst, wl int) Channel {
		return Channel{Sig: noc.Signal{Src: src, Dst: dst}, WL: wl}
	}
	// Different wavelengths never collide.
	if d.ChannelsCollide(CW, c(0, 3, 0), c(1, 7, 1)) {
		t.Fatal("different λ should not collide")
	}
	// Overlapping arcs on the same wavelength collide.
	if !d.ChannelsCollide(CW, c(0, 3, 0), c(1, 7, 0)) {
		t.Fatal("overlapping arcs on same λ must collide")
	}
	// Head-to-tail reuse is legal.
	if d.ChannelsCollide(CW, c(0, 3, 0), c(3, 6, 0)) {
		t.Fatal("head-to-tail reuse must not collide")
	}
	// Same destination, same wavelength collides.
	if !d.ChannelsCollide(CW, c(0, 3, 0), c(2, 3, 0)) {
		t.Fatal("same destination on same λ must collide")
	}
	// Disjoint arcs on same λ are fine.
	if d.ChannelsCollide(CW, c(0, 2, 0), c(3, 6, 0)) {
		t.Fatal("disjoint arcs must not collide")
	}
}

func TestValidateWaveguides(t *testing.T) {
	d := grid8(t)
	sig := noc.Signal{Src: 0, Dst: 3}
	d.Waveguides = []*Waveguide{{ID: 0, Dir: CW, Opening: -1,
		Channels: []Channel{{Sig: sig, WL: 0}}}}
	d.Routes[sig] = &Route{Sig: sig, Kind: OnRing, WG: 0, WL: 0}
	if err := d.Validate(); err != nil {
		t.Fatalf("valid design rejected: %v", err)
	}

	// Channel passing the opening.
	d.Waveguides[0].Opening = 1
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "opening") {
		t.Fatalf("want opening violation, got %v", err)
	}
	d.Waveguides[0].Opening = 6 // not on the 0->3 CW arc
	if err := d.Validate(); err != nil {
		t.Fatalf("opening off-arc rejected: %v", err)
	}

	// Wavelength budget.
	d.MaxWL = 1
	d.Waveguides[0].Channels[0].WL = 1
	d.Routes[sig].WL = 1
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "#wl") {
		t.Fatalf("want #wl violation, got %v", err)
	}
	d.MaxWL = 0
	d.Waveguides[0].Channels[0].WL = 0
	d.Routes[sig].WL = 0

	// Colliding channel.
	sig2 := noc.Signal{Src: 1, Dst: 7}
	d.Waveguides[0].Channels = append(d.Waveguides[0].Channels, Channel{Sig: sig2, WL: 0})
	d.Routes[sig2] = &Route{Sig: sig2, Kind: OnRing, WG: 0, WL: 0}
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "collision") {
		t.Fatalf("want collision violation, got %v", err)
	}

	// A channel naming a node outside the network is an error, not a
	// panic, even alone on its waveguide.
	d.Waveguides[0].Channels = []Channel{{Sig: noc.Signal{Src: 0, Dst: 9}}}
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("want out-of-range channel error, got %v", err)
	}
}

func TestValidateShortcuts(t *testing.T) {
	d := octagon8(t)
	if err := d.Validate(); err != nil {
		t.Fatalf("octagon ring invalid: %v", err)
	}
	// Feasible crossing pair: 1<->3 (VH) and 2<->7 (straight).
	s1 := &Shortcut{A: 1, B: 3, Partner: 1,
		PathAB: geom.LPath(d.Net.Nodes[1].Pos, d.Net.Nodes[3].Pos, geom.VH)}
	s2 := &Shortcut{A: 2, B: 7, Partner: 0,
		PathAB: geom.Polyline{d.Net.Nodes[2].Pos, d.Net.Nodes[7].Pos}}
	d.Shortcuts = []*Shortcut{s1, s2}
	if err := d.Validate(); err != nil {
		t.Fatalf("crossing shortcut pair rejected: %v", err)
	}

	// Asymmetric partner.
	s2.Partner = -1
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "partner") {
		t.Fatalf("want partner error, got %v", err)
	}
	s2.Partner = 0

	// Crossing shortcuts without partnership.
	s1.Partner, s2.Partner = -1, -1
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "CSE") {
		t.Fatalf("want CSE error, got %v", err)
	}
	s1.Partner, s2.Partner = 1, 0

	// Shortcut crossing the ring: 0 -> 4 via HV runs along the bottom.
	bad := &Shortcut{A: 0, B: 4, Partner: -1,
		PathAB: geom.LPath(d.Net.Nodes[0].Pos, d.Net.Nodes[4].Pos, geom.HV)}
	d.Shortcuts = []*Shortcut{bad}
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "ring edge") {
		t.Fatalf("want ring-crossing error, got %v", err)
	}

	// Two shortcuts at one node.
	a := &Shortcut{A: 1, B: 3, Partner: -1,
		PathAB: geom.LPath(d.Net.Nodes[1].Pos, d.Net.Nodes[3].Pos, geom.VH)}
	b := &Shortcut{A: 1, B: 3, Partner: -1,
		PathAB: geom.LPath(d.Net.Nodes[1].Pos, d.Net.Nodes[3].Pos, geom.VH)}
	d.Shortcuts = []*Shortcut{a, b}
	err := d.Validate()
	if err == nil {
		t.Fatal("want violation for duplicate shortcuts")
	}
}

func TestValidateShortcutChannels(t *testing.T) {
	d := octagon8(t)
	s1 := &Shortcut{A: 1, B: 3, Partner: 1,
		PathAB: geom.LPath(d.Net.Nodes[1].Pos, d.Net.Nodes[3].Pos, geom.VH)}
	s2 := &Shortcut{A: 2, B: 7, Partner: 0,
		PathAB: geom.Polyline{d.Net.Nodes[2].Pos, d.Net.Nodes[7].Pos}}
	d.Shortcuts = []*Shortcut{s1, s2}

	sigDirect := noc.Signal{Src: 1, Dst: 3}
	sigCSE := noc.Signal{Src: 1, Dst: 7}
	s1.Channels = []ShortcutChannel{
		{Sig: sigDirect, WL: 0},
		{Sig: sigCSE, WL: 2, ViaCSE: true},
	}
	d.Routes[sigDirect] = &Route{Sig: sigDirect, Kind: OnShortcut, SC: 0, WL: 0}
	d.Routes[sigCSE] = &Route{Sig: sigCSE, Kind: OnShortcut, SC: 0, WL: 2, ViaCSE: true}
	if err := d.Validate(); err != nil {
		t.Fatalf("valid shortcut channels rejected: %v", err)
	}

	// CSE channel endpoints must join the partner.
	badCSE := noc.Signal{Src: 1, Dst: 4}
	s1.Channels = append(s1.Channels, ShortcutChannel{Sig: badCSE, WL: 3, ViaCSE: true})
	d.Routes[badCSE] = &Route{Sig: badCSE, Kind: OnShortcut, SC: 0, WL: 3, ViaCSE: true}
	if err := d.Validate(); err == nil {
		t.Fatal("want error for CSE channel to a non-partner node")
	}
	s1.Channels = s1.Channels[:2]
	delete(d.Routes, badCSE)

	// Duplicate (entry node, λ) on one shortcut.
	s1.Channels = append(s1.Channels, ShortcutChannel{Sig: noc.Signal{Src: 1, Dst: 2}, WL: 0, ViaCSE: true})
	d.Routes[noc.Signal{Src: 1, Dst: 2}] = &Route{Sig: noc.Signal{Src: 1, Dst: 2}, Kind: OnShortcut, SC: 0, WL: 0, ViaCSE: true}
	if err := d.Validate(); err == nil {
		t.Fatal("want error for duplicate entry wavelength")
	}
}

func TestValidateRoutes(t *testing.T) {
	d := grid8(t)
	sig := noc.Signal{Src: 0, Dst: 3}
	d.Waveguides = []*Waveguide{{ID: 0, Dir: CW, Opening: -1,
		Channels: []Channel{{Sig: sig, WL: 0}}}}
	// Missing route: channel count mismatch.
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "routes") {
		t.Fatalf("want route-count error, got %v", err)
	}
	// Route pointing at the wrong waveguide.
	d.Routes[sig] = &Route{Sig: sig, Kind: OnRing, WG: 0, WL: 5}
	if err := d.Validate(); err == nil {
		t.Fatal("want error for wavelength mismatch in route")
	}
	d.Routes[sig] = &Route{Sig: sig, Kind: OnRing, WG: 0, WL: 0}
	if err := d.Validate(); err != nil {
		t.Fatalf("valid routes rejected: %v", err)
	}
}

func TestDesignAccessors(t *testing.T) {
	d := grid8(t)
	if d.N() != 8 {
		t.Fatal("N")
	}
	if d.TourPos(7) != 4 {
		t.Fatalf("TourPos(7) = %d", d.TourPos(7))
	}
	if math.Abs(d.NodeCoord(1)-2) > geom.Eps {
		t.Fatalf("NodeCoord(1) = %v", d.NodeCoord(1))
	}
	pl := d.RingPolyline()
	if math.Abs(pl.Length()-d.Perimeter()) > geom.Eps {
		t.Fatalf("RingPolyline length %v != perimeter %v", pl.Length(), d.Perimeter())
	}
	sig := noc.Signal{Src: 0, Dst: 3}
	d.Waveguides = []*Waveguide{
		{ID: 0, Dir: CW, Opening: -1, Channels: []Channel{{Sig: sig, WL: 2}}},
		{ID: 1, Dir: CCW, Opening: -1},
	}
	if got := len(d.WaveguidesByDir(CW)); got != 1 {
		t.Fatalf("WaveguidesByDir(CW) = %d", got)
	}
	if got := d.WavelengthsUsed(); got != 1 {
		t.Fatalf("WavelengthsUsed = %d", got)
	}
	senders := d.SendersOn(d.Waveguides[0])
	if len(senders) != 1 || senders[0] != 0 {
		t.Fatalf("SendersOn = %v", senders)
	}
	if i, s := d.ShortcutFor(1, 2); i != -1 || s != nil {
		t.Fatal("ShortcutFor on empty design")
	}
	if CW.String() != "cw" || CCW.String() != "ccw" {
		t.Fatal("Direction.String")
	}
}

func TestRadialScaleMatchesGeometricOffset(t *testing.T) {
	// RadialScale assumes pair k's perimeter is the base plus 8·k·s —
	// exact for simple rectilinear polygons (convex − reflex corners
	// = 4). Verify against the actual offset geometry.
	for _, build := range []func(t *testing.T) *Design{grid8, octagon8} {
		d := build(t)
		ring := d.RingPolyline()
		cycle := geom.CompactRectilinear(ring[:len(ring)-1])
		s := d.Par.RingSpacingMM(d.N())
		for pair := 1; pair <= 2; pair++ {
			off, err := geom.OffsetRectilinear(cycle, s*float64(pair))
			if err != nil {
				t.Fatalf("offset pair %d: %v", pair, err)
			}
			w := &Waveguide{Radial: 2 * pair}
			got := d.Perimeter() * d.RadialScale(w)
			want := geom.PolygonPerimeter(off)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("pair %d: RadialScale perimeter %v != geometric %v", pair, got, want)
			}
		}
	}
}

func TestTotalCrossings(t *testing.T) {
	d := octagon8(t)
	d.Waveguides = []*Waveguide{{ID: 0, Dir: CW, Opening: -1,
		Crossings: []Crossing{{Pos: 1}, {Pos: 2}}}}
	s1 := &Shortcut{A: 1, B: 3, Partner: 1,
		PathAB: geom.LPath(d.Net.Nodes[1].Pos, d.Net.Nodes[3].Pos, geom.VH)}
	s2 := &Shortcut{A: 2, B: 7, Partner: 0,
		PathAB: geom.Polyline{d.Net.Nodes[2].Pos, d.Net.Nodes[7].Pos}}
	d.Shortcuts = []*Shortcut{s1, s2}
	if got := d.TotalCrossings(); got != 3 {
		t.Fatalf("TotalCrossings = %d, want 3 (2 ring + 1 CSE)", got)
	}
}

func TestArcArithmeticProperties(t *testing.T) {
	// Property suite over random node pairs on a random irregular tour.
	net := noc.Irregular(11, 14, 14, 1.5, 21)
	tour := make([]int, 11)
	for i := range tour {
		tour[i] = i
	}
	// Any permutation works for arc arithmetic; use identity order.
	d, err := NewDesign(net, phys.Default(), tour, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8) bool {
		src := int(a) % 11
		dst := int(b) % 11
		if src == dst {
			return d.ArcLen(src, dst, CW) == 0 && d.ArcLen(src, dst, CCW) == 0
		}
		cw := d.ArcLen(src, dst, CW)
		ccw := d.ArcLen(src, dst, CCW)
		// Complementary directions cover the perimeter.
		if math.Abs(cw+ccw-d.Perimeter()) > 1e-9 {
			return false
		}
		// Reversing endpoints swaps directions.
		if math.Abs(cw-d.ArcLen(dst, src, CCW)) > 1e-9 {
			return false
		}
		// Gap node counts match index distance - 1, and both directions
		// partition the other nodes.
		g1 := len(gapNodes(d, src, dst, CW))
		g2 := len(gapNodes(d, src, dst, CCW))
		if g1+g2 != 11-2 {
			return false
		}
		// A node is passed in exactly one direction.
		for k := 0; k < 11; k++ {
			if k == src || k == dst {
				continue
			}
			p1 := d.PassesNode(src, dst, k, CW)
			p2 := d.PassesNode(src, dst, k, CCW)
			if p1 == p2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCoordInArcProperties(t *testing.T) {
	d := grid8(t)
	f := func(a, b uint8, frac float64) bool {
		src := int(a) % 8
		dst := int(b) % 8
		if src == dst {
			return true
		}
		if math.IsNaN(frac) || math.IsInf(frac, 0) {
			frac = 0.5
		}
		frac = math.Abs(math.Mod(frac, 1))
		from, to := d.ArcInterval(src, dst, CW)
		span := to - from
		if span < 0 {
			span += d.Perimeter()
		}
		// A point strictly inside the span is in the arc; the endpoints
		// are not.
		inside := math.Mod(from+span*0.5, d.Perimeter())
		if span > 1e-6 && !d.CoordInArc(inside, from, to) {
			return false
		}
		if d.CoordInArc(from, from, to) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// refGapNodes is the reference gap walk the allocation-free kernels
// replaced: it materialises the nodes strictly between src and dst
// along the travel direction.
func refGapNodes(d *Design, src, dst int, dir Direction) []int {
	n := d.N()
	si, di := d.tourIndex[src], d.tourIndex[dst]
	var out []int
	step := 1
	if dir == CCW {
		step = n - 1 // -1 mod n
	}
	for i := (si + step) % n; i != di; i = (i + step) % n {
		out = append(out, d.Tour[i])
	}
	return out
}

// refPassesNode is the reference PassesNode: a scan of refGapNodes.
func refPassesNode(d *Design, src, dst, k int, dir Direction) bool {
	if k == src || k == dst {
		return false
	}
	for _, g := range refGapNodes(d, src, dst, dir) {
		if g == k {
			return true
		}
	}
	return false
}

// refBendsOnArc is the reference BendsOnArc: it builds every covered
// edge's polyline and compares the segments meeting at each joint.
func refBendsOnArc(d *Design, src, dst int, dir Direction) int {
	n := d.N()
	si, di := d.tourIndex[src], d.tourIndex[dst]
	step := 1
	if dir == CCW {
		step = n - 1
	}
	bends := 0
	var prev geom.Polyline
	for i := si; i != di; i = (i + step) % n {
		ei := i
		if dir == CCW {
			ei = (i + n - 1) % n
		}
		p := d.EdgePath(ei)
		bends += p.Bends()
		if prev != nil {
			a := prev.Segments()
			b := p.Segments()
			if len(a) > 0 && len(b) > 0 {
				lastH := a[len(a)-1].Horizontal()
				firstH := b[0].Horizontal()
				if dir == CCW {
					lastH = a[0].Horizontal()
					firstH = b[len(b)-1].Horizontal()
				}
				if lastH != firstH {
					bends++
				}
			}
		}
		prev = p
	}
	return bends
}

// kernelDesign builds a design on a seeded irregular floorplan with a
// random tour and random L-orders, then bends the geometry so the tour
// holds straight edges (exactly and within geom.Eps) and zero-length
// edges between coincident nodes. The arc kernels never look at
// crossings, so the tour need not be a valid ring.
func kernelDesign(t *testing.T, seed int64) *Design {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 8 + rng.Intn(25) // 8..32 nodes
	side := 10 + float64(n)/2
	net := noc.Irregular(n, side, side, 1.0, seed)
	tour := rng.Perm(n)
	orders := make([]geom.LOrder, n)
	for i := range orders {
		orders[i] = geom.LOrder(rng.Intn(2))
	}
	for i := 0; i < n; i++ {
		a := &net.Nodes[tour[i]].Pos
		b := &net.Nodes[tour[(i+1)%n]].Pos
		switch rng.Intn(6) {
		case 0:
			b.X = a.X // vertical edge
		case 1:
			b.Y = a.Y // horizontal edge
		case 2:
			b.X = a.X + geom.Eps/2 // vertical within Eps
		case 3:
			if i+1 < n {
				*b = *a // zero-length edge
			}
		}
	}
	d, err := NewDesign(net, phys.Default(), tour, orders)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestArcKernelsMatchReference compares the O(1) PassesNode, the
// allocation-free gap walk and the LShape-based BendsOnArc with their
// polyline/slice references on every (src, dst, k) triple, in both
// directions, of seeded irregular floorplans of 8 to 32 nodes.
func TestArcKernelsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		d := kernelDesign(t, seed)
		n := d.N()
		for _, dir := range []Direction{CW, CCW} {
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					ref := refGapNodes(d, src, dst, dir)
					got := gapNodes(d, src, dst, dir)
					if len(got) != len(ref) {
						t.Fatalf("seed %d: gap walk %d->%d %v = %v, want %v", seed, src, dst, dir, got, ref)
					}
					for i := range ref {
						if got[i] != ref[i] {
							t.Fatalf("seed %d: gap walk %d->%d %v = %v, want %v", seed, src, dst, dir, got, ref)
						}
					}
					if got, want := d.BendsOnArc(src, dst, dir), refBendsOnArc(d, src, dst, dir); got != want {
						t.Fatalf("seed %d: BendsOnArc(%d,%d,%v) = %d, want %d", seed, src, dst, dir, got, want)
					}
					for k := -1; k <= n; k++ {
						if got, want := d.PassesNode(src, dst, k, dir), refPassesNode(d, src, dst, k, dir); got != want {
							t.Fatalf("seed %d: PassesNode(%d,%d,%d,%v) = %v, want %v", seed, src, dst, k, dir, got, want)
						}
					}
				}
			}
		}
	}
}

// TestArcKernelsAllocateNothing guards the mapping and loss hot paths:
// the arc predicates and the gap walk must not touch the heap.
func TestArcKernelsAllocateNothing(t *testing.T) {
	d := kernelDesign(t, 3)
	n := d.N()
	sink := 0
	cases := map[string]func(){
		"PassesNode": func() {
			if d.PassesNode(0, n/2, n/4, CCW) {
				sink++
			}
		},
		"BendsOnArc": func() { sink += d.BendsOnArc(1, n-1, CW) + d.BendsOnArc(1, n-1, CCW) },
		"ForEachGapNode": func() {
			d.ForEachGapNode(0, n-1, CW, func(k int) { sink += k })
		},
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, allocs)
		}
	}
}
