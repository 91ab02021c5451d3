package pdn

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"xring/internal/mapping"
	"xring/internal/noc"
	"xring/internal/phys"
	"xring/internal/ring"
	"xring/internal/router"
	"xring/internal/shortcut"
)

func synthDesign(t *testing.T, net *noc.Network, openings bool) *router.Design {
	t.Helper()
	res, err := ring.Construct(net, ring.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := router.NewDesign(net, phys.Default(), res.Tour, res.Orders)
	if err != nil {
		t.Fatal(err)
	}
	if err := shortcut.Construct(d, shortcut.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := mapping.Run(d, mapping.Options{MaxWL: net.N(), NoOpenings: !openings, AlignOpenings: true}); err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuildTreeGrid8(t *testing.T) {
	d := synthDesign(t, noc.Floorplan8(), true)
	p, err := BuildTree(d)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != Tree || p.Kind.String() != "tree" {
		t.Fatal("wrong kind")
	}
	if p.CrossingsAdded != 0 {
		t.Fatalf("tree PDN added %d crossings, want 0", p.CrossingsAdded)
	}
	// No waveguide may have gained crossings.
	for _, w := range d.Waveguides {
		if len(w.Crossings) != 0 {
			t.Fatalf("tree PDN must not cross ring waveguides (wg %d has %d)", w.ID, len(w.Crossings))
		}
	}
	// Every ring sender has a feed.
	for _, w := range d.Waveguides {
		for _, s := range d.SendersOn(w) {
			key := FeedKey{Index: w.ID, Node: s}
			f, ok := p.Feeds[key]
			if !ok {
				t.Fatalf("no feed for sender %d on wg %d", s, w.ID)
			}
			if f.Crossings != 0 {
				t.Fatalf("tree feed has crossings")
			}
			if f.Splitters < 1 && len(d.SendersOn(w)) > 1 {
				t.Fatalf("feed %v has no splitters", key)
			}
		}
	}
	// Shortcut senders are powered too.
	for si, s := range d.Shortcuts {
		if len(s.Channels) == 0 {
			continue
		}
		if _, ok := p.Feeds[FeedKey{OnShortcut: true, Index: si, Node: s.A}]; !ok {
			t.Fatalf("shortcut %d sender %d unpowered", si, s.A)
		}
	}
	if p.WireLength <= 0 {
		t.Fatal("wire length must be positive")
	}
}

func TestBuildTreeRequiresOpenings(t *testing.T) {
	d := synthDesign(t, noc.Floorplan8(), false)
	if _, err := BuildTree(d); err == nil {
		t.Fatal("want error when waveguides have no openings")
	}
}

func TestBuildCombAddsCrossings(t *testing.T) {
	d := synthDesign(t, noc.Floorplan8(), false)
	if len(d.Waveguides) < 2 {
		t.Skip("need at least 2 waveguides for crossings")
	}
	p, err := BuildComb(d)
	if err != nil {
		t.Fatal(err)
	}
	if p.CrossingsAdded == 0 {
		t.Fatal("comb PDN should cross ring waveguides")
	}
	total := 0
	for _, w := range d.Waveguides {
		total += len(w.Crossings)
	}
	if total != p.CrossingsAdded {
		t.Fatalf("registered %d crossings but reported %d", total, p.CrossingsAdded)
	}
	// Innermost waveguide senders cross the most rings; outermost cross none.
	maxRadial := 0
	for _, w := range d.Waveguides {
		if w.Radial > maxRadial {
			maxRadial = w.Radial
		}
	}
	for _, w := range d.Waveguides {
		for _, s := range d.SendersOn(w) {
			f := p.Feeds[FeedKey{Index: w.ID, Node: s}]
			if f == nil {
				t.Fatalf("missing feed for wg %d node %d", w.ID, s)
			}
			if want := maxRadial - w.Radial; f.Crossings != want {
				t.Fatalf("wg %d (radial %d) feed crossings = %d, want %d",
					w.ID, w.Radial, f.Crossings, want)
			}
		}
	}
}

func TestSenderLossMonotoneInSplitters(t *testing.T) {
	par := phys.Default()
	p := &Plan{Kind: Tree, Feeds: map[FeedKey]*Feed{}}
	k1 := FeedKey{Index: 0, Node: 0}
	k2 := FeedKey{Index: 0, Node: 1}
	p.Feeds[k1] = &Feed{Key: k1, Splitters: 1, PathLen: 2}
	p.Feeds[k2] = &Feed{Key: k2, Splitters: 3, PathLen: 2}
	l1, err := p.SenderLossDB(par, k1)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := p.SenderLossDB(par, k2)
	if err != nil {
		t.Fatal(err)
	}
	if l2 <= l1 {
		t.Fatalf("more splitters must cost more: %v vs %v", l1, l2)
	}
	// Two extra stages cost 2*(split+excess).
	want := 2 * (par.SplitterSplitDB + par.SplitterExcessDB)
	if math.Abs((l2-l1)-want) > 1e-9 {
		t.Fatalf("delta = %v, want %v", l2-l1, want)
	}
	if _, err := p.SenderLossDB(par, FeedKey{Index: 9, Node: 9}); err == nil {
		t.Fatal("want error for unknown feed")
	}
}

// refBuildSplitterTree is the splitter-tree builder as it stood before
// the range-based one: a map of coordinates, a sort over map iteration
// order, and a leaf list copied into every internal node. The
// production builder must reproduce it exactly on tie-free coordinates.
func refBuildSplitterTree(coords map[int]float64) (map[int]*Feed, float64) {
	type tnode struct {
		pos    float64
		leaves []int
	}
	feeds := make(map[int]*Feed, len(coords))
	var level []tnode
	nodes := make([]int, 0, len(coords))
	for n := range coords {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return coords[nodes[i]] < coords[nodes[j]] })
	for _, n := range nodes {
		feeds[n] = &Feed{}
		level = append(level, tnode{pos: coords[n], leaves: []int{n}})
	}
	wire := 0.0
	for len(level) > 1 {
		var next []tnode
		for i := 0; i+1 < len(level); i += 2 {
			a, b := level[i], level[i+1]
			span := math.Abs(a.pos - b.pos)
			mid := (a.pos + b.pos) / 2
			wire += span
			for _, leaf := range a.leaves {
				feeds[leaf].Splitters++
				feeds[leaf].PathLen += math.Abs(a.pos - mid)
			}
			for _, leaf := range b.leaves {
				feeds[leaf].Splitters++
				feeds[leaf].PathLen += math.Abs(b.pos - mid)
			}
			next = append(next, tnode{pos: mid, leaves: append(append([]int{}, a.leaves...), b.leaves...)})
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	top := level[0]
	trunk := top.pos
	wire += trunk
	for _, leaf := range top.leaves {
		feeds[leaf].PathLen += trunk
	}
	return feeds, wire
}

// sortedLeaves orders a coordinate map the way corridorCoords does.
func sortedLeaves(coords map[int]float64) []leaf {
	leaves := make([]leaf, 0, len(coords))
	for n, x := range coords {
		leaves = append(leaves, leaf{node: n, pos: x})
	}
	sort.Slice(leaves, func(i, j int) bool {
		if leaves[i].pos != leaves[j].pos {
			return leaves[i].pos < leaves[j].pos
		}
		return leaves[i].node < leaves[j].node
	})
	return leaves
}

// feedOf returns the feed built for node.
func feedOf(t *testing.T, leaves []leaf, feeds []Feed, node int) Feed {
	t.Helper()
	for i, lf := range leaves {
		if lf.node == node {
			return feeds[i]
		}
	}
	t.Fatalf("no leaf for node %d", node)
	return Feed{}
}

func TestBuildSplitterTreeBalanced(t *testing.T) {
	// Four equally spaced senders: two levels, symmetric paths.
	leaves := sortedLeaves(map[int]float64{10: 0, 11: 2, 12: 4, 13: 6})
	feeds, wire := buildSplitterTree(leaves)
	for i, f := range feeds {
		if f.Splitters != 2 {
			t.Fatalf("sender %d has %d splitters, want 2", leaves[i].node, f.Splitters)
		}
	}
	// Level 1 wires: |0-2| + |4-6| = 4; level 2: |1-5| = 4; trunk to
	// coordinate 0: 3. Total 11.
	if math.Abs(wire-11) > 1e-9 {
		t.Fatalf("wire = %v, want 11", wire)
	}
	// Leaf 10: |0-1| + |1-3| + 3 = 6.
	if got := feedOf(t, leaves, feeds, 10).PathLen; math.Abs(got-6) > 1e-9 {
		t.Fatalf("leaf 10 path = %v, want 6", got)
	}
}

func TestBuildSplitterTreeOdd(t *testing.T) {
	// Three senders: the straggler is promoted and gets fewer splitters.
	leaves := sortedLeaves(map[int]float64{0: 0, 1: 2, 2: 9})
	feeds, _ := buildSplitterTree(leaves)
	f0, f1, f2 := feedOf(t, leaves, feeds, 0), feedOf(t, leaves, feeds, 1), feedOf(t, leaves, feeds, 2)
	if f0.Splitters != 2 || f1.Splitters != 2 {
		t.Fatalf("paired leaves need 2 splitters: %+v %+v", f0, f1)
	}
	if f2.Splitters != 1 {
		t.Fatalf("promoted leaf needs 1 splitter, got %d", f2.Splitters)
	}
}

func TestBuildSplitterTreeSingle(t *testing.T) {
	leaves := sortedLeaves(map[int]float64{5: 7})
	feeds, wire := buildSplitterTree(leaves)
	if feeds[0].Splitters != 0 {
		t.Fatalf("single sender needs no splitters")
	}
	if math.Abs(wire-7) > 1e-9 || math.Abs(feeds[0].PathLen-7) > 1e-9 {
		t.Fatalf("trunk only: wire=%v path=%v, want 7", wire, feeds[0].PathLen)
	}
}

// TestBuildSplitterTreeMatchesReference replays random corridors of
// 1-64 leaves through the range-based builder and the map-based
// reference, demanding bit-identical splitter counts, path lengths and
// wire length.
func TestBuildSplitterTreeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(64)
		coords := make(map[int]float64, n)
		for len(coords) < n {
			coords[rng.Intn(1000)] = rng.Float64() * 200
		}
		leaves := sortedLeaves(coords)
		feeds, wire := buildSplitterTree(leaves)
		refFeeds, refWire := refBuildSplitterTree(coords)
		if math.Float64bits(wire) != math.Float64bits(refWire) {
			t.Fatalf("trial %d (%d leaves): wire %v, reference %v", trial, n, wire, refWire)
		}
		if len(feeds) != len(refFeeds) {
			t.Fatalf("trial %d: %d feeds, reference %d", trial, len(feeds), len(refFeeds))
		}
		for i, lf := range leaves {
			got, want := feeds[i], refFeeds[lf.node]
			if got.Splitters != want.Splitters || math.Float64bits(got.PathLen) != math.Float64bits(want.PathLen) {
				t.Fatalf("trial %d leaf %d: %+v, reference %+v", trial, lf.node, got, *want)
			}
		}
	}
}

// leafPos returns node's corridor coordinate.
func leafPos(t *testing.T, leaves []leaf, node int) float64 {
	t.Helper()
	for _, lf := range leaves {
		if lf.node == node {
			return lf.pos
		}
	}
	t.Fatalf("no leaf for node %d", node)
	return 0
}

func TestCorridorCoordsDirections(t *testing.T) {
	net := noc.Floorplan8()
	d, err := router.NewDesign(net, phys.Default(), []int{0, 1, 2, 3, 7, 6, 5, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wCW := &router.Waveguide{ID: 0, Dir: router.CW, Opening: 0}
	coords := corridorCoords(d, wCW, []int{1, 3})
	// CW from node 0: node 1 at 2mm, node 3 at 6mm.
	if math.Abs(leafPos(t, coords, 1)-2) > 1e-9 || math.Abs(leafPos(t, coords, 3)-6) > 1e-9 {
		t.Fatalf("CW coords = %v", coords)
	}
	wCCW := &router.Waveguide{ID: 1, Dir: router.CCW, Opening: 0}
	coordsR := corridorCoords(d, wCCW, []int{1, 3})
	// CCW from node 0: node 1 is 14mm away, node 3 is 10mm.
	if math.Abs(leafPos(t, coordsR, 1)-14) > 1e-9 || math.Abs(leafPos(t, coordsR, 3)-10) > 1e-9 {
		t.Fatalf("CCW coords = %v", coordsR)
	}
	// Sorted ascending along the corridor.
	if coordsR[0].node != 3 || coordsR[1].node != 1 {
		t.Fatalf("CCW corridor order = %v, want node 3 then node 1", coordsR)
	}
}

// TestCorridorCoordsTieOrder places two senders at one corridor
// coordinate: they must sort by node ID whatever order they arrive in,
// so the tree plan built over them is deterministic.
func TestCorridorCoordsTieOrder(t *testing.T) {
	net := noc.Floorplan8()
	// Move node 5 onto node 1's position: both sit at one arc coordinate.
	net.Nodes[5].Pos = net.Nodes[1].Pos
	d, err := router.NewDesign(net, phys.Default(), []int{0, 1, 5, 2, 3, 7, 6, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.NodeCoord(1) != d.NodeCoord(5) {
		t.Fatalf("fixture: nodes 1 and 5 at %v and %v", d.NodeCoord(1), d.NodeCoord(5))
	}
	w := &router.Waveguide{ID: 0, Dir: router.CW, Opening: 0}
	want := []leaf{{node: 1, pos: d.NodeCoord(1)}, {node: 5, pos: d.NodeCoord(5)}, {node: 3, pos: d.NodeCoord(3)}}
	for _, senders := range [][]int{{1, 5, 3}, {5, 1, 3}, {3, 5, 1}} {
		got := corridorCoords(d, w, senders)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("senders %v: corridor %v, want %v", senders, got, want)
		}
	}
	// The odd leaf (node 3) is promoted; the tied pair splits once more.
	feeds, _ := buildSplitterTree(want)
	if feeds[0].Splitters != 2 || feeds[1].Splitters != 2 || feeds[2].Splitters != 1 {
		t.Fatalf("tied corridor feeds = %+v", feeds)
	}
}

func TestTreePDN16And32(t *testing.T) {
	for _, n := range []int{16, 32} {
		net, err := noc.FloorplanFor(n)
		if err != nil {
			t.Fatal(err)
		}
		d := synthDesign(t, net, true)
		p, err := BuildTree(d)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if p.CrossingsAdded != 0 {
			t.Fatalf("n=%d: tree PDN crossings %d", n, p.CrossingsAdded)
		}
		// Splitter depth per feed is max(own-tree depth, balanced-tree
		// ideal over all modulators); bound it by the larger of the two
		// plus one level of odd-promotion slack.
		mods := 0
		for _, w := range d.Waveguides {
			mods += len(w.Channels)
		}
		for _, s := range d.Shortcuts {
			mods += len(s.Channels)
		}
		ideal := int(math.Ceil(math.Log2(float64(mods))))
		for _, w := range d.Waveguides {
			senders := d.SendersOn(w)
			own := int(math.Ceil(math.Log2(float64(len(senders)+1)))) + 1
			bound := own
			if ideal > bound {
				bound = ideal
			}
			for _, s := range senders {
				f := p.Feeds[FeedKey{Index: w.ID, Node: s}]
				if f.Splitters > bound {
					t.Fatalf("n=%d wg %d sender %d: %d splitters > bound %d",
						n, w.ID, s, f.Splitters, bound)
				}
				if f.Splitters < ideal {
					t.Fatalf("n=%d wg %d sender %d: %d splitters below balanced ideal %d",
						n, w.ID, s, f.Splitters, ideal)
				}
			}
		}
	}
}
