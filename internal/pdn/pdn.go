// Package pdn implements Step 4 of the XRing flow (Sec. III-D): the
// power distribution network that feeds every sender (modulator) with
// laser light, plus the baseline "comb" PDN used by the ORNoC/ORing
// comparisons.
//
// XRing's PDN is a complete binary splitter tree per ring waveguide,
// routed in the spacing corridor between paired ring waveguides
// (corridor width A1 + ceil(log2 N)*A2) and entered through the ring
// openings, so it crosses no ring waveguide. Following Fig. 9, the
// sender at the opening node is paired first with its closest
// neighbouring sender in the signal direction; remaining senders are
// paired sequentially, a splitter sits at the midpoint of each
// connecting waveguide, and levels are repeated until a single top
// splitter remains.
//
// The comb PDN models what ring routers did before XRing: a trunk
// outside the outermost ring with per-sender feeds that must cross every
// ring waveguide radially outward of the sender's waveguide. Those
// crossings cost insertion loss on both the feed and the crossed ring,
// and they inject broadband laser leakage noise into the crossed rings
// (the effect that dominates the paper's Table II/III crosstalk
// results). BuildComb registers each crossing on the crossed waveguide
// so the loss and crosstalk engines see them.
package pdn

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"xring/internal/obs"
	"xring/internal/phys"
	"xring/internal/router"
)

// Step-4 telemetry: PDN builds by kind, ring crossings created (always
// zero for the tree PDN) and the wire-length distribution per plan.
var (
	mTreeBuilds   = obs.NewCounter("pdn.builds.tree")
	mCombBuilds   = obs.NewCounter("pdn.builds.comb")
	mCrossings    = obs.NewCounter("pdn.crossings_added")
	mWireLengthMM = obs.NewHistogram("pdn.wire_length_mm", "mm",
		[]float64{10, 25, 50, 100, 200, 400, 800})
)

// record posts a finished plan's telemetry.
func (p *Plan) record() {
	if p.Kind == Tree {
		mTreeBuilds.Inc()
	} else {
		mCombBuilds.Inc()
	}
	mCrossings.Add(int64(p.CrossingsAdded))
	mWireLengthMM.Observe(p.WireLength)
}

// Kind distinguishes the two PDN designs.
type Kind int

const (
	// Tree is XRing's crossing-free binary-tree PDN.
	Tree Kind = iota
	// Comb is the baseline PDN whose feeds cross ring waveguides.
	Comb
)

func (k Kind) String() string {
	if k == Tree {
		return "tree"
	}
	return "comb"
}

// FeedKey identifies one sender: a (waveguide, node) pair for ring
// senders, or a (shortcut, node) pair for shortcut senders.
type FeedKey struct {
	OnShortcut bool
	Index      int // waveguide ID or shortcut index
	Node       int
}

// Feed is the laser path to one sender.
type Feed struct {
	Key FeedKey
	// Splitters is the number of splitter stages between laser and
	// sender (each costs the 3 dB split plus excess loss).
	Splitters int
	// PathLen is the PDN waveguide length from the laser entry to the
	// sender, in mm.
	PathLen float64
	// Crossings is the number of ring waveguides the feed crosses
	// (always 0 for the tree PDN).
	Crossings int
}

// Plan is a synthesized PDN.
type Plan struct {
	Kind  Kind
	Feeds map[FeedKey]*Feed
	// WireLength is the total PDN waveguide length in mm.
	WireLength float64
	// CrossingsAdded is the total number of PDN-ring crossings created
	// (zero for the tree PDN).
	CrossingsAdded int
	// Splitters is the total splitter count: leaves-1 per subtree plus
	// the joins of the global trunk.
	Splitters int
}

// SenderLossDB returns the insertion loss (dB) from the laser to the
// given sender, including splitter division, splitter excess loss,
// propagation along PDN waveguides and feed crossings.
func (p *Plan) SenderLossDB(par phys.Params, key FeedKey) (float64, error) {
	f, ok := p.Feeds[key]
	if !ok {
		return 0, fmt.Errorf("pdn: no feed for %+v", key)
	}
	return float64(f.Splitters)*(par.SplitterSplitDB+par.SplitterExcessDB) +
		f.PathLen*par.PropagationDBPerMM +
		float64(f.Crossings)*par.CrossingDB, nil
}

// BuildTree synthesizes the XRing tree PDN for a design whose
// waveguides all have openings (Step 3 must have run with openings
// enabled). It is crossing-free and does not modify the design.
func BuildTree(d *router.Design) (*Plan, error) {
	p, senders := newPlan(d, Tree)
	trees := 0
	for wi, w := range d.Waveguides {
		if len(senders[wi]) == 0 {
			continue
		}
		if w.Opening < 0 {
			return nil, fmt.Errorf("pdn: waveguide %d has no opening; run Step 3 with openings", w.ID)
		}
		leaves := corridorCoords(d, w, senders[wi])
		feeds, wire := buildSplitterTree(leaves)
		for i, lf := range leaves {
			f := &feeds[i]
			f.Key = FeedKey{Index: w.ID, Node: lf.node}
			p.Feeds[f.Key] = f
		}
		p.Splitters += len(leaves) - 1
		p.WireLength += wire
		trees++
	}
	trees += addShortcutFeeds(d, p)
	addGlobalTrunk(d, p, trees)
	p.record()
	return p, nil
}

// newPlan returns an empty plan with its feed map sized for the design,
// and the senders of each waveguide (d.SendersOn, by waveguide index).
func newPlan(d *router.Design, kind Kind) (*Plan, [][]int) {
	senders := make([][]int, len(d.Waveguides))
	n := 2 * len(d.Shortcuts) // at most one sender per shortcut endpoint
	for i, w := range d.Waveguides {
		senders[i] = d.SendersOn(w)
		n += len(senders[i])
	}
	return &Plan{Kind: kind, Feeds: make(map[FeedKey]*Feed, n)}, senders
}

// BuildComb synthesizes the baseline comb PDN: a trunk outside the
// outermost ring with per-sender feeds crossing all outer waveguides.
// It registers every crossing on the crossed waveguide (mutating the
// design) so the analyses account for crossing loss and noise.
func BuildComb(d *router.Design) (*Plan, error) {
	p, senders := newPlan(d, Comb)
	trees := 0
	// Idempotence: drop crossings from a previous comb build (e.g. on a
	// design reloaded from disk) before registering fresh ones.
	for _, w := range d.Waveguides {
		kept := w.Crossings[:0]
		for _, x := range w.Crossings {
			if x.Source != "pdn" {
				kept = append(kept, x)
			}
		}
		w.Crossings = kept
	}
	maxRadial := -1
	for _, w := range d.Waveguides {
		if w.Radial > maxRadial {
			maxRadial = w.Radial
		}
	}
	radialAbove := func(r int) int { return maxRadial - r }

	spacing := d.Par.RingSpacingMM(d.N()) / 2 // radial gap per waveguide (approx)
	for wi, w := range d.Waveguides {
		if len(senders[wi]) == 0 {
			continue
		}
		leaves := corridorCoords(d, w, senders[wi])
		feeds, wire := buildSplitterTree(leaves)
		p.Splitters += len(leaves) - 1
		nCross := radialAbove(w.Radial)
		// Register feeds in sorted node order: the crossings appended to
		// the outer waveguides fix the noise-walk accumulation order, so
		// two builds of the same geometry must produce the same sequence.
		byNode := make([]int, len(leaves))
		for i := range byNode {
			byNode[i] = i
		}
		slices.SortFunc(byNode, func(i, j int) int { return leaves[i].node - leaves[j].node })
		for _, i := range byNode {
			node, f := leaves[i].node, &feeds[i]
			f.Crossings = nCross
			f.PathLen += float64(nCross) * spacing // radial feed segment
			key := FeedKey{Index: w.ID, Node: node}
			f.Key = key
			p.Feeds[key] = f
			p.CrossingsAdded += nCross
			// Register the crossing on every waveguide radially outward.
			for _, ow := range d.Waveguides {
				if ow.Radial > w.Radial {
					ow.Crossings = append(ow.Crossings, router.Crossing{
						Pos:    d.NodeCoord(node),
						AtNode: node,
						FedWG:  w.ID,
						Source: "pdn",
					})
				}
			}
		}
		p.WireLength += wire
		trees++
	}
	trees += addShortcutFeeds(d, p)
	addGlobalTrunk(d, p, trees)
	p.record()
	return p, nil
}

// addGlobalTrunk accounts for the distribution stages that join the
// per-waveguide top splitters to the single off-chip laser of each
// wavelength ("we connect the top splitters of all ring waveguides
// through their opening nodes", Sec. III-D), and for the power division
// across the modulators sharing one feed bank. Every signal has its own
// modulator, so a laser ultimately feeds one leaf per channel: any
// distribution arrangement splits each path at least ceil(log2 M)
// times, M being the total modulator count. Each feed's splitter count
// is raised to that balanced-tree ideal (feeds already deeper inside
// their own waveguide tree keep their real depth). trees counts the
// top-level subtrees: one per fed waveguide and per fed shortcut.
func addGlobalTrunk(d *router.Design, p *Plan, trees int) {
	mods := 0
	for _, w := range d.Waveguides {
		mods += len(w.Channels)
	}
	for _, s := range d.Shortcuts {
		mods += len(s.Channels)
	}
	if mods <= 1 {
		return
	}
	target := int(math.Ceil(math.Log2(float64(mods))))
	for _, f := range p.Feeds {
		if f.Splitters < target {
			f.Splitters = target
		}
	}
	// Joining T top-level subtrees to one laser costs T-1 combiner
	// splitters.
	if trees > 1 {
		p.Splitters += trees - 1
	}
}

// addShortcutFeeds powers the senders dedicated to shortcuts. Shortcut
// senders sit at node positions, so the corridor PDN reaches them like
// ring senders; each shortcut pair forms a two-leaf subtree. It returns
// the number of shortcuts fed.
func addShortcutFeeds(d *router.Design, p *Plan) int {
	fed := 0
	for si, s := range d.Shortcuts {
		// A sender exists at an endpoint if any channel enters there.
		entries := map[int]bool{}
		for _, c := range s.Channels {
			entries[c.Sig.Src] = true
		}
		if len(entries) == 0 {
			continue
		}
		nodes := make([]int, 0, len(entries))
		for n := range entries {
			nodes = append(nodes, n)
		}
		sort.Ints(nodes)
		fed++
		p.Splitters++ // pairs the two endpoint senders
		for _, n := range nodes {
			// One splitter pairs the two endpoint senders; the feed runs
			// half the shortcut length from the splitter at its midpoint,
			// plus one stage joining the ring-level tree.
			f := &Feed{
				Key:       FeedKey{OnShortcut: true, Index: si, Node: n},
				Splitters: 2,
				PathLen:   s.Length() / 2,
			}
			p.Feeds[f.Key] = f
			p.WireLength += s.Length() / 2
		}
	}
	return fed
}

// leaf is one sender on a waveguide's PDN corridor.
type leaf struct {
	node int
	pos  float64 // corridor coordinate, mm
}

// corridorCoords linearizes sender positions along the PDN corridor of
// a waveguide: arc coordinates measured from the opening (or from the
// tour origin when the waveguide has none) in the waveguide's travel
// direction, sorted ascending by (coordinate, node ID). The first
// sender after the opening is thereby paired first, as Sec. III-D
// prescribes, and senders at one coordinate pair in a fixed order.
func corridorCoords(d *router.Design, w *router.Waveguide, senders []int) []leaf {
	origin := 0.0
	if w.Opening >= 0 {
		origin = d.NodeCoord(w.Opening)
	}
	per := d.Perimeter()
	leaves := make([]leaf, len(senders))
	for i, s := range senders {
		x := d.NodeCoord(s) - origin
		if w.Dir == router.CCW {
			x = -x
		}
		x = math.Mod(x+2*per, per)
		leaves[i] = leaf{node: s, pos: x}
	}
	slices.SortFunc(leaves, func(a, b leaf) int {
		if c := cmp.Compare(a.pos, b.pos); c != 0 {
			return c
		}
		return a.node - b.node
	})
	return leaves
}

// buildSplitterTree pairs the sorted corridor leaves sequentially and
// stacks splitter levels until one top splitter remains. It returns the
// per-leaf feeds — feeds[i] belongs to leaves[i]: splitter count and
// path length to the laser entry at corridor coordinate 0 — and the
// total wire length. Pairing is sequential, so every tree node covers
// a contiguous range of leaves.
func buildSplitterTree(leaves []leaf) ([]Feed, float64) {
	type tnode struct {
		pos    float64
		lo, hi int // leaves[lo:hi] hang below this node
	}
	feeds := make([]Feed, len(leaves))
	level := make([]tnode, len(leaves))
	for i, lf := range leaves {
		level[i] = tnode{pos: lf.pos, lo: i, hi: i + 1}
	}
	next := make([]tnode, 0, (len(leaves)+1)/2)
	wire := 0.0
	for len(level) > 1 {
		next = next[:0]
		for i := 0; i+1 < len(level); i += 2 {
			a, b := level[i], level[i+1]
			span := math.Abs(a.pos - b.pos)
			mid := (a.pos + b.pos) / 2
			wire += span
			for k := a.lo; k < a.hi; k++ {
				feeds[k].Splitters++
				feeds[k].PathLen += math.Abs(a.pos - mid)
			}
			for k := b.lo; k < b.hi; k++ {
				feeds[k].Splitters++
				feeds[k].PathLen += math.Abs(b.pos - mid)
			}
			next = append(next, tnode{pos: mid, lo: a.lo, hi: b.hi})
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level, next = next, level
	}
	// Trunk from the laser entry (corridor coordinate 0, at the opening)
	// to the top splitter.
	top := level[0]
	trunk := top.pos
	wire += trunk
	for k := top.lo; k < top.hi; k++ {
		feeds[k].PathLen += trunk
	}
	return feeds, wire
}
