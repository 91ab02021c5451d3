package router

import (
	"fmt"
	"slices"

	"xring/internal/geom"
)

// ChannelsCollide reports whether two channels cannot share a waveguide
// because wavelength routing would misdeliver one of them.
//
// Two channels on the same ring waveguide with the same wavelength
// collide when either arc passes (or ends at) the other's receiver: an
// on-resonance receiver MRR drops *any* passing signal on its
// wavelength. Head-to-tail reuse (one arc ending exactly where the
// other starts) is legal — that is the wavelength-reuse trick of
// ORNoC/ORing that Step 3 inherits.
func (d *Design) ChannelsCollide(dir Direction, c1, c2 Channel) bool {
	if c1.WL != c2.WL {
		return false
	}
	if c1.Sig.Dst == c2.Sig.Dst {
		return true // two receivers for the same wavelength at one site
	}
	if d.PassesNode(c1.Sig.Src, c1.Sig.Dst, c2.Sig.Dst, dir) {
		return true // c1 would drop at c2's receiver
	}
	if d.PassesNode(c2.Sig.Src, c2.Sig.Dst, c1.Sig.Dst, dir) {
		return true
	}
	// A signal arriving at its destination has, by the site ordering
	// (receiver bank before sender bank), already been dropped before
	// reaching any modulator, so sharing src or dst==src is legal.
	return false
}

// Validate checks every structural invariant of a synthesized design.
// It returns the first violation found, or nil for a valid design.
func (d *Design) Validate() error {
	if err := d.validateTourGeometry(); err != nil {
		return err
	}
	if err := d.validateWaveguides(); err != nil {
		return err
	}
	if err := d.validateShortcuts(); err != nil {
		return err
	}
	return d.validateRoutes()
}

// validateTourGeometry checks that the chosen L-orders implement the
// tour without any crossing between non-adjacent edges.
func (d *Design) validateTourGeometry() error {
	n := d.N()
	if n < 3 {
		return fmt.Errorf("router: need at least 3 nodes, have %d", n)
	}
	paths := make([]geom.Polyline, n)
	for i := range paths {
		paths[i] = d.EdgePath(i)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			adjacent := j == i+1 || (i == 0 && j == n-1)
			if adjacent {
				continue
			}
			if geom.PathsCross(paths[i], paths[j]) {
				return fmt.Errorf("router: tour edges %d and %d cross (%v vs %v)",
					i, j, paths[i], paths[j])
			}
		}
	}
	return nil
}

// validateWaveguides checks every ring waveguide's channels. Each
// channel is tested against the Slots rows of the channels before it on
// its waveguide, with one slot per distinct wavelength there.
func (d *Design) validateWaveguides() error {
	n, k := d.N(), max(d.MaxWL, 1)
	occ := NewSlots(d, k)
	seen := make([]int, n*n) // seen[Src*n+Dst] = 1 + the waveguide carrying it
	wls := make([]int, 0, k) // the waveguide's wavelengths; wls[slot] is the slot's
	for wi, w := range d.Waveguides {
		if w.ID != wi {
			return fmt.Errorf("router: waveguide %d has ID %d", wi, w.ID)
		}
		if w.Opening != -1 && (w.Opening < 0 || w.Opening >= n) {
			return fmt.Errorf("router: waveguide %d opening %d out of range", wi, w.Opening)
		}
		occ.Resize(0)
		wls = wls[:0]
		for ci, c := range w.Channels {
			if c.Sig.Src < 0 || c.Sig.Src >= n || c.Sig.Dst < 0 || c.Sig.Dst >= n {
				return fmt.Errorf("router: waveguide %d channel %v is outside the %d nodes", wi, c.Sig, n)
			}
			if c.Sig.Src == c.Sig.Dst {
				return fmt.Errorf("router: waveguide %d has self-signal %v", wi, c.Sig)
			}
			if c.WL < 0 {
				return fmt.Errorf("router: waveguide %d channel %v has negative wavelength", wi, c.Sig)
			}
			if d.MaxWL > 0 && c.WL >= d.MaxWL {
				return fmt.Errorf("router: waveguide %d channel %v wavelength %d exceeds #wl=%d",
					wi, c.Sig, c.WL, d.MaxWL)
			}
			if w.Opening >= 0 && d.PassesNode(c.Sig.Src, c.Sig.Dst, w.Opening, w.Dir) {
				return fmt.Errorf("router: waveguide %d channel %v passes its opening at node %d",
					wi, c.Sig, w.Opening)
			}
			if seen[c.Sig.Src*n+c.Sig.Dst] == wi+1 {
				return fmt.Errorf("router: waveguide %d carries %v twice", wi, c.Sig)
			}
			seen[c.Sig.Src*n+c.Sig.Dst] = wi + 1
			slot := slices.Index(wls, c.WL)
			if slot < 0 {
				slot, wls = len(wls), append(wls, c.WL)
				occ.Resize(len(wls))
			}
			if occ.Collides(slot, w.Dir, c.Sig) {
				// Name the earlier channel it collides with.
				for _, c2 := range w.Channels[:ci] {
					if d.ChannelsCollide(w.Dir, c2, c) {
						return fmt.Errorf("router: waveguide %d wavelength collision between %v and %v on λ%d",
							wi, c2.Sig, c.Sig, c.WL)
					}
				}
			}
			occ.Add(slot, w.Dir, c.Sig)
		}
	}
	return nil
}

func (d *Design) validateShortcuts() error {
	perNode := map[int]int{}
	ringEdges := make([]geom.Polyline, d.N())
	for i := range ringEdges {
		ringEdges[i] = d.EdgePath(i)
	}
	for si, s := range d.Shortcuts {
		if s.A == s.B {
			return fmt.Errorf("router: shortcut %d connects node %d to itself", si, s.A)
		}
		perNode[s.A]++
		perNode[s.B]++
		if len(s.PathAB) < 2 {
			return fmt.Errorf("router: shortcut %d has no physical path", si)
		}
		if !s.PathAB.Start().Eq(d.Net.Nodes[s.A].Pos) || !s.PathAB.End().Eq(d.Net.Nodes[s.B].Pos) {
			return fmt.Errorf("router: shortcut %d path does not join node positions", si)
		}
		// Crossing-freedom versus the ring (Sec. III-B feasibility).
		for ei, ep := range ringEdges {
			if geom.PathsCross(s.PathAB, ep) {
				return fmt.Errorf("router: shortcut %d (%d-%d) crosses ring edge %d", si, s.A, s.B, ei)
			}
		}
		// Partner symmetry and the at-most-one-crossing rule.
		if s.Partner != -1 {
			if s.Partner < 0 || s.Partner >= len(d.Shortcuts) || s.Partner == si {
				return fmt.Errorf("router: shortcut %d has invalid partner %d", si, s.Partner)
			}
			if d.Shortcuts[s.Partner].Partner != si {
				return fmt.Errorf("router: shortcut partnership %d<->%d not symmetric", si, s.Partner)
			}
			if geom.CrossingsBetween(s.PathAB, d.Shortcuts[s.Partner].PathAB) == 0 {
				return fmt.Errorf("router: shortcuts %d and %d are partners but do not cross", si, s.Partner)
			}
		}
		// Geometric crossings with non-partner shortcuts are forbidden.
		for sj := si + 1; sj < len(d.Shortcuts); sj++ {
			if sj == s.Partner {
				continue
			}
			if geom.PathsCross(s.PathAB, d.Shortcuts[sj].PathAB) {
				return fmt.Errorf("router: shortcuts %d and %d cross without being CSE partners", si, sj)
			}
		}
		if err := d.validateShortcutChannels(si, s); err != nil {
			return err
		}
	}
	for node, cnt := range perNode {
		if cnt > 1 {
			return fmt.Errorf("router: node %d participates in %d shortcuts (max 1)", node, cnt)
		}
	}
	return nil
}

func (d *Design) validateShortcutChannels(si int, s *Shortcut) error {
	seenWL := map[[2]interface{}]bool{} // (direction entry node, wl)
	for _, c := range s.Channels {
		if c.ViaCSE {
			if s.Partner == -1 {
				return fmt.Errorf("router: shortcut %d has CSE channel %v but no partner", si, c.Sig)
			}
			p := d.Shortcuts[s.Partner]
			// A CSE channel enters on s at one of s's endpoints and exits
			// at one of the partner's endpoints.
			okSrc := c.Sig.Src == s.A || c.Sig.Src == s.B
			okDst := c.Sig.Dst == p.A || c.Sig.Dst == p.B
			if !okSrc || !okDst {
				return fmt.Errorf("router: CSE channel %v does not join shortcut %d to partner %d",
					c.Sig, si, s.Partner)
			}
		} else if !(c.Sig.Src == s.A && c.Sig.Dst == s.B || c.Sig.Src == s.B && c.Sig.Dst == s.A) {
			return fmt.Errorf("router: channel %v does not match shortcut %d endpoints (%d,%d)",
				c.Sig, si, s.A, s.B)
		}
		key := [2]interface{}{c.Sig.Src, c.WL}
		if seenWL[key] {
			return fmt.Errorf("router: shortcut %d carries two λ%d channels entering at node %d",
				si, c.WL, c.Sig.Src)
		}
		seenWL[key] = true
	}
	return nil
}

func (d *Design) validateRoutes() error {
	if d.Routes == nil {
		return nil // mapping not run yet: nothing to check
	}
	for sig, r := range d.Routes {
		if r.Sig != sig {
			return fmt.Errorf("router: route table key %v holds route for %v", sig, r.Sig)
		}
		switch r.Kind {
		case OnRing:
			if r.WG < 0 || r.WG >= len(d.Waveguides) {
				return fmt.Errorf("router: route %v references waveguide %d", sig, r.WG)
			}
			if !slices.Contains(d.Waveguides[r.WG].Channels, Channel{Sig: sig, WL: r.WL}) {
				return fmt.Errorf("router: route %v not present as channel on waveguide %d", sig, r.WG)
			}
		case OnShortcut:
			if r.SC < 0 || r.SC >= len(d.Shortcuts) {
				return fmt.Errorf("router: route %v references shortcut %d", sig, r.SC)
			}
			if !slices.Contains(d.Shortcuts[r.SC].Channels, ShortcutChannel{Sig: sig, WL: r.WL, ViaCSE: r.ViaCSE}) {
				return fmt.Errorf("router: route %v not present as channel on shortcut %d", sig, r.SC)
			}
		default:
			return fmt.Errorf("router: route %v has unknown kind %d", sig, r.Kind)
		}
	}
	if err := d.validateSpareRoutes(); err != nil {
		return err
	}
	// Every channel in the design must be reachable from the route table
	// (primary or spare) exactly once.
	count := 0
	for _, w := range d.Waveguides {
		count += len(w.Channels)
	}
	for _, s := range d.Shortcuts {
		count += len(s.Channels)
	}
	if count != len(d.Routes)+len(d.SpareRoutes) {
		return fmt.Errorf("router: %d channels in design but %d routes and %d spares",
			count, len(d.Routes), len(d.SpareRoutes))
	}
	return nil
}

// validateSpareRoutes checks the protection invariants of fault-tolerant
// designs: every spare backs a primary signal, is realized as a ring
// channel, and sits on a dedicated protection waveguide that carries no
// primary traffic (the waveguide-disjointness that makes single-element
// failures survivable).
func (d *Design) validateSpareRoutes() error {
	if len(d.SpareRoutes) == 0 {
		return nil
	}
	primaryWG := map[int]bool{}
	for _, r := range d.Routes {
		if r.Kind == OnRing {
			primaryWG[r.WG] = true
		}
	}
	for sig, r := range d.SpareRoutes {
		if r.Sig != sig {
			return fmt.Errorf("router: spare table key %v holds route for %v", sig, r.Sig)
		}
		if d.Routes[sig] == nil {
			return fmt.Errorf("router: spare route %v has no primary route", sig)
		}
		if r.Kind != OnRing {
			return fmt.Errorf("router: spare route %v must ride a ring waveguide", sig)
		}
		if r.WG < 0 || r.WG >= len(d.Waveguides) {
			return fmt.Errorf("router: spare route %v references waveguide %d", sig, r.WG)
		}
		if primaryWG[r.WG] {
			return fmt.Errorf("router: spare route %v shares waveguide %d with primary traffic", sig, r.WG)
		}
		if !slices.Contains(d.Waveguides[r.WG].Channels, Channel{Sig: sig, WL: r.WL}) {
			return fmt.Errorf("router: spare route %v not present as channel on waveguide %d", sig, r.WG)
		}
	}
	return nil
}
