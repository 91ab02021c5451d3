// Fault-tolerant spare mapping (Options.FaultTolerance): a protection
// layer of dedicated ring waveguides carrying one cold-standby route per
// signal. The layer is waveguide-disjoint from primary traffic, so a
// single MRR failure — or a single ring-segment cut — kills at most one
// of {primary, spare} for any signal and the full signal set stays
// routable (the Gavanelli & Nonato fault-free routing objective, grafted
// onto the XRing Step-3 mapper).
//
// Spares are packed greedily like primaries, then — when the model is
// small enough — repacked exactly through internal/milp with the greedy
// assignment as the warm-start incumbent, minimizing protection
// waveguide count.
package mapping

import (
	"fmt"

	"xring/internal/milp"
	"xring/internal/noc"
	"xring/internal/obs"
	"xring/internal/router"
)

// spareRepackMaxVars gates the exact repack: models with more binary
// variables than this keep the greedy packing (the repack is a
// refinement, never a requirement).
const spareRepackMaxVars = 1500

// spareRepackMaxNodes bounds the branch-and-bound effort spent on the
// repack. The greedy warm start guarantees a feasible incumbent, so an
// exhausted budget still returns a usable (possibly unimproved)
// solution.
const spareRepackMaxNodes = 200_000

var mSpareRepacks = obs.NewCounter("mapping.spare_repacks")

// addSpareLayer runs after the primary mapping + opening phases and
// gives every routed signal (ring- or shortcut-carried) a spare route on
// protection waveguides appended after the primaries.
func addSpareLayer(d *router.Design, idx *wlIndex, opt Options, stats *Stats) error {
	firstSpare := len(d.Waveguides)
	d.SpareRoutes = make(map[noc.Signal]*router.Route, len(d.Routes))

	// Same job order as the primary pass, over every routed signal.
	sigs := make([]noc.Signal, 0, len(d.Routes))
	for sig := range d.Routes {
		sigs = append(sigs, sig)
	}
	for _, jb := range ringJobs(d, sigs, nil) {
		w, wl := idx.placeFirstFit(d, firstSpare, jb.sig, jb.dir, opt.MaxWL, freshThenShare)
		if w == nil {
			if opt.MaxWaveguides != 0 && len(d.Waveguides) >= opt.MaxWaveguides {
				return fmt.Errorf("mapping: fault-tolerant spare for %v does not fit: #wl=%d with at most %d waveguides",
					jb.sig, opt.MaxWL, opt.MaxWaveguides)
			}
			w, wl = idx.newWaveguide(d, jb.sig, jb.dir), 0
		}
		d.SpareRoutes[jb.sig] = idx.ringRoute(jb.sig, w.ID, wl)
	}

	if repackSpares(d, firstSpare, opt, stats) {
		// The repack rewrote and renumbered the protection waveguides.
		idx.truncate(firstSpare)
		for _, w := range d.Waveguides[firstSpare:] {
			idx.resync(w)
		}
	}

	// Open the protection waveguides too: with a tree PDN every
	// sender-bearing waveguide needs an opening for its feeds.
	if !opt.NoOpenings {
		if err := openWaveguidesIn(d, idx, d.SpareRoutes, firstSpare, opt, stats); err != nil {
			return err
		}
	}
	stats.SpareSignals = len(d.SpareRoutes)
	stats.SpareWGs = len(d.Waveguides) - firstSpare
	return nil
}

// repackSpares attempts an exact per-direction repack of the spare layer
// through internal/milp: variables x[s,(w,λ)] choose a slot per spare,
// y[w] marks waveguide use, collisions become pairwise at-most-one rows,
// and the objective minimizes the number of protection waveguides. The
// greedy assignment primes the incumbent (Options.IncumbentHint), so a
// budget-limited solve degrades to "keep greedy" instead of failing.
// Best-effort by design: any error keeps the greedy packing. It reports
// whether it replaced the greedy packing.
func repackSpares(d *router.Design, firstSpare int, opt Options, stats *Stats) bool {
	type dirPack struct {
		wgs  []*router.Waveguide // greedy protection waveguides, ID order
		sigs []noc.Signal        // spare signals in canonical order
		slot map[noc.Signal][2]int
	}
	packs := map[router.Direction]*dirPack{
		router.CW:  {slot: map[noc.Signal][2]int{}},
		router.CCW: {slot: map[noc.Signal][2]int{}},
	}
	for _, w := range d.Waveguides[firstSpare:] {
		p := packs[w.Dir]
		wi := len(p.wgs)
		p.wgs = append(p.wgs, w)
		for _, c := range w.Channels {
			p.sigs = append(p.sigs, c.Sig)
			p.slot[c.Sig] = [2]int{wi, c.WL}
		}
	}

	improved := false
	for _, dir := range [2]router.Direction{router.CW, router.CCW} {
		p := packs[dir]
		if len(p.wgs) < 2 {
			continue // nothing to compact
		}
		noc.SortSignals(p.sigs)
		W, S := len(p.wgs), len(p.sigs)
		nVars := S*W*opt.MaxWL + W
		if nVars > spareRepackMaxVars {
			continue
		}

		m := milp.NewModel()
		x := make([][]milp.Var, S) // x[s][w*maxWL+wl]
		for s := range x {
			x[s] = make([]milp.Var, W*opt.MaxWL)
			for wi := 0; wi < W; wi++ {
				for wl := 0; wl < opt.MaxWL; wl++ {
					x[s][wi*opt.MaxWL+wl] = m.Binary(fmt.Sprintf("x_%d_%d_%d", s, wi, wl))
				}
			}
		}
		y := make([]milp.Var, W)
		for wi := range y {
			y[wi] = m.Binary(fmt.Sprintf("y_%d", wi))
			m.SetObjectiveCoef(y[wi], 1)
		}
		for s := range x {
			m.ExactlyOne(fmt.Sprintf("place_%d", s), x[s]...)
			for wi := 0; wi < W; wi++ {
				for wl := 0; wl < opt.MaxWL; wl++ {
					m.AddConstraint(fmt.Sprintf("use_%d_%d_%d", s, wi, wl),
						[]milp.Term{{Var: x[s][wi*opt.MaxWL+wl], Coef: 1}, {Var: y[wi], Coef: -1}},
						milp.LE, 0)
				}
			}
		}
		// Wavelength-routing admissibility: two colliding signals cannot
		// share a (waveguide, wavelength) slot.
		for s1 := 0; s1 < S; s1++ {
			for s2 := s1 + 1; s2 < S; s2++ {
				c1 := router.Channel{Sig: p.sigs[s1]}
				c2 := router.Channel{Sig: p.sigs[s2]}
				if !d.ChannelsCollide(dir, c1, c2) {
					continue
				}
				for wi := 0; wi < W; wi++ {
					for wl := 0; wl < opt.MaxWL; wl++ {
						m.AtMostOne(fmt.Sprintf("col_%d_%d_%d_%d", s1, s2, wi, wl),
							x[s1][wi*opt.MaxWL+wl], x[s2][wi*opt.MaxWL+wl])
					}
				}
			}
		}
		// Symmetry break: waveguides are used in index order.
		for wi := 0; wi+1 < W; wi++ {
			m.AddConstraint(fmt.Sprintf("sym_%d", wi),
				[]milp.Term{{Var: y[wi+1], Coef: 1}, {Var: y[wi], Coef: -1}},
				milp.LE, 0)
		}

		// Warm start from the greedy packing.
		hint := make([]bool, m.NumVars())
		for s, sig := range p.sigs {
			sl := p.slot[sig]
			hint[int(x[s][sl[0]*opt.MaxWL+sl[1]])] = true
		}
		for wi := range y {
			hint[int(y[wi])] = true
		}

		sol, err := milp.Solve(m, milp.Options{MaxNodes: spareRepackMaxNodes, IncumbentHint: hint})
		if err != nil || sol.Objective >= float64(W)-milp.Eps {
			continue // keep greedy
		}
		// Adopt: rewrite this direction's protection channels per the
		// solution, in canonical signal order.
		for _, w := range p.wgs {
			w.Channels = nil
		}
		for s, sig := range p.sigs {
			for wi := 0; wi < W; wi++ {
				for wl := 0; wl < opt.MaxWL; wl++ {
					if sol.Value(x[s][wi*opt.MaxWL+wl]) {
						p.wgs[wi].Channels = append(p.wgs[wi].Channels, router.Channel{Sig: sig, WL: wl})
					}
				}
			}
		}
		improved = true
	}
	if !improved {
		return false
	}
	// Drop emptied protection waveguides, renumber the spare section, and
	// point every spare route at its new slot.
	spares := d.Waveguides[firstSpare:]
	d.Waveguides = d.Waveguides[:firstSpare]
	for _, w := range spares {
		if len(w.Channels) == 0 {
			continue
		}
		w.ID = len(d.Waveguides)
		d.Waveguides = append(d.Waveguides, w)
		for _, c := range w.Channels {
			r := d.SpareRoutes[c.Sig]
			r.WG, r.WL = w.ID, c.WL
		}
	}
	stats.SpareRepacked = true
	mSpareRepacks.Add(1)
	return true
}
