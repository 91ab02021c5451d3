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
	"cmp"
	"fmt"
	"slices"

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
		d.SpareRoutes[jb.sig] = idx.take(router.Route{Sig: jb.sig, Kind: router.OnRing, WG: w.ID, WL: wl})
	}

	if repackSpares(d, firstSpare, opt, stats) {
		// The repack rewrote and renumbered the protection waveguides.
		idx.size(len(d.Waveguides))
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
	// spare is one greedy placement: the signal, the index of its
	// waveguide among its direction's protection waveguides, and λ.
	type spare struct {
		sig    noc.Signal
		wi, wl int
	}
	var wgs [2][]*router.Waveguide // greedy protection waveguides per direction, ID order
	var sps [2][]spare
	for _, w := range d.Waveguides[firstSpare:] {
		for _, c := range w.Channels {
			sps[w.Dir] = append(sps[w.Dir], spare{c.Sig, len(wgs[w.Dir]), c.WL})
		}
		wgs[w.Dir] = append(wgs[w.Dir], w)
	}

	improved := false
	for _, dir := range [2]router.Direction{router.CW, router.CCW} {
		ws, sp := wgs[dir], sps[dir]
		if len(ws) < 2 {
			continue // nothing to compact
		}
		// Canonical (Src, Dst) order; the signals are distinct.
		slices.SortFunc(sp, func(a, b spare) int {
			return cmp.Or(cmp.Compare(a.sig.Src, b.sig.Src), cmp.Compare(a.sig.Dst, b.sig.Dst))
		})
		W, S, L := len(ws), len(sp), opt.MaxWL
		if S*W*L+W > spareRepackMaxVars {
			continue
		}

		// x[s][wi*L+wl] places spare s on slot (wi, wl).
		m := milp.NewModel()
		x := make([][]milp.Var, S)
		for s := range x {
			x[s] = make([]milp.Var, W*L)
			for k := range x[s] {
				x[s][k] = m.Binary(fmt.Sprintf("x_%d_%d_%d", s, k/L, k%L))
			}
		}
		y := make([]milp.Var, W)
		for wi := range y {
			y[wi] = m.Binary(fmt.Sprintf("y_%d", wi))
			m.SetObjectiveCoef(y[wi], 1)
		}
		for s := range x {
			m.ExactlyOne(fmt.Sprintf("place_%d", s), x[s]...)
			for k, v := range x[s] {
				m.AddConstraint(fmt.Sprintf("use_%d_%d_%d", s, k/L, k%L),
					[]milp.Term{{Var: v, Coef: 1}, {Var: y[k/L], Coef: -1}}, milp.LE, 0)
			}
		}
		// Wavelength-routing admissibility: two colliding signals cannot
		// share a (waveguide, wavelength) slot.
		for s1 := 0; s1 < S; s1++ {
			for s2 := s1 + 1; s2 < S; s2++ {
				if !d.ChannelsCollide(dir, router.Channel{Sig: sp[s1].sig}, router.Channel{Sig: sp[s2].sig}) {
					continue
				}
				for k := range x[s1] {
					m.AtMostOne(fmt.Sprintf("col_%d_%d_%d_%d", s1, s2, k/L, k%L), x[s1][k], x[s2][k])
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
		for s, g := range sp {
			hint[int(x[s][g.wi*L+g.wl])] = true
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
		for _, w := range ws {
			w.Channels = nil
		}
		for s, g := range sp {
			for k, v := range x[s] {
				if sol.Value(v) {
					ws[k/L].Channels = append(ws[k/L].Channels, router.Channel{Sig: g.sig, WL: k % L})
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
