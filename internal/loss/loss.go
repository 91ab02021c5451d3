// Package loss implements the insertion-loss and laser-power analysis
// (Sec. II-B). For every signal it walks the physical route and sums
// propagation loss, through loss at every off-resonance MRR passed,
// drop loss at the destination MRR, crossing loss, bend loss and the
// photodetector loss. Laser power follows the paper's model
// P^λ = 10^((il_w^λ + S)/10) — one off-chip laser per wavelength, sized
// by the worst-case requirement among the wavelength's signals — with
// PDN losses (splits, excess, feed crossings, PDN propagation) added on
// top when a PDN plan is supplied.
//
// MRR inventory convention: along a ring waveguide, every node site
// carries one receiver MRR per channel terminating there and one
// modulator per channel originating there, ordered
// [receiver bank | sender-receiver gap | sender bank] in the travel
// direction. A passing signal traverses both banks of every
// intermediate node; at its source it passes the other modulators of
// its own bank, and at its destination the other receiver MRRs, both
// counted worst-case.
package loss

import (
	"context"
	"fmt"
	"math"
	"sort"

	"xring/internal/geom"
	"xring/internal/noc"
	"xring/internal/obs"
	"xring/internal/parallel"
	"xring/internal/pdn"
	"xring/internal/phys"
	"xring/internal/router"
)

// mSignals counts per-signal loss walks across all analyses.
var mSignals = obs.NewCounter("loss.signals")

// A laser group is one wavelength: following the paper's power model
// (Sec. II-B), each wavelength has one off-chip laser whose power is set
// by the worst-case total loss among the signals modulated on it,
// P^λ = 10^((il_w^λ + S)/10); the PDN distributes that wavelength to
// every sender.

// SignalLoss is the per-signal breakdown.
type SignalLoss struct {
	Sig noc.Signal
	// IL is the total signal-path insertion loss in dB, excluding PDN
	// losses (the paper's il and il_w* columns).
	IL float64
	// ILBeforeDrop excludes the final drop and photodetector terms; the
	// crosstalk engine uses it to size drop-leakage noise.
	ILBeforeDrop float64
	// PDNLoss is the laser-to-sender loss in dB (0 without a PDN).
	PDNLoss float64
	// PathLen is the travelled waveguide length in mm (the L column).
	PathLen float64
	// Crossings, Throughs, Drops, Bends are element counts on the path.
	Crossings int
	Throughs  int
	Drops     int
	Bends     int
	// WL is the wavelength carrying this signal.
	WL int
}

// Report is the analysis result for a design.
type Report struct {
	Signals map[noc.Signal]*SignalLoss
	// WorstIL is il_w (dB) and Worst identifies the worst signal.
	WorstIL float64
	Worst   noc.Signal
	// WorstLen and WorstCrossings are the L and C columns: path length
	// and crossing count of the worst-loss signal.
	WorstLen       float64
	WorstCrossings int
	// WavelengthPower is the required laser power per wavelength in mW.
	WavelengthPower map[int]float64
	// TotalPowerMW is the summed laser power (the P column, mW).
	TotalPowerMW float64
	// WavelengthCount is the #wl column: distinct wavelengths used.
	WavelengthCount int
}

// Banks is the per-waveguide MRR inventory: how many modulators
// (senders) and receiver MRRs each node carries on each ring waveguide.
// The counts are structural — they depend on the channel assignment
// only, never on node positions — so the incremental evaluator caches
// one Banks across a whole placement search. Both are indexed
// [waveguide][node ID].
type Banks struct {
	Senders   [][]int
	Receivers [][]int
}

// NewBanks tallies the MRR inventory of a design.
func NewBanks(d *router.Design) *Banks {
	nw, n := len(d.Waveguides), d.N()
	counts := make([]int, 2*nw*n)
	b := &Banks{
		Senders:   make([][]int, nw),
		Receivers: make([][]int, nw),
	}
	for i, w := range d.Waveguides {
		b.Senders[i] = counts[2*i*n : (2*i+1)*n : (2*i+1)*n]
		b.Receivers[i] = counts[(2*i+1)*n : (2*i+2)*n : (2*i+2)*n]
		for _, c := range w.Channels {
			b.Senders[i][c.Sig.Src]++
			b.Receivers[i][c.Sig.Dst]++
		}
	}
	return b
}

// CanonicalSignals returns the design's routed signals in canonical
// (Src, Dst) order — the order every deterministic reduction uses.
func CanonicalSignals(d *router.Design) []noc.Signal {
	sigs := make([]noc.Signal, 0, len(d.Routes))
	for sig := range d.Routes {
		sigs = append(sigs, sig)
	}
	sort.Slice(sigs, func(i, j int) bool {
		if sigs[i].Src != sigs[j].Src {
			return sigs[i].Src < sigs[j].Src
		}
		return sigs[i].Dst < sigs[j].Dst
	})
	return sigs
}

// AnalyzeCtx computes the loss report. plan may be nil for the no-PDN
// comparisons (Table I); PDN losses are then zero. The per-signal
// fan-out stops promptly on cancellation (returning the context error)
// and the analysis records a trace span.
func AnalyzeCtx(ctx context.Context, d *router.Design, plan *pdn.Plan) (*Report, error) {
	if len(d.Routes) == 0 {
		return nil, fmt.Errorf("loss: design has no routed signals; run the mapping step first")
	}
	ctx, span := obs.Start(ctx, "loss.analyze", obs.Int("signals", len(d.Routes)))
	defer span.End()
	par := d.Par
	banks := NewBanks(d)

	// The per-signal walks are independent: fan them out over the shared
	// worker pool, then reduce in canonical (Src, Dst) order so worst-
	// signal selection and the power sums are deterministic regardless
	// of worker count and completion order.
	sigs := CanonicalSignals(d)
	losses, err := parallel.Map(ctx, len(sigs), func(i int) (*SignalLoss, error) {
		sig := sigs[i]
		r := d.Routes[sig]
		var sl *SignalLoss
		switch r.Kind {
		case router.OnRing:
			sl = ringSignalLoss(d, par, banks, sig, r)
		case router.OnShortcut:
			sl = shortcutSignalLoss(d, par, sig, r)
		default:
			return nil, fmt.Errorf("loss: unknown route kind for %v", sig)
		}
		if plan != nil {
			pl, err := plan.SenderLossDB(par, FeedKeyFor(sig, r))
			if err != nil {
				return nil, err
			}
			sl.PDNLoss = pl
		}
		return sl, nil
	})
	if err != nil {
		return nil, err
	}
	rep := Summarize(d, sigs, losses)
	mSignals.Add(int64(len(sigs)))
	span.Set(obs.Float("worst_il_db", rep.WorstIL),
		obs.Float("power_mw", rep.TotalPowerMW),
		obs.Int("wavelengths", rep.WavelengthCount))
	return rep, nil
}

// ForRoute computes one signal's loss over a specific route with the
// exact expressions of the full analysis. The survivability replay
// engine uses it to delta-evaluate signals promoted onto spare routes
// without re-walking the unchanged ones; banks must be NewBanks of the
// same design, and plan may be nil.
func ForRoute(d *router.Design, banks *Banks, plan *pdn.Plan, sig noc.Signal, r *router.Route) (*SignalLoss, error) {
	var sl *SignalLoss
	switch r.Kind {
	case router.OnRing:
		sl = ringSignalLoss(d, d.Par, banks, sig, r)
	case router.OnShortcut:
		sl = shortcutSignalLoss(d, d.Par, sig, r)
	default:
		return nil, fmt.Errorf("loss: unknown route kind for %v", sig)
	}
	if plan != nil {
		pl, err := plan.SenderLossDB(d.Par, FeedKeyFor(sig, r))
		if err != nil {
			return nil, err
		}
		sl.PDNLoss = pl
	}
	return sl, nil
}

// FeedKeyFor returns the PDN feed key powering a signal's sender.
func FeedKeyFor(sig noc.Signal, r *router.Route) pdn.FeedKey {
	key := pdn.FeedKey{OnShortcut: r.Kind == router.OnShortcut, Node: sig.Src}
	if r.Kind == router.OnShortcut {
		key.Index = r.SC
	} else {
		key.Index = r.WG
	}
	return key
}

// Summarize folds per-signal losses — losses[i] belongs to sigs[i],
// which must be in canonical (Src, Dst) order — into a Report: worst
// signal selection, per-wavelength laser power and the total power sum,
// all walked in fixed order so the folds are bit-reproducible.
func Summarize(d *router.Design, sigs []noc.Signal, losses []*SignalLoss) *Report {
	par := d.Par
	rep := &Report{
		Signals:         make(map[noc.Signal]*SignalLoss, len(sigs)),
		WavelengthPower: map[int]float64{},
		WorstIL:         math.Inf(-1),
		WavelengthCount: d.WavelengthsUsed(),
	}
	for i, sig := range sigs {
		sl := losses[i]
		rep.Signals[sig] = sl
		if sl.IL > rep.WorstIL {
			rep.WorstIL = sl.IL
			rep.Worst = sig
			rep.WorstLen = sl.PathLen
			rep.WorstCrossings = sl.Crossings
		}
	}

	// Laser power per wavelength: the worst total requirement among the
	// wavelength's signals sets its laser.
	for _, sl := range losses {
		req := sl.IL + sl.PDNLoss
		power := phys.LaserPowerMW(req, par.ReceiverSensitivityDBm)
		if power > rep.WavelengthPower[sl.WL] {
			rep.WavelengthPower[sl.WL] = power
		}
	}
	wls := make([]int, 0, len(rep.WavelengthPower))
	for wl := range rep.WavelengthPower {
		wls = append(wls, wl)
	}
	sort.Ints(wls)
	for _, wl := range wls {
		rep.TotalPowerMW += rep.WavelengthPower[wl]
	}
	return rep
}

// Counts are the walk-derived inputs a signal's insertion loss is
// assembled from. The integer element counts are exact (immune to
// floating-point drift), which is what lets the incremental evaluator
// cache them across node moves and still reproduce a full analysis
// bit for bit; PathLen is recomputed from fresh geometry every time.
type Counts struct {
	PathLen   float64
	Throughs  int
	Drops     int
	Crossings int
	Bends     int
}

// FromCounts assembles a SignalLoss from precomputed counts using the
// exact floating-point expressions of the full analysis, so a cached
// evaluation is bit-identical to a recomputed one. PDNLoss is left
// zero for the caller to fill.
func FromCounts(par phys.Params, sig noc.Signal, r *router.Route, c Counts) *SignalLoss {
	sl := &SignalLoss{
		Sig: sig, WL: r.WL,
		PathLen: c.PathLen, Throughs: c.Throughs,
		Drops: c.Drops, Crossings: c.Crossings, Bends: c.Bends,
	}
	sl.ILBeforeDrop = sl.PathLen*par.PropagationDBPerMM +
		float64(sl.Throughs)*par.ThroughDB +
		float64(sl.Crossings)*par.CrossingDB +
		float64(sl.Bends)*par.BendDB
	// The CSE drop happens before the receiver drop; both are DropDB.
	sl.IL = sl.ILBeforeDrop + float64(sl.Drops)*par.DropDB + par.PhotodetectorDB
	// ILBeforeDrop must include the CSE drop for leakage accounting.
	if r.ViaCSE {
		sl.ILBeforeDrop += par.DropDB
	}
	return sl
}

// RingPathLen returns a ring signal's travelled length: the arc in the
// waveguide's direction scaled by the replica's radial offset. Both
// factors shift whenever any node moves (the perimeter is global), so
// this is recomputed from fresh geometry on every evaluation.
func RingPathLen(d *router.Design, sig noc.Signal, r *router.Route) float64 {
	w := d.Waveguides[r.WG]
	return d.ArcLen(sig.Src, sig.Dst, w.Dir) * d.RadialScale(w)
}

// RingThroughs counts the off-resonance MRRs a ring signal passes:
// the other modulators of its source bank, both banks of every gap
// node, and the other receivers at its destination. The count depends
// only on the tour order and the channel assignment — never on node
// positions — so it is cacheable across placement moves.
func RingThroughs(d *router.Design, b *Banks, sig noc.Signal, r *router.Route) int {
	w := d.Waveguides[r.WG]
	senders, receivers := b.Senders[r.WG], b.Receivers[r.WG]
	throughs := senders[sig.Src] - 1 // other modulators of the source bank
	d.ForEachGapNode(sig.Src, sig.Dst, w.Dir, func(k int) {
		throughs += senders[k] + receivers[k]
	})
	throughs += receivers[sig.Dst] - 1 // other receivers at the destination
	return throughs
}

func ringSignalLoss(d *router.Design, par phys.Params, banks *Banks, sig noc.Signal, r *router.Route) *SignalLoss {
	w := d.Waveguides[r.WG]
	return FromCounts(par, sig, r, Counts{
		PathLen:   RingPathLen(d, sig, r),
		Throughs:  RingThroughs(d, banks, sig, r),
		Drops:     1,
		Crossings: d.CrossingsOnArc(w, sig.Src, sig.Dst),
		Bends:     d.BendsOnArc(sig.Src, sig.Dst, w.Dir),
	})
}

// ShortcutStructural returns the position-independent element counts of
// a shortcut signal: through MRRs at the entry/exit banks (plus the two
// CSE MRRs for direct traffic on a merged pair), drops, and the CSE
// crossing passed straight through. All derive from the channel lists.
func ShortcutStructural(d *router.Design, sig noc.Signal, r *router.Route) (throughs, drops, crossings int) {
	sc := d.Shortcuts[r.SC]
	// Entry-bank through losses: other channels entering at the same
	// node of this shortcut.
	entryBank := 0
	for _, c := range sc.Channels {
		if c.Sig.Src == sig.Src {
			entryBank++
		}
	}
	throughs = entryBank - 1

	if r.ViaCSE {
		p := d.Shortcuts[sc.Partner]
		drops = 2 // CSE MRR + receiver MRR
		// Exit bank at the partner's receiver end.
		exitBank := 0
		for _, c := range p.Channels {
			if c.Sig.Dst == sig.Dst {
				exitBank++
			}
		}
		for _, c := range sc.Channels {
			if c.Sig.Dst == sig.Dst {
				exitBank++
			}
		}
		throughs += maxInt(exitBank-1, 0)
	} else {
		drops = 1
		if sc.Partner != -1 {
			crossings = 1 // passes the CSE crossing straight through
			throughs += 2 // the two CSE MRRs sit at the crossing
		}
		exitBank := 0
		for _, c := range sc.Channels {
			if c.Sig.Dst == sig.Dst {
				exitBank++
			}
		}
		throughs += maxInt(exitBank-1, 0)
	}
	return maxInt(throughs, 0), drops, crossings
}

// ShortcutGeometry returns the position-dependent pieces of a shortcut
// signal's loss — travelled length and bend count — recomputed from the
// current shortcut paths. For CSE traffic the length walks the entry
// shortcut to the crossing point, then the partner to the destination.
func ShortcutGeometry(d *router.Design, sig noc.Signal, r *router.Route) (pathLen float64, bends int) {
	sc := d.Shortcuts[r.SC]
	if r.ViaCSE {
		p := d.Shortcuts[sc.Partner]
		return cseLength(d, sc, p, sig), sc.PathAB.Bends() + p.PathAB.Bends() + 1
	}
	return sc.Length(), sc.PathAB.Bends()
}

func shortcutSignalLoss(d *router.Design, par phys.Params, sig noc.Signal, r *router.Route) *SignalLoss {
	throughs, drops, crossings := ShortcutStructural(d, sig, r)
	pathLen, bends := ShortcutGeometry(d, sig, r)
	return FromCounts(par, sig, r, Counts{
		PathLen: pathLen, Throughs: throughs,
		Drops: drops, Crossings: crossings, Bends: bends,
	})
}

// cseLength computes the travelled length of a CSE-routed signal:
// entry shortcut from the source to the crossing, then the partner from
// the crossing to the destination.
func cseLength(d *router.Design, entry, exit *router.Shortcut, sig noc.Signal) float64 {
	x, ok := geom.PolylineCrossingPoint(entry.PathAB, exit.PathAB)
	if !ok {
		// Partners always cross exactly once (validated); fall back to
		// half lengths defensively.
		return entry.Length()/2 + exit.Length()/2
	}
	return geom.DistAlong(entry.PathAB, d.Net.Nodes[sig.Src].Pos, x) +
		geom.DistAlong(exit.PathAB, x, d.Net.Nodes[sig.Dst].Pos)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
