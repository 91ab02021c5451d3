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
	"slices"
	"sort"

	"xring/internal/geom"
	"xring/internal/noc"
	"xring/internal/obs"
	"xring/internal/pdn"
	"xring/internal/phys"
	"xring/internal/router"
)

// mSignals counts the signals every Price call prices, in full analyses
// and delta moves alike.
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
	// LaserMW is the laser power (mW) this signal alone would need,
	// P = 10^((IL + PDNLoss + S)/10); the worst of a wavelength's
	// signals sizes its laser.
	LaserMW float64
	// DetectorGain is the linear laser-to-photodetector transmission,
	// 10^(-(PDNLoss + IL)/10).
	DetectorGain float64
}

// Report is the analysis result for a design.
type Report struct {
	// Sigs lists the analyzed signals in canonical (Src, Dst) order and
	// Losses[i] is the breakdown of Sigs[i]. Every per-signal slice of
	// the crosstalk report is aligned with this index.
	Sigs   []noc.Signal
	Losses []*SignalLoss
	// WorstIL is il_w (dB) and Worst identifies the worst signal.
	WorstIL float64
	Worst   noc.Signal
	// WorstLen and WorstCrossings are the L and C columns: path length
	// and crossing count of the worst-loss signal.
	WorstLen       float64
	WorstCrossings int
	// WavelengthPower is the required laser power in mW, indexed by
	// wavelength; 0 marks a wavelength no analyzed signal uses.
	WavelengthPower []float64
	// TotalPowerMW is the summed laser power (the P column, mW).
	TotalPowerMW float64
	// WavelengthCount is the #wl column: distinct wavelengths used.
	WavelengthCount int
	// Banks is the MRR inventory the signals were priced with, which the
	// crosstalk walk reuses; nil on a report Summarize built until its
	// caller sets it.
	Banks *Banks
}

// Index returns the position of sig in Sigs and whether it was
// analyzed, by binary search on the canonical order.
func (r *Report) Index(sig noc.Signal) (int, bool) {
	i := sort.Search(len(r.Sigs), func(i int) bool {
		s := r.Sigs[i]
		return s.Src > sig.Src || (s.Src == sig.Src && s.Dst >= sig.Dst)
	})
	return i, i < len(r.Sigs) && r.Sigs[i] == sig
}

// Signal returns sig's loss breakdown, or nil when sig was not
// analyzed.
func (r *Report) Signal(sig noc.Signal) *SignalLoss {
	if i, ok := r.Index(sig); ok {
		return r.Losses[i]
	}
	return nil
}

// Banks is the per-waveguide MRR inventory: how many modulators
// (senders) and receiver MRRs each node carries on each ring waveguide.
// The counts are structural — they depend on the channel assignment
// only, never on node positions. Both are indexed [waveguide][node ID].
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

// AnalyzeCtx computes the loss report. plan may be nil for the no-PDN
// comparisons (Table I); PDN losses are then zero. It is NewPricer
// followed by one Price; callers that price one structure many times
// keep the Pricer instead.
func AnalyzeCtx(ctx context.Context, d *router.Design, plan *pdn.Plan) (*Report, error) {
	p, err := NewPricer(d)
	if err != nil {
		return nil, err
	}
	return p.Price(ctx, plan)
}

// Pricer prices the routed signals of one design structure (tour,
// channel assignment, routes, shortcut pairings). It caches what that
// structure fixes: the canonical signal order, each signal's route, its
// exact element counts and its PDN feed. Price re-derives every
// floating-point input from the design's current geometry, so one
// Pricer serves a whole placement search and prices bit-identically to
// a fresh one. A Pricer is read-only after NewPricer and safe to share
// between goroutines.
type Pricer struct {
	d     *router.Design
	banks *Banks
	// sigs is the canonical (Src, Dst) order; st[i] belongs to sigs[i].
	sigs []noc.Signal
	st   []structure
	// feeds lists the distinct PDN feed keys of the signals' senders.
	feeds []pdn.FeedKey
	// wavelengths is the #wl column, fixed with the channel assignment.
	wavelengths int
}

// structure is the position-independent part of a signal's loss: its
// route, its integer element counts, exact across node moves, and its
// feed.
type structure struct {
	r               *router.Route
	throughs, drops int32
	// crossings is a shortcut's CSE crossing; ring crossings sit at arc
	// coordinates, which are geometry.
	crossings int32
	// feed indexes Pricer.feeds.
	feed int32
}

// NewPricer indexes a mapped design's structure for pricing.
func NewPricer(d *router.Design) (*Pricer, error) {
	if len(d.Routes) == 0 {
		return nil, fmt.Errorf("loss: design has no routed signals; run the mapping step first")
	}
	// An N x N route table walked in (Src, Dst) order is the canonical
	// order, without a comparison sort.
	n := d.N()
	table := make([]*router.Route, n*n)
	for sig, r := range d.Routes {
		if sig.Src < 0 || sig.Src >= n || sig.Dst < 0 || sig.Dst >= n {
			return nil, fmt.Errorf("loss: signal %v outside the %d nodes", sig, n)
		}
		table[sig.Src*n+sig.Dst] = r
	}
	p := &Pricer{d: d, banks: NewBanks(d), wavelengths: d.WavelengthsUsed(),
		sigs:  make([]noc.Signal, 0, len(d.Routes)),
		st:    make([]structure, 0, len(d.Routes)),
		feeds: make([]pdn.FeedKey, 0, len(d.Routes)),
	}
	srcFeeds := 0 // feeds[srcFeeds:] are the current source's keys
	for k, r := range table {
		if r == nil {
			continue
		}
		sig := noc.Signal{Src: k / n, Dst: k % n}
		if len(p.sigs) > 0 && p.sigs[len(p.sigs)-1].Src != sig.Src {
			srcFeeds = len(p.feeds)
		}
		st, err := p.structure(sig, r)
		if err != nil {
			return nil, err
		}
		key := feedKeyFor(sig, r)
		feed := slices.Index(p.feeds[srcFeeds:], key)
		if feed < 0 {
			feed = len(p.feeds) - srcFeeds
			p.feeds = append(p.feeds, key)
		}
		st.feed = int32(srcFeeds + feed)
		p.sigs = append(p.sigs, sig)
		p.st = append(p.st, st)
	}
	return p, nil
}

// Price computes the loss report at the design's current geometry into
// one slab of SignalLoss values. plan may be nil (no PDN); each
// distinct sender's feed loss is looked up once.
func (p *Pricer) Price(ctx context.Context, plan *pdn.Plan) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, span := obs.Start(ctx, "loss.analyze", obs.Int("signals", len(p.sigs)))
	defer span.End()
	par := p.d.Par
	var feedLoss []float64
	if plan != nil {
		feedLoss = make([]float64, len(p.feeds))
		for i, key := range p.feeds {
			var err error
			if feedLoss[i], err = plan.SenderLossDB(par, key); err != nil {
				return nil, err
			}
		}
	}
	slab := make([]SignalLoss, len(p.sigs))
	losses := make([]*SignalLoss, len(p.sigs))
	for i, sig := range p.sigs {
		pdnLoss := 0.0
		if feedLoss != nil {
			pdnLoss = feedLoss[p.st[i].feed]
		}
		p.price(&slab[i], sig, &p.st[i], pdnLoss)
		losses[i] = &slab[i]
	}
	rep := Summarize(p.sigs, losses, p.wavelengths)
	rep.Banks = p.banks
	mSignals.Add(int64(len(p.sigs)))
	span.Set(obs.Float("worst_il_db", rep.WorstIL),
		obs.Float("power_mw", rep.TotalPowerMW),
		obs.Int("wavelengths", rep.WavelengthCount))
	return rep, nil
}

// PriceRoute prices one signal over a route outside the Pricer's route
// table, such as a spare route a fault promotes, at the design's current
// geometry. plan may be nil.
func (p *Pricer) PriceRoute(plan *pdn.Plan, sig noc.Signal, r *router.Route) (*SignalLoss, error) {
	st, err := p.structure(sig, r)
	if err != nil {
		return nil, err
	}
	pdnLoss := 0.0
	if plan != nil {
		if pdnLoss, err = plan.SenderLossDB(p.d.Par, feedKeyFor(sig, r)); err != nil {
			return nil, err
		}
	}
	sl := new(SignalLoss)
	p.price(sl, sig, &st, pdnLoss)
	return sl, nil
}

// structure counts a route's position-independent elements: through
// MRRs, drops and the shortcut CSE crossing.
func (p *Pricer) structure(sig noc.Signal, r *router.Route) (structure, error) {
	switch r.Kind {
	case router.OnRing:
		return structure{r: r, throughs: int32(ringThroughs(p.d, p.banks, sig, r)), drops: 1}, nil
	case router.OnShortcut:
		t, dr, c := shortcutStructural(p.d, sig, r)
		return structure{r: r, throughs: int32(t), drops: int32(dr), crossings: int32(c)}, nil
	}
	return structure{}, fmt.Errorf("loss: unknown route kind for %v", sig)
}

// price is the one per-route pricing function: it re-derives a route's
// path length, bends and ring crossings from the current geometry and
// assembles sl from them, st's counts and the sender's PDN loss (0
// without a PDN).
func (p *Pricer) price(sl *SignalLoss, sig noc.Signal, st *structure, pdnLoss float64) {
	d, par, r := p.d, p.d.Par, st.r
	*sl = SignalLoss{Sig: sig, WL: r.WL, Throughs: int(st.throughs), Drops: int(st.drops),
		Crossings: int(st.crossings), PDNLoss: pdnLoss}
	if r.Kind == router.OnRing {
		w := d.Waveguides[r.WG]
		sl.PathLen = d.ArcLen(sig.Src, sig.Dst, w.Dir) * d.RadialScale(w)
		sl.Bends = d.BendsOnArc(sig.Src, sig.Dst, w.Dir)
		if len(w.Crossings) > 0 {
			// Crossings only exist on comb-PDN baselines.
			sl.Crossings = d.CrossingsOnArc(w, sig.Src, sig.Dst)
		}
	} else {
		sl.PathLen, sl.Bends = shortcutGeometry(d, sig, r)
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
	sl.setPowers(par)
}

// feedKeyFor returns the PDN feed key powering a signal's sender.
func feedKeyFor(sig noc.Signal, r *router.Route) pdn.FeedKey {
	key := pdn.FeedKey{OnShortcut: r.Kind == router.OnShortcut, Node: sig.Src}
	if r.Kind == router.OnShortcut {
		key.Index = r.SC
	} else {
		key.Index = r.WG
	}
	return key
}

// Summarize folds per-signal losses — losses[i] belongs to sigs[i],
// which must be in canonical (Src, Dst) order — into a Report that
// keeps both slices: worst signal selection, per-wavelength laser power
// and the total power sum, all walked in fixed order so the folds are
// bit-reproducible. wavelengths is the design's #wl column
// (router.Design.WavelengthsUsed), which callers that summarize many
// route tables of one design compute once.
func Summarize(sigs []noc.Signal, losses []*SignalLoss, wavelengths int) *Report {
	rep := &Report{
		Sigs:            sigs,
		Losses:          losses,
		WorstIL:         math.Inf(-1),
		WavelengthCount: wavelengths,
	}
	maxWL := -1
	for i, sl := range losses {
		if sl.IL > rep.WorstIL {
			rep.WorstIL = sl.IL
			rep.Worst = sigs[i]
			rep.WorstLen = sl.PathLen
			rep.WorstCrossings = sl.Crossings
		}
		if sl.WL > maxWL {
			maxWL = sl.WL
		}
	}

	// Laser power per wavelength: the worst total requirement among the
	// wavelength's signals sets its laser. The sum runs in ascending
	// wavelength order.
	rep.WavelengthPower = make([]float64, maxWL+1)
	for _, sl := range losses {
		if sl.LaserMW > rep.WavelengthPower[sl.WL] {
			rep.WavelengthPower[sl.WL] = sl.LaserMW
		}
	}
	for _, p := range rep.WavelengthPower {
		rep.TotalPowerMW += p
	}
	return rep
}

// WithExtraDrop returns a copy of sl paying extraDB more drop loss (a
// detuned receiver), with its linear powers re-derived.
func WithExtraDrop(par phys.Params, sl *SignalLoss, extraDB float64) *SignalLoss {
	cp := *sl
	cp.IL += extraDB
	cp.setPowers(par)
	return &cp
}

// setPowers derives the linear powers from the final dB losses.
func (sl *SignalLoss) setPowers(par phys.Params) {
	sl.LaserMW = phys.LaserPowerMW(sl.IL+sl.PDNLoss, par.ReceiverSensitivityDBm)
	sl.DetectorGain = phys.DBToLinear(-(sl.PDNLoss + sl.IL))
}

// ringThroughs counts the off-resonance MRRs a ring signal passes:
// the other modulators of its source bank, both banks of every gap
// node, and the other receivers at its destination.
func ringThroughs(d *router.Design, b *Banks, sig noc.Signal, r *router.Route) int {
	w := d.Waveguides[r.WG]
	senders, receivers := b.Senders[r.WG], b.Receivers[r.WG]
	throughs := senders[sig.Src] - 1 // other modulators of the source bank
	d.ForEachGapNode(sig.Src, sig.Dst, w.Dir, func(k int) {
		throughs += senders[k] + receivers[k]
	})
	throughs += receivers[sig.Dst] - 1 // other receivers at the destination
	return throughs
}

// shortcutStructural returns the position-independent element counts of
// a shortcut signal: through MRRs at the entry/exit banks (plus the two
// CSE MRRs for direct traffic on a merged pair), drops, and the CSE
// crossing passed straight through. All derive from the channel lists.
func shortcutStructural(d *router.Design, sig noc.Signal, r *router.Route) (throughs, drops, crossings int) {
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

// shortcutGeometry returns the position-dependent pieces of a shortcut
// signal's loss — travelled length and bend count — recomputed from the
// current shortcut paths. For CSE traffic the length walks the entry
// shortcut to the crossing point, then the partner to the destination.
func shortcutGeometry(d *router.Design, sig noc.Signal, r *router.Route) (pathLen float64, bends int) {
	sc := d.Shortcuts[r.SC]
	if r.ViaCSE {
		p := d.Shortcuts[sc.Partner]
		return cseLength(d, sc, p, sig), sc.PathAB.Bends() + p.PathAB.Bends() + 1
	}
	return sc.Length(), sc.PathAB.Bends()
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
