package faults

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"xring/internal/loss"
	"xring/internal/noc"
	"xring/internal/obs"
	"xring/internal/parallel"
	"xring/internal/pdn"
	"xring/internal/router"
	"xring/internal/xtalk"
)

var (
	mScenarios    = obs.NewCounter("faults.scenarios")
	mReplays      = obs.NewCounter("faults.replays")
	mNominalReuse = obs.NewCounter("faults.nominal_reuse")
	mSignalsLost  = obs.NewCounter("faults.signals_lost")
)

// Options tunes the survivability analyzer.
type Options struct {
	// Serial disables the parallel scenario fan-out (debugging,
	// determinism audits). Results are bit-identical either way:
	// scenarios are independent and reduced in input order.
	Serial bool
	// OnOutcome, when set, is invoked once per completed scenario, as it
	// completes — from worker goroutines under the parallel fan-out, so
	// it must be safe for concurrent use. The aggregated Report is
	// unaffected; this exists for live progress streaming.
	OnOutcome func(index int, o Outcome)
}

// Outcome is the replay result of one fault scenario.
type Outcome struct {
	// Scenario is the injected fault set.
	Scenario Scenario `json:"scenario"`
	// Lost lists signals with no surviving route, in canonical order.
	Lost []noc.Signal `json:"lost,omitempty"`
	// Promoted lists signals that survived only via their spare route.
	Promoted []noc.Signal `json:"promoted,omitempty"`
	// Detuned lists signals paying extra drop loss from a detuned
	// receiver.
	Detuned []noc.Signal `json:"detuned,omitempty"`
	// Survived counts routable signals under the scenario.
	Survived int `json:"survived"`
	// FullReplay is false when the scenario had no structural or loss
	// effect and the nominal analyses were reused byte-identically.
	FullReplay bool `json:"fullReplay"`
	// WorstIL/WorstSNR/TotalPowerMW are the replayed analysis results
	// over the surviving signal set (zero when nothing survives; a
	// WorstSNR of 0 also stands in for "no crosstalk terms", where the
	// analytic value would be +Inf — unrepresentable in JSON).
	WorstIL      float64 `json:"worstIL"`
	WorstSNR     float64 `json:"worstSNR"`
	TotalPowerMW float64 `json:"totalPowerMW"`
	// DegradationDB is WorstIL minus the nominal worst IL. It can be
	// negative when the nominal worst signal itself was lost.
	DegradationDB float64 `json:"degradationDB"`
}

// CriticalElement ranks a single physical element by the damage its
// lone failure causes.
type CriticalElement struct {
	Element       string  `json:"element"`
	Fault         Fault   `json:"fault"`
	Lost          int     `json:"lost"`
	DegradationDB float64 `json:"degradationDB"`
}

// Report is the survivability summary over a scenario set.
type Report struct {
	// Signals is the nominal signal count.
	Signals int `json:"signals"`
	// Scenarios is the number of replayed fault scenarios.
	Scenarios int `json:"scenarios"`
	// FullSetSurvives is true when every scenario keeps the full signal
	// set routable (the k-fault-tolerance acceptance condition).
	FullSetSurvives bool `json:"fullSetSurvives"`
	// MinSurvived is the smallest surviving signal set over all
	// scenarios; MaxLost the largest loss.
	MinSurvived int `json:"minSurvived"`
	MaxLost     int `json:"maxLost"`
	// Nominal analysis anchors.
	NominalWorstIL  float64 `json:"nominalWorstIL"`
	NominalWorstSNR float64 `json:"nominalWorstSNR"`
	NominalPowerMW  float64 `json:"nominalPowerMW"`
	// WorstIL is the highest surviving-set insertion loss over all
	// scenarios; WorstSNR the lowest SNR; WorstDegradationDB the largest
	// IL degradation versus nominal (0 when no scenario degrades).
	WorstIL            float64 `json:"worstIL"`
	WorstSNR           float64 `json:"worstSNR"`
	WorstDegradationDB float64 `json:"worstDegradationDB"`
	// Critical ranks single-fault elements most-harmful first.
	Critical []CriticalElement `json:"critical,omitempty"`
	// Outcomes holds one entry per scenario, in scenario order.
	Outcomes []Outcome `json:"outcomes"`
}

// MarshalJSON renders fault kinds by wire name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses the wire names produced by MarshalJSON.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := ParseKind(s)
	if err != nil {
		return err
	}
	*k = v
	return nil
}

// MarshalJSON renders roles as "tx"/"rx".
func (r Role) MarshalJSON() ([]byte, error) { return json.Marshal(r.String()) }

// UnmarshalJSON parses "tx"/"rx".
func (r *Role) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "tx":
		*r = RoleTx
	case "rx":
		*r = RoleRx
	default:
		return fmt.Errorf("faults: unknown MRR role %q", s)
	}
	return nil
}

// Analyze replays a design under every scenario and aggregates a
// survivability report. plan may be nil for designs without a PDN.
//
// Replays are delta-evaluated: a scenario that perturbs nothing reuses
// the nominal loss/crosstalk reports byte-identically; otherwise only
// the routes promoted onto spares are re-priced (loss.Pricer.PriceRoute)
// and the surviving set is re-summarized before a crosstalk pass. A
// scenario changes only the route table — failed signals removed,
// promoted signals rewritten onto their spare routes — while the
// geometry, waveguides and shortcuts stay nominal. Neither the loss
// pricing nor the crosstalk walk reads the route table, so every
// scenario is priced against the nominal design: one loss.Pricer and
// one xtalk.Engine indexed on it serve the nominal analysis, every
// scenario and every worker of the parallel fan-out (both are
// read-only).
func Analyze(ctx context.Context, d *router.Design, plan *pdn.Plan, scenarios []Scenario, opt Options) (*Report, error) {
	pr, err := loss.NewPricer(d)
	if err != nil {
		return nil, fmt.Errorf("faults: nominal loss analysis: %w", err)
	}
	lrep, err := pr.Price(ctx, plan)
	if err != nil {
		return nil, fmt.Errorf("faults: nominal loss analysis: %w", err)
	}
	xe := xtalk.NewEngine(d)
	xrep, err := xe.Analyze(ctx, plan, lrep, xtalk.Options{})
	if err != nil {
		return nil, fmt.Errorf("faults: nominal crosstalk analysis: %w", err)
	}
	rp := newReplayer(d, plan, pr, xe, lrep, xrep)

	replay := func(i int) (Outcome, error) {
		o, err := rp.replay(ctx, scenarios[i])
		if err == nil && opt.OnOutcome != nil {
			opt.OnOutcome(i, o)
		}
		return o, err
	}
	var outcomes []Outcome
	if opt.Serial {
		outcomes = make([]Outcome, len(scenarios))
		for i := range scenarios {
			o, err := replay(i)
			if err != nil {
				return nil, err
			}
			outcomes[i] = o
		}
	} else {
		outcomes, err = parallel.Map(ctx, len(scenarios), replay)
		if err != nil {
			return nil, err
		}
	}
	mScenarios.Add(int64(len(scenarios)))

	rep := &Report{
		Signals:         len(d.Routes),
		Scenarios:       len(scenarios),
		FullSetSurvives: true,
		MinSurvived:     len(d.Routes),
		NominalWorstIL:  lrep.WorstIL,
		NominalWorstSNR: xrep.WorstSNR,
		NominalPowerMW:  lrep.TotalPowerMW,
		WorstIL:         lrep.WorstIL,
		WorstSNR:        xrep.WorstSNR,
		Outcomes:        outcomes,
	}
	for i := range outcomes {
		o := &outcomes[i]
		if len(o.Lost) > 0 {
			rep.FullSetSurvives = false
			mSignalsLost.Add(int64(len(o.Lost)))
		}
		if o.Survived < rep.MinSurvived {
			rep.MinSurvived = o.Survived
		}
		if len(o.Lost) > rep.MaxLost {
			rep.MaxLost = len(o.Lost)
		}
		if o.Survived > 0 {
			if o.WorstIL > rep.WorstIL {
				rep.WorstIL = o.WorstIL
			}
			if o.WorstSNR < rep.WorstSNR {
				rep.WorstSNR = o.WorstSNR
			}
			if o.DegradationDB > rep.WorstDegradationDB {
				rep.WorstDegradationDB = o.DegradationDB
			}
		}
	}
	rep.Critical = rankCritical(outcomes)
	// Aggregation runs on the analytic values; non-finite SNRs (a design
	// with no crosstalk terms reports +Inf) are flattened to 0 only now,
	// so the min-over-scenarios above still prefers any finite value.
	rep.NominalWorstSNR = finiteSNR(rep.NominalWorstSNR)
	rep.WorstSNR = finiteSNR(rep.WorstSNR)
	for i := range rep.Outcomes {
		rep.Outcomes[i].WorstSNR = finiteSNR(rep.Outcomes[i].WorstSNR)
	}
	return rep, nil
}

// finiteSNR maps the analyzer's +Inf "no crosstalk terms" SNR (and any
// NaN) to 0, the same convention the service summary uses — JSON cannot
// carry non-finite floats.
func finiteSNR(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return v
}

// rankCritical orders single-fault scenarios most-harmful first: by
// signals lost, then IL degradation, then universe order (stable).
func rankCritical(outcomes []Outcome) []CriticalElement {
	var ce []CriticalElement
	for i := range outcomes {
		o := &outcomes[i]
		if len(o.Scenario) != 1 {
			continue
		}
		ce = append(ce, CriticalElement{
			Element:       o.Scenario[0].String(),
			Fault:         o.Scenario[0],
			Lost:          len(o.Lost),
			DegradationDB: o.DegradationDB,
		})
	}
	sort.SliceStable(ce, func(i, j int) bool {
		if ce[i].Lost != ce[j].Lost {
			return ce[i].Lost > ce[j].Lost
		}
		return ce[i].DegradationDB > ce[j].DegradationDB
	})
	return ce
}

// replayer holds what every scenario of one batch shares: the nominal
// design, plan and analyses, its pricer and crosstalk engine, and its
// signals in canonical order with their primary and spare routes and
// nominal losses. It is read-only, so the parallel fan-out shares one.
type replayer struct {
	d    *router.Design
	plan *pdn.Plan
	pr   *loss.Pricer
	xe   *xtalk.Engine
	lrep *loss.Report
	xrep *xtalk.Report
	// sigs[i] rides routes[i] (spares[i] when promoted) at nominal loss
	// losses[i]; sigs and losses are the nominal loss report's slices.
	sigs           []noc.Signal
	routes, spares []*router.Route
	losses         []*loss.SignalLoss
}

// newReplayer indexes a design's nominal analyses for replay.
func newReplayer(d *router.Design, plan *pdn.Plan, pr *loss.Pricer, xe *xtalk.Engine, lrep *loss.Report, xrep *xtalk.Report) *replayer {
	rp := &replayer{d: d, plan: plan, pr: pr, xe: xe, lrep: lrep, xrep: xrep,
		sigs: lrep.Sigs, losses: lrep.Losses}
	rp.routes = make([]*router.Route, len(rp.sigs))
	rp.spares = make([]*router.Route, len(rp.sigs))
	for i, sig := range rp.sigs {
		rp.routes[i], rp.spares[i] = d.Routes[sig], d.SpareRoutes[sig]
	}
	return rp
}

// resolved is a fault set's effect on the route table, by canonical
// signal index.
type resolved struct {
	// deadPrimary[i] and deadSpare[i] mark signal i's primary and spare
	// routes as severed.
	deadPrimary, deadSpare []bool
	// lost, promoted and detuned are in canonical order.
	lost, promoted, detuned []noc.Signal
	survived                int
	// detunes holds the extra drop loss of each detuned signal, in
	// canonical index order.
	detunes []detune
}

// detune is the extra drop loss a detuned receiver charges signal i.
type detune struct {
	i  int
	db float64
}

// route returns the route signal i ends up on: its primary if alive,
// else its spare (promotion), else nil (lost).
func (rp *replayer) route(rs *resolved, i int) *router.Route {
	switch {
	case !rs.deadPrimary[i]:
		return rp.routes[i]
	case rp.spares[i] != nil && !rs.deadSpare[i]:
		return rp.spares[i]
	}
	return nil
}

// resolve applies a fault set to the route table: each signal keeps its
// primary route if alive, else is promoted onto its spare, else is
// lost; detunes then bite the routes the signals end up on.
func (rp *replayer) resolve(sc Scenario) resolved {
	n := len(rp.sigs)
	dead := make([]bool, 2*n)
	rs := resolved{deadPrimary: dead[:n:n], deadSpare: dead[n:]}
	for _, f := range sc {
		switch f.Kind {
		case KindMRR:
			rp.killChannel(&rs, f.WG, f.SC, f.Sig)
		case KindSegment:
			rp.killSegment(&rs, f)
		}
	}
	for i, sig := range rp.sigs {
		switch r := rp.route(&rs, i); {
		case r == nil:
			rs.lost = append(rs.lost, sig)
			continue
		case r != rp.routes[i]:
			rs.promoted = append(rs.promoted, sig)
		}
		rs.survived++
	}

	// A detune only bites when it targets the channel the signal ends up
	// using after promotion.
	for _, f := range sc {
		if f.Kind != KindDetune {
			continue
		}
		i, ok := rp.lrep.Index(f.Sig)
		if !ok {
			continue
		}
		r := rp.route(&rs, i)
		if r == nil {
			continue
		}
		if (r.Kind == router.OnRing && f.WG == r.WG) || (r.Kind == router.OnShortcut && f.SC == r.SC) {
			rs.addDetune(i, f.DetuneDB)
		}
	}
	for _, dt := range rs.detunes {
		rs.detuned = append(rs.detuned, rp.sigs[dt.i])
	}
	return rs
}

// addDetune charges db to signal i, keeping detunes in index order.
func (rs *resolved) addDetune(i int, db float64) {
	k := sort.Search(len(rs.detunes), func(k int) bool { return rs.detunes[k].i >= i })
	if k < len(rs.detunes) && rs.detunes[k].i == i {
		rs.detunes[k].db += db
		return
	}
	rs.detunes = append(rs.detunes, detune{})
	copy(rs.detunes[k+1:], rs.detunes[k:])
	rs.detunes[k] = detune{i: i, db: db}
}

// replay evaluates one fault set against the design.
func (rp *replayer) replay(ctx context.Context, sc Scenario) (Outcome, error) {
	d, plan, lrep, xrep := rp.d, rp.plan, rp.lrep, rp.xrep
	rs := rp.resolve(sc)
	out := Outcome{
		Scenario: sc,
		Lost:     rs.lost,
		Promoted: rs.promoted,
		Detuned:  rs.detuned,
		Survived: rs.survived,
	}
	if len(rs.lost) == 0 && len(rs.promoted) == 0 && len(rs.detuned) == 0 {
		// No structural or loss effect: the nominal analyses hold
		// byte-identically.
		mNominalReuse.Inc()
		out.WorstIL = lrep.WorstIL
		out.WorstSNR = xrep.WorstSNR
		out.TotalPowerMW = lrep.TotalPowerMW
		return out, nil
	}
	mReplays.Inc()
	if rs.survived == 0 {
		// Nothing survives: there is no surviving-set analysis to run.
		out.FullReplay = true
		return out, nil
	}

	// The surviving signals keep the canonical order; with nothing lost
	// they are the nominal list itself.
	sigs := rp.sigs
	if len(rs.lost) > 0 {
		sigs = make([]noc.Signal, 0, rs.survived)
	}
	losses := make([]*loss.SignalLoss, 0, rs.survived)
	detunes := rs.detunes
	for i, sig := range rp.sigs {
		r := rp.route(&rs, i)
		if r == nil {
			continue
		}
		sl := rp.losses[i]
		if r != rp.routes[i] {
			// Promoted onto the spare: price the protection route.
			var err error
			sl, err = rp.pr.PriceRoute(plan, sig, r)
			if err != nil {
				return Outcome{}, fmt.Errorf("faults: pricing spare route for %v: %w", sig, err)
			}
		}
		if len(detunes) > 0 && detunes[0].i == i {
			if detunes[0].db > 0 {
				sl = loss.WithExtraDrop(d.Par, sl, detunes[0].db)
			}
			detunes = detunes[1:]
		}
		if len(rs.lost) > 0 {
			sigs = append(sigs, sig)
		}
		losses = append(losses, sl)
	}
	lrep2 := loss.Summarize(sigs, losses, lrep.WavelengthCount)
	lrep2.Banks = lrep.Banks // the replay keeps the nominal MRR inventory
	xrep2, err := rp.xe.Analyze(ctx, plan, lrep2, xtalk.Options{})
	if err != nil {
		return Outcome{}, fmt.Errorf("faults: replay crosstalk analysis: %w", err)
	}
	out.FullReplay = true
	out.WorstIL = lrep2.WorstIL
	out.WorstSNR = xrep2.WorstSNR
	out.TotalPowerMW = lrep2.TotalPowerMW
	out.DegradationDB = lrep2.WorstIL - lrep.WorstIL
	return out, nil
}

// killChannel marks the channel (element container, sig) dead in
// whichever route table owns it.
func (rp *replayer) killChannel(rs *resolved, wg, sc int, sig noc.Signal) {
	i, ok := rp.lrep.Index(sig)
	if !ok {
		return
	}
	if wg >= 0 {
		if r := rp.routes[i]; r.Kind == router.OnRing && r.WG == wg {
			rs.deadPrimary[i] = true
		}
		if r := rp.spares[i]; r != nil && r.WG == wg {
			rs.deadSpare[i] = true
		}
		return
	}
	if r := rp.routes[i]; r.Kind == router.OnShortcut && r.SC == sc {
		rs.deadPrimary[i] = true
	}
}

// killSegment kills every channel whose physical path traverses the cut.
func (rp *replayer) killSegment(rs *resolved, f Fault) {
	d := rp.d
	if f.WG >= 0 {
		w := d.Waveguides[f.WG]
		for _, c := range w.Channels {
			if arcCoversEdge(d, c.Sig, w.Dir, f.Edge) {
				rp.killChannel(rs, f.WG, -1, c.Sig)
			}
		}
		return
	}
	s := d.Shortcuts[f.SC]
	for _, c := range s.Channels {
		rp.killChannel(rs, -1, f.SC, c.Sig)
	}
	// CSE traffic entering on the partner exits through this shortcut, so
	// the cut severs it too.
	if s.Partner >= 0 {
		for _, c := range d.Shortcuts[s.Partner].Channels {
			if c.ViaCSE {
				rp.killChannel(rs, -1, s.Partner, c.Sig)
			}
		}
	}
}
