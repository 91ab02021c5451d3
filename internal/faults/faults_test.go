package faults

import (
	"context"
	"math"
	"reflect"
	"testing"

	"xring/internal/core"
	"xring/internal/loss"
	"xring/internal/noc"
	"xring/internal/pdn"
	"xring/internal/router"
	"xring/internal/xtalk"
)

// synth builds an 8-node design, optionally fault-tolerant (k=1).
func synth(t *testing.T, k int, withPDN bool) (*router.Design, *pdn.Plan) {
	t.Helper()
	res, err := core.Synthesize(noc.Floorplan8(), core.Options{
		MaxWL: 8, WithPDN: withPDN, FaultTolerance: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Design, res.Plan
}

func TestUniverseDeterministicAndComplete(t *testing.T) {
	d, _ := synth(t, 0, true)
	all := []Kind{KindMRR, KindSegment, KindDetune}
	u1 := Universe(d, all, 0)
	u2 := Universe(d, all, 0)
	if !reflect.DeepEqual(u1, u2) {
		t.Fatal("universe not deterministic")
	}
	counts := map[Kind]int{}
	for _, f := range u1 {
		counts[f.Kind]++
	}
	// Every channel has a Tx and an Rx MRR, and one detunable receiver.
	channels := 0
	for _, w := range d.Waveguides {
		channels += len(w.Channels)
	}
	for _, s := range d.Shortcuts {
		channels += len(s.Channels)
	}
	if counts[KindMRR] != 2*channels {
		t.Fatalf("MRR faults = %d, want %d", counts[KindMRR], 2*channels)
	}
	if counts[KindDetune] != channels {
		t.Fatalf("detune faults = %d, want %d", counts[KindDetune], channels)
	}
	if counts[KindSegment] == 0 {
		t.Fatal("no segment faults enumerated")
	}
	for _, f := range u1 {
		if f.Kind == KindDetune && f.DetuneDB != DefaultDetuneDB {
			t.Fatalf("detune fault carries %v dB, want default %v", f.DetuneDB, DefaultDetuneDB)
		}
	}
}

// TestEmptyScenarioByteIdentical is the nominal-reproduction property:
// replaying the empty fault set must reproduce the nominal loss and
// crosstalk figures bit-for-bit, across design variants.
func TestEmptyScenarioByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name    string
		k       int
		withPDN bool
	}{
		{"nominal", 0, true},
		{"nominal-nopdn", 0, false},
		{"ft1", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, plan := synth(t, tc.k, tc.withPDN)
			lrep, err := loss.AnalyzeCtx(context.Background(), d, plan)
			if err != nil {
				t.Fatal(err)
			}
			xrep, err := xtalk.AnalyzeCtx(context.Background(), d, plan, lrep)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Analyze(context.Background(), d, plan, []Scenario{{}}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Outcomes) != 1 {
				t.Fatalf("outcomes = %d", len(rep.Outcomes))
			}
			o := rep.Outcomes[0]
			if o.FullReplay {
				t.Fatal("empty scenario must reuse the nominal analyses")
			}
			// WorstSNR compares through finiteSNR: the report flattens a
			// +Inf "no crosstalk terms" SNR to 0 for JSON.
			if math.Float64bits(o.WorstIL) != math.Float64bits(lrep.WorstIL) ||
				math.Float64bits(o.WorstSNR) != math.Float64bits(finiteSNR(xrep.WorstSNR)) ||
				math.Float64bits(o.TotalPowerMW) != math.Float64bits(lrep.TotalPowerMW) {
				t.Fatalf("empty-set replay diverged: IL %v vs %v, SNR %v vs %v, P %v vs %v",
					o.WorstIL, lrep.WorstIL, o.WorstSNR, finiteSNR(xrep.WorstSNR), o.TotalPowerMW, lrep.TotalPowerMW)
			}
			if !rep.FullSetSurvives || rep.MinSurvived != len(d.Routes) || rep.MaxLost != 0 {
				t.Fatalf("empty-set report claims degradation: %+v", rep)
			}
		})
	}
}

func TestSingleMRRWithoutSparesLosesOneSignal(t *testing.T) {
	d, plan := synth(t, 0, true)
	scs, err := EnumerateK(Universe(d, []Kind{KindMRR}, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(context.Background(), d, plan, scs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FullSetSurvives {
		t.Fatal("unprotected design cannot survive MRR failures")
	}
	for _, o := range rep.Outcomes {
		if len(o.Lost) != 1 || o.Survived != len(d.Routes)-1 {
			t.Fatalf("single MRR fault %v lost %d signals", o.Scenario, len(o.Lost))
		}
		if len(o.Promoted) != 0 {
			t.Fatal("no spares exist, nothing can be promoted")
		}
	}
	if rep.MinSurvived != len(d.Routes)-1 || rep.MaxLost != 1 {
		t.Fatalf("min/max = %d/%d", rep.MinSurvived, rep.MaxLost)
	}
	if len(rep.Critical) != len(scs) || rep.Critical[0].Lost != 1 {
		t.Fatalf("critical ranking incomplete: %d entries", len(rep.Critical))
	}
}

// TestFaultTolerantSurvivesAllSingleMRR is the PR acceptance property: a
// k=1 synthesis survives the exhaustive single-MRR universe with zero
// lost signals.
func TestFaultTolerantSurvivesAllSingleMRR(t *testing.T) {
	d, plan := synth(t, 1, true)
	if len(d.SpareRoutes) != len(d.Routes) {
		t.Fatalf("spares %d != routes %d", len(d.SpareRoutes), len(d.Routes))
	}
	scs, err := EnumerateK(Universe(d, []Kind{KindMRR}, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(context.Background(), d, plan, scs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FullSetSurvives {
		for _, o := range rep.Outcomes {
			if len(o.Lost) > 0 {
				t.Fatalf("fault %v lost %v", o.Scenario, o.Lost)
			}
		}
	}
	if rep.MinSurvived != len(d.Routes) || rep.MaxLost != 0 {
		t.Fatalf("min/max = %d/%d", rep.MinSurvived, rep.MaxLost)
	}
	promotions := 0
	for _, o := range rep.Outcomes {
		promotions += len(o.Promoted)
	}
	if promotions == 0 {
		t.Fatal("no fault ever promoted a spare; universe or replay is broken")
	}
}

func TestSegmentCutsKillArcTraffic(t *testing.T) {
	d, plan := synth(t, 0, true)
	scs, err := EnumerateK(Universe(d, []Kind{KindSegment}, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(context.Background(), d, plan, scs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The universe only enumerates segments that carry traffic, so every
	// cut must lose at least one signal on an unprotected design.
	for _, o := range rep.Outcomes {
		if len(o.Lost) == 0 {
			t.Fatalf("cut %v lost nothing", o.Scenario)
		}
	}
}

func TestDetuneDegradesWithoutLoss(t *testing.T) {
	d, plan := synth(t, 0, true)
	lrep, err := loss.AnalyzeCtx(context.Background(), d, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Detune the nominal worst signal's receiver: IL worsens by exactly
	// the detune penalty, nothing is lost.
	r := d.Routes[lrep.Worst]
	f := Fault{Kind: KindDetune, WG: -1, SC: -1, Sig: lrep.Worst, Role: RoleRx, Edge: -1, DetuneDB: 3}
	if r.Kind == router.OnRing {
		f.WG = r.WG
	} else {
		f.SC = r.SC
	}
	rep, err := Analyze(context.Background(), d, plan, []Scenario{{f}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := rep.Outcomes[0]
	if len(o.Lost) != 0 || len(o.Detuned) != 1 {
		t.Fatalf("detune outcome: lost=%v detuned=%v", o.Lost, o.Detuned)
	}
	if got, want := o.WorstIL, lrep.WorstIL+3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("detuned worst IL = %v, want %v", got, want)
	}
	if o.DegradationDB < 3-1e-12 {
		t.Fatalf("degradation = %v, want >= 3", o.DegradationDB)
	}
}

// TestParallelMatchesSerial pins the canonical reduction: the parallel
// fan-out must reproduce the serial outcome list bit-for-bit. CI runs
// this under -race to exercise the fan-out for data races.
func TestParallelMatchesSerial(t *testing.T) {
	d, plan := synth(t, 1, true)
	u := Universe(d, []Kind{KindMRR, KindSegment, KindDetune}, 0)
	scs, err := EnumerateK(u, 1)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Analyze(context.Background(), d, plan, scs, Options{Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Analyze(context.Background(), d, plan, scs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("parallel fan-out diverged from serial replay")
	}
}

func TestCombinations(t *testing.T) {
	cases := []struct{ n, k, limit, want int }{
		{6, 2, 100, 15},
		{6, 0, 100, 1},
		{6, 6, 100, 1},
		{6, 7, 100, 0},
		{6, -1, 100, 0},
		{10, 3, 120, 120},        // exactly at the limit: exact count
		{10, 3, 119, 120},        // over the limit: saturates at limit+1
		{1885, 3, 4096, 4097},    // realistic whatif universe, k=3: must saturate, not overflow
		{1 << 30, 5, 4096, 4097}, // huge n: the running product must saturate before overflowing
	}
	for _, c := range cases {
		if got := Combinations(c.n, c.k, c.limit); got != c.want {
			t.Errorf("Combinations(%d, %d, %d) = %d, want %d", c.n, c.k, c.limit, got, c.want)
		}
	}
}

func TestEnumerateAndSample(t *testing.T) {
	d, _ := synth(t, 0, false)
	u := Universe(d, []Kind{KindMRR}, 0)
	if _, err := EnumerateK(u, 0); err == nil {
		t.Fatal("k=0 must be rejected")
	}
	if _, err := EnumerateK(u, len(u)+1); err == nil {
		t.Fatal("k > |universe| must be rejected")
	}
	pairs, err := EnumerateK(u[:6], 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 15 { // C(6,2)
		t.Fatalf("pairs = %d", len(pairs))
	}
	s1, err := SampleK(u, 2, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := SampleK(u, 2, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("seeded sampling not deterministic")
	}
	if len(s1) != 10 {
		t.Fatalf("samples = %d", len(s1))
	}
	seen := map[string]bool{}
	for _, sc := range s1 {
		key := ""
		for _, f := range sc {
			key += f.String() + "|"
		}
		if seen[key] {
			t.Fatal("duplicate sampled scenario")
		}
		seen[key] = true
	}
	s3, err := SampleK(u, 2, 10, 43)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(s1, s3) {
		t.Fatal("different seeds produced identical samples")
	}
}

// replayDesign is the naive replay input: a clone sharing the nominal
// geometry, waveguides and shortcuts, carrying only the post-fault
// route table.
func replayDesign(t *testing.T, d *router.Design, final map[noc.Signal]*router.Route) *router.Design {
	t.Helper()
	rd, err := router.NewDesign(d.Net, d.Par, d.Tour, d.EdgeOrders)
	if err != nil {
		t.Fatal(err)
	}
	rd.Waveguides = d.Waveguides
	rd.Shortcuts = d.Shortcuts
	rd.MaxWL = d.MaxWL
	rd.Routes = final
	return rd
}

// naiveOutcome replays one scenario by full re-analysis: the surviving
// route table goes into a fresh replay design, which loss.AnalyzeCtx
// and xtalk.AnalyzeCtx analyze from scratch.
func naiveOutcome(t *testing.T, d *router.Design, plan *pdn.Plan, nominal *loss.Report, sc Scenario) Outcome {
	t.Helper()
	ctx := context.Background()
	rs := newReplayer(d, plan, nil, nominal, nil).resolve(sc)
	noEffect := len(rs.lost) == 0 && len(rs.promoted) == 0 && len(rs.detuned) == 0
	out := Outcome{
		Scenario:   sc,
		Lost:       rs.lost,
		Promoted:   rs.promoted,
		Detuned:    rs.detuned,
		Survived:   len(rs.surviving),
		FullReplay: !noEffect,
	}
	if len(rs.surviving) == 0 {
		return out
	}
	final := make(map[noc.Signal]*router.Route, len(rs.surviving))
	for i, sig := range rs.surviving {
		final[sig] = rs.routes[i]
	}
	rd := replayDesign(t, d, final)
	lrep, err := loss.AnalyzeCtx(ctx, rd, plan)
	if err != nil {
		t.Fatal(err)
	}
	sigs := loss.CanonicalSignals(rd)
	losses := make([]*loss.SignalLoss, len(sigs))
	for i, sig := range sigs {
		sl := lrep.Signals[sig]
		if db := rs.detuneDB[sig]; db > 0 {
			cp := *sl
			cp.IL += db
			sl = &cp
		}
		losses[i] = sl
	}
	lrep = loss.Summarize(rd, sigs, losses)
	xrep, err := xtalk.AnalyzeCtx(ctx, rd, plan, lrep)
	if err != nil {
		t.Fatal(err)
	}
	out.WorstIL = lrep.WorstIL
	out.WorstSNR = finiteSNR(xrep.WorstSNR)
	out.TotalPowerMW = lrep.TotalPowerMW
	if !noEffect {
		out.DegradationDB = lrep.WorstIL - nominal.WorstIL
	}
	return out
}

// sameOutcome demands bit-identical outcomes.
func sameOutcome(a, b Outcome) bool {
	return reflect.DeepEqual(a, b) &&
		math.Float64bits(a.WorstIL) == math.Float64bits(b.WorstIL) &&
		math.Float64bits(a.WorstSNR) == math.Float64bits(b.WorstSNR) &&
		math.Float64bits(a.TotalPowerMW) == math.Float64bits(b.TotalPowerMW) &&
		math.Float64bits(a.DegradationDB) == math.Float64bits(b.DegradationDB)
}

// TestReplayMatchesNaiveReanalysis is the differential test of the
// hoisted replay: every outcome of Analyze — one crosstalk engine per
// batch, scenarios priced against the nominal design — must equal a
// naive full re-analysis of a fresh replay design bit for bit. It
// covers sampled fault pairs plus single faults under tree and comb
// PDNs, serially and through the parallel fan-out. The tree case is the
// exhaustive single-fault universe of the k=1 16-node grid. The comb
// case samples the single faults of the k=1 8-node grid: a 16-node k=1
// comb design carries thousands of PDN crossings and costs about 0.3 s
// per replayed scenario.
func TestReplayMatchesNaiveReanalysis(t *testing.T) {
	for _, tc := range []struct {
		name    string
		net     *noc.Network
		opt     core.Options
		singles int // sampled single faults; 0 replays the whole universe
		pairs   int
	}{
		{"tree", noc.Floorplan16(), core.Options{MaxWL: 8, WithPDN: true, FaultTolerance: 1}, 0, 200},
		{"comb", noc.Floorplan8(), core.Options{MaxWL: 8, WithPDN: true, NoOpenings: true, FaultTolerance: 1}, 120, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := core.Synthesize(tc.net, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			d, plan := res.Design, res.Plan
			if plan == nil || (tc.name == "comb") != (plan.Kind == pdn.Comb) {
				t.Fatalf("fixture: plan %+v", plan)
			}
			u := Universe(d, []Kind{KindMRR, KindSegment, KindDetune}, 0)
			scs, err := EnumerateK(u, 1)
			if tc.singles > 0 {
				scs, err = SampleK(u, 1, tc.singles, 7)
			}
			if err != nil {
				t.Fatal(err)
			}
			pairs, err := SampleK(u, 2, tc.pairs, 11)
			if err != nil {
				t.Fatal(err)
			}
			scs = append(scs, pairs...)
			nominal, err := loss.AnalyzeCtx(context.Background(), d, plan)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]Outcome, len(scs))
			replays := 0
			for i, sc := range scs {
				want[i] = naiveOutcome(t, d, plan, nominal, sc)
				if want[i].FullReplay {
					replays++
				}
			}
			if replays == 0 {
				t.Fatal("no scenario needed a replay; the fixture exercises nothing")
			}
			for _, serial := range []bool{true, false} {
				rep, err := Analyze(context.Background(), d, plan, scs, Options{Serial: serial})
				if err != nil {
					t.Fatal(err)
				}
				for i, got := range rep.Outcomes {
					if !sameOutcome(got, want[i]) {
						t.Fatalf("serial=%v scenario %v:\n got %+v\nwant %+v", serial, scs[i], got, want[i])
					}
				}
			}
		})
	}
}
