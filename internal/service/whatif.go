package service

// The /v1/whatif workload: replay a cached design (addressed by its
// content key, exactly as served by GET /v1/designs/{key}) under an
// injected fault spec and report survivability. The design is loaded
// from the cache tiers — a whatif never synthesizes — so the replay is
// cheap enough to run exhaustive single-fault universes synchronously.
// Per-scenario results stream over the same SSE machinery as job and
// exploration progress; the aggregated survivability report lands in
// the status body.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"xring/internal/designio"
	"xring/internal/faults"
	"xring/internal/noc"
	"xring/internal/pdn"
	"xring/internal/resilience"
	"xring/internal/router"
)

// FaultSpec is one explicit fault over the wire. Exactly one of wg/sc
// locates the element; src/dst name the channel for mrr and detune
// faults; edge is the cut tour edge for ring-segment faults.
type FaultSpec struct {
	Kind     string  `json:"kind"` // mrr | segment | detune
	WG       *int    `json:"wg,omitempty"`
	SC       *int    `json:"sc,omitempty"`
	Src      int     `json:"src,omitempty"`
	Dst      int     `json:"dst,omitempty"`
	Role     string  `json:"role,omitempty"` // tx | rx (default rx)
	Edge     *int    `json:"edge,omitempty"`
	DetuneDB float64 `json:"detuneDB,omitempty"`
}

// WhatifFaults selects what to replay: either an explicit fault set
// (inject), or a generated universe of the given kinds expanded into
// size-k scenarios by enumeration or seeded sampling.
type WhatifFaults struct {
	// Kinds filters the fault universe: mrr, segment, detune. Empty
	// selects all three.
	Kinds []string `json:"kinds,omitempty"`
	// K is the scenario size — faults injected simultaneously (default 1).
	K int `json:"k,omitempty"`
	// Mode picks scenario expansion: "enumerate" (default) replays every
	// size-K combination; "sample" draws Samples seeded-random ones.
	Mode string `json:"mode,omitempty"`
	// Samples bounds sample mode (default 64); Seed makes it
	// deterministic.
	Samples int   `json:"samples,omitempty"`
	Seed    int64 `json:"seed,omitempty"`
	// DetuneDB overrides the detuned-receiver penalty (default 3 dB).
	DetuneDB float64 `json:"detuneDB,omitempty"`
	// Inject replays exactly one scenario made of these faults,
	// bypassing universe expansion.
	Inject []FaultSpec `json:"inject,omitempty"`
}

// WhatifRequest is the POST /v1/whatif body.
type WhatifRequest struct {
	// Key is the content key of a cached design (from a synthesize
	// response or an exploration cell). Unknown keys get 404.
	Key    string       `json:"key"`
	Faults WhatifFaults `json:"faults"`
	// Serial disables the parallel scenario fan-out.
	Serial bool `json:"serial,omitempty"`
	// Async returns 202 + replay id immediately; poll GET /v1/whatif/{id}
	// or stream /v1/whatif/{id}/events.
	Async bool `json:"async,omitempty"`
}

// WhatifStatus is the GET /v1/whatif/{id} body (and the synchronous
// POST response).
type WhatifStatus struct {
	ID      string   `json:"id"`
	TraceID string   `json:"traceID,omitempty"`
	Key     string   `json:"key"`
	State   JobState `json:"state"`
	// Universe is the generated fault-universe size (0 for inject mode);
	// Scenarios the number of replays; Completed how many have finished.
	Universe  int     `json:"universe"`
	Scenarios int     `json:"scenarios"`
	Completed int     `json:"completed"`
	Events    int     `json:"events"`
	ElapsedMS float64 `json:"elapsedMS,omitempty"`
	// Degraded/DegradedReason mirror the replayed design's cached
	// summary: a whatif over a heuristic-fallback design says so.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degradedReason,omitempty"`
	// Report is the survivability report, present once the replay is
	// done.
	Report *faults.Report `json:"report,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// whatifRun is the server-side record of one fault replay.
type whatifRun struct {
	run
	key string

	// Guarded by run.mu.
	universe       int
	scenarios      int
	completed      int
	elapsedMS      float64
	degraded       bool
	degradedReason string
	report         *faults.Report
}

func (wr *whatifRun) status() *WhatifStatus {
	events := wr.log.count()
	wr.mu.Lock()
	defer wr.mu.Unlock()
	st := &WhatifStatus{
		ID: wr.id, TraceID: wr.traceID, Key: wr.key, State: wr.state,
		Universe: wr.universe, Scenarios: wr.scenarios, Completed: wr.completed,
		Events: events, ElapsedMS: wr.elapsedMS,
		Degraded: wr.degraded, DegradedReason: wr.degradedReason,
		Report: wr.report,
	}
	if wr.err != nil {
		st.Error = wr.err.Error()
	}
	return st
}

func (wr *whatifRun) statusBody() any { return wr.status() }

// whatifID builds a stable replay identifier: an admission sequence
// number plus a digest of the design key and the fault spec (the
// replay's content identity).
func whatifID(seq uint64, key string, spec []byte) string {
	h := sha256.New()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write(spec)
	return fmt.Sprintf("w%d-%s", seq, hex.EncodeToString(h.Sum(nil))[:12])
}

// maxWhatifScenarios bounds one replay's expansion (an enumerated k=3
// universe must not mint millions of scenarios; use sample mode).
const maxWhatifScenarios = 4096

// maxWhatifFaults bounds one replay's expansion by total faults,
// scenarios × k: the scenario cap alone still admits a k near the
// universe size, whose few thousand scenarios each carry thousands of
// faults.
const maxWhatifFaults = 8 * maxWhatifScenarios

// checkFaultTotal rejects an expansion of n scenarios of k faults each
// when it would exceed maxWhatifFaults, without multiplying (k is
// client-chosen and may be huge).
func checkFaultTotal(n, k int) error {
	if k > 0 && n > maxWhatifFaults/k {
		return fmt.Errorf("%d scenarios of %d faults exceed the max of %d faults per replay",
			n, k, maxWhatifFaults)
	}
	return nil
}

// toFault validates one wire fault against the design it will be
// injected into.
func (fs *FaultSpec) toFault(d *router.Design) (faults.Fault, error) {
	f := faults.Fault{WG: -1, SC: -1, Edge: -1}
	kind, err := faults.ParseKind(fs.Kind)
	if err != nil {
		return f, err
	}
	f.Kind = kind
	switch fs.Role {
	case "", "rx":
		f.Role = faults.RoleRx
	case "tx":
		f.Role = faults.RoleTx
	default:
		return f, fmt.Errorf("unknown MRR role %q (tx or rx)", fs.Role)
	}
	if (fs.WG == nil) == (fs.SC == nil) {
		return f, errors.New("exactly one of wg and sc must be set")
	}
	if fs.WG != nil {
		if *fs.WG < 0 || *fs.WG >= len(d.Waveguides) {
			return f, fmt.Errorf("wg %d out of range [0, %d)", *fs.WG, len(d.Waveguides))
		}
		f.WG = *fs.WG
	} else {
		if *fs.SC < 0 || *fs.SC >= len(d.Shortcuts) {
			return f, fmt.Errorf("sc %d out of range [0, %d)", *fs.SC, len(d.Shortcuts))
		}
		f.SC = *fs.SC
	}
	if kind == faults.KindSegment {
		if f.WG >= 0 {
			if fs.Edge == nil || *fs.Edge < 0 || *fs.Edge >= d.N() {
				return f, fmt.Errorf("segment cut on wg %d needs edge in [0, %d)", f.WG, d.N())
			}
			f.Edge = *fs.Edge
		}
		return f, nil
	}
	// mrr / detune target a channel: (element, src->dst) must exist.
	f.Sig = noc.Signal{Src: fs.Src, Dst: fs.Dst}
	found := false
	if f.WG >= 0 {
		for _, c := range d.Waveguides[f.WG].Channels {
			if c.Sig == f.Sig {
				found = true
				break
			}
		}
	} else {
		for _, c := range d.Shortcuts[f.SC].Channels {
			if c.Sig == f.Sig {
				found = true
				break
			}
		}
	}
	if !found {
		return f, fmt.Errorf("no channel %d->%d on the targeted element", fs.Src, fs.Dst)
	}
	if kind == faults.KindDetune {
		f.DetuneDB = fs.DetuneDB
		if f.DetuneDB <= 0 {
			f.DetuneDB = faults.DefaultDetuneDB
		}
	}
	return f, nil
}

// expandScenarios turns the wire spec into the scenario list to replay,
// returning the universe size alongside (0 in inject mode).
func expandScenarios(d *router.Design, spec *WhatifFaults) ([]faults.Scenario, int, error) {
	if len(spec.Inject) > 0 {
		if err := checkFaultTotal(1, len(spec.Inject)); err != nil {
			return nil, 0, err
		}
		sc := make(faults.Scenario, len(spec.Inject))
		for i := range spec.Inject {
			f, err := spec.Inject[i].toFault(d)
			if err != nil {
				return nil, 0, fmt.Errorf("inject[%d]: %w", i, err)
			}
			sc[i] = f
		}
		return []faults.Scenario{sc}, 0, nil
	}
	kinds := []faults.Kind{faults.KindMRR, faults.KindSegment, faults.KindDetune}
	if len(spec.Kinds) > 0 {
		kinds = kinds[:0]
		for _, s := range spec.Kinds {
			k, err := faults.ParseKind(s)
			if err != nil {
				return nil, 0, err
			}
			kinds = append(kinds, k)
		}
	}
	universe := faults.Universe(d, kinds, spec.DetuneDB)
	if len(universe) == 0 {
		return nil, 0, errors.New("empty fault universe for this design")
	}
	k := spec.K
	if k == 0 {
		k = 1
	}
	var (
		scs []faults.Scenario
		err error
	)
	switch spec.Mode {
	case "", "enumerate":
		// Bound by the binomial count before materializing anything: a
		// k=3 universe of a few thousand faults enumerates billions of
		// scenarios, which must be rejected without allocating them.
		n := faults.Combinations(len(universe), k, maxWhatifScenarios)
		if n > maxWhatifScenarios {
			err = fmt.Errorf("k=%d over a universe of %d enumerates more than %d scenarios; use mode \"sample\"",
				k, len(universe), maxWhatifScenarios)
		} else if err = checkFaultTotal(n, k); err == nil {
			scs, err = faults.EnumerateK(universe, k)
		}
	case "sample":
		n := spec.Samples
		if n <= 0 {
			n = 64
		}
		if n > maxWhatifScenarios {
			err = fmt.Errorf("samples %d exceeds max %d", n, maxWhatifScenarios)
		} else if err = checkFaultTotal(n, k); err == nil {
			scs, err = faults.SampleK(universe, k, n, spec.Seed)
		}
	default:
		err = fmt.Errorf("unknown mode %q (enumerate or sample)", spec.Mode)
	}
	if err != nil {
		return nil, 0, err
	}
	return scs, len(universe), nil
}

func (s *Server) handleWhatif(w http.ResponseWriter, r *http.Request) {
	traceID := traceRequest(w, r)
	// A draining server refuses before the cache read; admit re-checks
	// under s.mu.
	if s.draining.Load() {
		s.rejectDraining(w, traceID)
		return
	}
	var req WhatifRequest
	if !decodeBody(w, r, traceID, &req) {
		return
	}
	c, tier, ok := s.cacheGet(req.Key)
	if !ok {
		writeErrorTraced(w, http.StatusNotFound, errors.New("design not cached"), traceID)
		return
	}
	s.countCacheServe(tier)
	d, err := designio.Load(c.design)
	if err != nil {
		writeErrorTraced(w, http.StatusInternalServerError,
			fmt.Errorf("loading cached design: %w", err), traceID)
		return
	}
	scenarios, universe, err := expandScenarios(d, &req.Faults)
	if err != nil {
		mRequestsInvalid.Inc()
		writeErrorTraced(w, http.StatusBadRequest, err, traceID)
		return
	}
	spec, _ := json.Marshal(&req.Faults)
	wr := &whatifRun{key: req.Key, universe: universe, scenarios: len(scenarios)}
	if c.summary != nil {
		wr.degraded = c.summary.Degraded
		wr.degradedReason = c.summary.DegradedReason
	}
	wr.init(whatifID(s.whatifs.next(), req.Key, spec), traceID, map[string]any{
		"key": req.Key, "universe": universe, "scenarios": len(scenarios),
	})
	// Runs count on admission (the replay is registered and will
	// execute), not on handler entry: 404s and malformed bodies are not
	// runs.
	if !s.admit(w, traceID, func() {
		s.whatifs.add(wr)
		s.st.whatifRuns.Add(1)
		s.st.whatifScenarios.Add(int64(len(scenarios)))
	}) {
		return
	}
	go s.runWhatif(wr, d, scenarios, req.Serial)

	if s.whatifs.await(w, r, wr, req.Async, wr.statusBody) {
		writeJSON(w, http.StatusOK, wr.status())
	}
}

// runWhatif is the replay controller, on its own goroutine (accounted
// in s.wg, so Drain waits for running replays like it waits for jobs).
func (s *Server) runWhatif(wr *whatifRun, d *router.Design, scenarios []faults.Scenario, serial bool) {
	defer s.wg.Done()
	wr.start()

	rep, err := s.replayIsolated(wr, d, scenarios, serial)

	elapsedMS := float64(time.Since(wr.started).Microseconds()) / 1000
	mWhatifMS.Observe(elapsedMS)
	var verdict map[string]any
	if err == nil {
		verdict = map[string]any{
			"fullSetSurvives": rep.FullSetSurvives,
			"minSurvived":     rep.MinSurvived,
			"maxLost":         rep.MaxLost,
		}
	}
	wr.finish(err, verdict, func() {
		wr.elapsedMS = elapsedMS
		wr.report = rep
	})
}

// replayIsolated runs the analyzer with panic containment (a serial
// replay panics on its caller; pooled ones come back as errors) and
// publishes one "fault" event per completed scenario.
func (s *Server) replayIsolated(wr *whatifRun, d *router.Design, scenarios []faults.Scenario, serial bool) (rep *faults.Report, err error) {
	defer resilience.RecoverTo(&err, "service.whatif")
	// Designs synthesized with an aligned tree PDN carry openings; their
	// feed losses replay exactly. Designs without openings (no PDN, or
	// the comb ablation) replay without PDN terms — the structural
	// survivability verdict is identical either way.
	var plan *pdn.Plan
	if designHasOpenings(d) {
		if plan, err = pdn.BuildTree(d); err != nil {
			return nil, fmt.Errorf("rebuilding PDN for replay: %w", err)
		}
	}
	return faults.Analyze(context.Background(), d, plan, scenarios, faults.Options{
		Serial: serial,
		OnOutcome: func(i int, o faults.Outcome) {
			labels := make([]string, len(o.Scenario))
			for j, f := range o.Scenario {
				labels[j] = f.String()
			}
			wr.mu.Lock()
			wr.completed++
			wr.mu.Unlock()
			wr.log.publish(Event{Type: "fault", Attrs: map[string]any{
				"index":    i,
				"faults":   labels,
				"lost":     len(o.Lost),
				"promoted": len(o.Promoted),
				"detuned":  len(o.Detuned),
				"survived": o.Survived,
				"worstIL":  o.WorstIL,
			}})
		},
	})
}

// designHasOpenings reports whether every sender-bearing ring waveguide
// carries an opening — the shape the aligned tree PDN requires.
func designHasOpenings(d *router.Design) bool {
	some := false
	for _, w := range d.Waveguides {
		if len(w.Channels) == 0 {
			continue
		}
		if w.Opening < 0 {
			return false
		}
		some = true
	}
	return some
}
