package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xring/internal/core"
	"xring/internal/designio"
	"xring/internal/inventory"
	"xring/internal/obs"
	"xring/internal/resilience"
)

// Summary is the headline metrics of a synthesized design, mirroring
// the CLI's result table. WorstSNRdB is omitted for noise-free designs
// (+Inf is not representable in JSON).
type Summary struct {
	Nodes         int      `json:"nodes"`
	MaxWL         int      `json:"maxWL"`
	Policy        string   `json:"policy"` // fresh | share
	Waveguides    int      `json:"waveguides"`
	Shortcuts     int      `json:"shortcuts"`
	Wavelengths   int      `json:"wavelengths"`
	WorstILdB     float64  `json:"worstIL_dB"`
	WorstLenMM    float64  `json:"worstLen_mm"`
	Crossings     int      `json:"crossingsOnWorstPath"`
	PowerMW       float64  `json:"laserPower_mW"`
	NumNoisy      int      `json:"signalsWithNoise"`
	NoiseFreeFrac float64  `json:"noiseFreeFraction"`
	WorstSNRdB    *float64 `json:"worstSNR_dB,omitempty"`
	// MRRs is the design's total microring-resonator count (modulators,
	// receivers, terminators, CSE rings, PDN rings) — the device-budget
	// objective of exploration frontiers.
	MRRs    int     `json:"mrrs"`
	SynthMS float64 `json:"synthesisMS"`
	// Degraded marks a result produced by the heuristic fallback path
	// (solver budget exhausted or deadline nearly expired) rather than
	// the exact Step-1 solve; DegradedReason says why. The design is
	// still valid and fully routed, just not provably optimal.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degradedReason,omitempty"`
	// TraceID is the trace ID of the request that ran the synthesis. On
	// a cache hit it keeps the synthesizing request's ID (the envelope's
	// TraceID is the current request's), so a cached summary still
	// points at the run that produced it.
	TraceID string `json:"traceID,omitempty"`
}

// Response is the POST /v1/synthesize result envelope. Design carries
// the designio.Save payload (fetch /v1/jobs/{id}/design for its exact
// uncompacted bytes).
type Response struct {
	JobID string `json:"jobID"`
	Key   string `json:"key"`
	// TraceID is the current request's trace ID (from its traceparent
	// header, or generated), also echoed in the X-Trace-Id header.
	TraceID   string          `json:"traceID,omitempty"`
	Source    string          `json:"source"` // synthesized | cache | dedup | peerfill
	Summary   *Summary        `json:"summary,omitempty"`
	Design    json.RawMessage `json:"design,omitempty"`
	ElapsedMS float64         `json:"elapsedMS"`
}

// JobStatus is the GET /v1/jobs/{id} body.
type JobStatus struct {
	JobID   string   `json:"jobID"`
	Key     string   `json:"key"`
	TraceID string   `json:"traceID,omitempty"`
	State   JobState `json:"state"`
	Events  int      `json:"events"`
	Summary *Summary `json:"summary,omitempty"`
	Error   string   `json:"error,omitempty"`
}

func summarize(res *core.Result) *Summary {
	s := &Summary{
		Nodes:         res.Design.N(),
		MaxWL:         res.Opt.MaxWL,
		Policy:        "fresh",
		Waveguides:    len(res.Design.Waveguides),
		Shortcuts:     len(res.Design.Shortcuts),
		Wavelengths:   res.Loss.WavelengthCount,
		WorstILdB:     res.Loss.WorstIL,
		WorstLenMM:    res.Loss.WorstLen,
		Crossings:     res.Loss.WorstCrossings,
		PowerMW:       res.Loss.TotalPowerMW,
		NumNoisy:      res.Xtalk.NumNoisy,
		NoiseFreeFrac: res.Xtalk.NoiseFreeFrac,
		SynthMS:       float64(res.SynthTime.Microseconds()) / 1000,
	}
	if res.Opt.ShareWavelengths {
		s.Policy = "share"
	}
	if snr := res.Xtalk.WorstSNR; !math.IsInf(snr, 0) && !math.IsNaN(snr) {
		s.WorstSNRdB = &snr
	}
	if cnt, err := inventory.Take(res.Design, res.Plan); err == nil {
		s.MRRs = cnt.TotalMRRs
	}
	s.Degraded = res.Degraded
	s.DegradedReason = res.DegradedReason
	return s
}

// StageTimeoutError reports a job killed by the per-stage watchdog:
// no engine stage finished within Config.StageTimeout. LastStage is
// the last stage that did complete ("" if none did), which is the one
// to suspect. Mapped to HTTP 504.
type StageTimeoutError struct {
	LastStage string
	Timeout   time.Duration
}

func (e *StageTimeoutError) Error() string {
	if e.LastStage == "" {
		return fmt.Sprintf("service: no stage completed within %v", e.Timeout)
	}
	return fmt.Sprintf("service: no stage completed within %v (last finished: %s)", e.Timeout, e.LastStage)
}

// run executes one admitted job on a worker goroutine: per-job
// deadline, fault-injection context, stage watchdog, span-to-event
// progress bridge, synthesis (panics contained), serialization, cache
// fill (memory and disk tiers), singleflight release.
func (s *Server) run(j *job) {
	queueWait := time.Since(j.started)
	mQueueWaitMS.Observe(float64(queueWait.Microseconds()) / 1000)
	j.start()
	mInflight.Add(1)
	s.running.Add(1)
	defer func() {
		mInflight.Add(-1)
		s.running.Add(-1)
	}()
	ctx := obs.WithTraceID(context.Background(), obs.TraceID(j.traceID))
	cancel := context.CancelFunc(func() {})
	if j.deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, j.deadline)
	}
	defer cancel()
	if s.inj != nil {
		ctx = resilience.WithInjector(ctx, s.inj)
	}

	// Stage watchdog: a job that stops producing progress events for
	// StageTimeout is cancelled with a typed cause — a hung stage fails
	// one job with a 504 instead of pinning a worker forever.
	var lastStage atomic.Value
	lastStage.Store("")
	var watchdog *time.Timer
	if s.cfg.StageTimeout > 0 {
		var wcancel context.CancelCauseFunc
		ctx, wcancel = context.WithCancelCause(ctx)
		watchdog = time.AfterFunc(s.cfg.StageTimeout, func() {
			s.st.stageTimeouts.Add(1)
			wcancel(&StageTimeoutError{
				LastStage: lastStage.Load().(string),
				Timeout:   s.cfg.StageTimeout,
			})
		})
		defer watchdog.Stop()
		defer wcancel(nil)
	}

	// Bridge engine spans into the job's event stream: every stage that
	// finishes under this context (shortcut.construct, mapping.run,
	// pdn.design, loss.analyze, sweep.candidate, ...) becomes one
	// progress event, scoped to exactly this job — and feeds the
	// watchdog, so any forward progress resets the stage budget. The
	// same records accumulate as stage timings for the flight recorder.
	var stageMu sync.Mutex
	var stages []obs.StageTiming
	ctx = obs.WithProgress(ctx, func(rec obs.SpanRecord) {
		lastStage.Store(rec.Name)
		if watchdog != nil {
			watchdog.Reset(s.cfg.StageTimeout)
		}
		stageMu.Lock()
		stages = append(stages, obs.StageTiming{Name: rec.Name, DurMS: float64(rec.DurNS) / 1e6})
		stageMu.Unlock()
		j.log.publish(Event{
			Type:  "stage",
			Stage: rec.Name,
			DurMS: float64(rec.DurNS) / 1e6,
			Attrs: rec.AttrMap(),
		})
	})

	t0 := time.Now()
	var summary *Summary
	var design []byte
	var err error
	// Cluster peer-fill: before paying for a solve, ask the key's owner
	// shard (and, across a topology change, its previous owner) for the
	// already-solved envelope. This runs inside the singleflight job, so
	// concurrent identical requests converge on one fetch — a fill racing
	// a local solve can never double-count cache metrics — and adoption
	// already placed the entry in both cache tiers.
	if c, ok := s.peerFill(ctx, j.key); ok {
		j.markPeerFilled()
		summary, design = c.summary, c.design
	} else {
		var res *core.Result
		res, err = s.synthIsolated(ctx, j)

		// Surface the watchdog's typed cause instead of the bare
		// context.Canceled the engine unwinds with.
		if err != nil {
			var ste *StageTimeoutError
			if errors.As(context.Cause(ctx), &ste) {
				err = ste
			}
		}

		if err == nil {
			summary = summarize(res)
			summary.TraceID = j.traceID
			design, err = designio.Save(res.Design)
		}
		if err == nil {
			s.st.synthesized.Add(1)
			if summary.Degraded {
				s.st.degraded.Add(1)
			}
			c := &cached{key: j.key, jobID: j.id, summary: summary, design: design}
			s.cachePut(c)
			if s.persist != nil {
				// A failed spill costs durability, not the request: the result
				// is already in memory and on its way to the client.
				if perr := s.persist.write(c); perr != nil {
					mPersistErrors.Inc()
				}
			}
		}
	}
	dur := time.Since(t0)
	if err != nil {
		s.st.failed.Add(1)
		var pe *resilience.PanicError
		if errors.As(err, &pe) {
			s.st.panics.Add(1)
		}
	}

	// Classify the outcome, observe the duration histograms, and append
	// the job's flight record. err is final here (designio.Save included),
	// so classification matches what the client is about to see.
	durMS := float64(dur.Microseconds()) / 1000
	outcome := classifyOutcome(summary, err)
	mJobDurationMS.Observe(durMS)
	if h, ok := mJobDurationByOutcome[outcome]; ok {
		h.Observe(durMS)
	}
	rec := obs.JobRecord{
		TraceID:     j.traceID,
		JobID:       j.id,
		Key:         j.key,
		Start:       t0,
		QueueWaitMS: float64(queueWait.Microseconds()) / 1000,
		DurMS:       durMS,
		Outcome:     outcome,
		Stages:      stages, // ours alone once the job is terminal
	}
	if summary != nil {
		rec.Degraded = summary.Degraded
		rec.DegradedReason = summary.DegradedReason
	}
	if err != nil {
		rec.Error = err.Error()
		var pe *resilience.PanicError
		rec.Panic = errors.As(err, &pe)
		var ie *resilience.InjectedError
		rec.Injected = errors.As(err, &ie)
	}
	s.flight.Record(rec)
	if s.cfg.FlightDir != "" && (rec.Panic || outcome == outcomeTimeout) {
		reason := outcomeTimeout
		if rec.Panic {
			reason = "panic"
		}
		if _, serr := s.flight.SnapshotToFile(s.cfg.FlightDir, reason); serr == nil {
			mFlightSnapshots.Inc()
		}
	}

	// Release the singleflight slot before waking waiters, so a request
	// arriving after completion sees the cache entry rather than
	// attaching to a finished job.
	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.mu.Unlock()
	j.finish(summary, design, err)
}

// classifyOutcome buckets a finished job for the outcome-split duration
// histograms and the flight recorder: ok, degraded (valid result via
// the fallback path), timeout (deadline or stage watchdog), error.
func classifyOutcome(summary *Summary, err error) string {
	if err == nil {
		if summary != nil && summary.Degraded {
			return outcomeDegraded
		}
		return outcomeOK
	}
	var ste *StageTimeoutError
	if errors.Is(err, context.DeadlineExceeded) || errors.As(err, &ste) {
		return outcomeTimeout
	}
	return outcomeError
}

// synthIsolated runs the engine with panic containment: a panic in
// synthesis (or injected at the service.job fault point) becomes a
// typed *resilience.PanicError carrying the stack, failing this job
// with a 500 instead of crashing the daemon and its other jobs.
func (s *Server) synthIsolated(ctx context.Context, j *job) (res *core.Result, err error) {
	defer resilience.RecoverTo(&err, "service.job")
	if ferr := resilience.Fire(ctx, "service.job"); ferr != nil {
		return nil, ferr
	}
	return s.cfg.Synth(ctx, j.req)
}

// Cache tiers, as reported by cacheGet and counted by countCacheServe.
const (
	tierMemory  = "memory"
	tierPersist = "persist"
)

// cacheGet is the two-tier cache lookup: the memory LRU first, then
// the disk tier, promoting disk hits into memory so repeats are free.
// It reports which tier served the hit and counts nothing itself —
// callers attribute each serve to exactly one tier via countCacheServe,
// so a persist-tier serve can never double-count as a memory hit.
func (s *Server) cacheGet(key string) (*cached, string, bool) {
	if c, ok := s.cache.Get(key); ok {
		return c, tierMemory, true
	}
	if s.persist == nil {
		return nil, "", false
	}
	c, ok := s.persist.read(key)
	if !ok {
		return nil, "", false
	}
	s.cachePut(c)
	return c, tierPersist, true
}

// countCacheServe attributes one cache serve to the tier that provided
// it: memory hits to cacheHits, disk hits to persistHits — one counter
// per serve, never both.
func (s *Server) countCacheServe(tier string) {
	if tier == tierPersist {
		s.st.persistHits.Add(1)
		return
	}
	s.st.cacheHits.Add(1)
}

// routes builds the HTTP surface.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/synthesize", s.handleSynthesize)
	mux.HandleFunc("GET /v1/jobs/{id}", s.jobs.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.jobs.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/design", s.handleJobDesign)
	mux.HandleFunc("GET /v1/designs/{key}", s.handleDesignByKey)
	mux.HandleFunc("POST /v1/explore", s.handleExplore)
	mux.HandleFunc("GET /v1/explore/{id}", s.explores.handleStatus)
	mux.HandleFunc("GET /v1/explore/{id}/events", s.explores.handleEvents)
	mux.HandleFunc("GET /v1/explore/{id}/frontier", s.handleExploreFrontier)
	mux.HandleFunc("POST /v1/whatif", s.handleWhatif)
	mux.HandleFunc("GET /v1/whatif/{id}", s.whatifs.handleStatus)
	mux.HandleFunc("GET /v1/whatif/{id}/events", s.whatifs.handleEvents)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/cluster", s.handleClusterInfo)
	mux.HandleFunc("GET /v1/cluster/entry/{key}", s.handleClusterEntry)
	mux.HandleFunc("POST /v1/cluster/construct", s.handleClusterConstruct)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/flightrecorder", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := s.flight.WriteSnapshot(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}

// handleMetrics serves the metrics registry with this server's
// counters (stats.metrics) added under their registry names. The
// default is Prometheus text exposition (v0.0.4) so a stock scraper
// works unconfigured; the JSON dump stays reachable via ?format=json
// or an Accept header preferring application/json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	d := obs.SnapshotMetrics()
	for name, v := range s.st.metrics() {
		d.Counters[name] = v
	}
	if r.URL.Query().Get("format") == "json" || strings.Contains(r.Header.Get("Accept"), "application/json") {
		writeJSON(w, http.StatusOK, d)
		return
	}
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	if err := obs.WritePrometheusDump(w, d); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// maxRequestBody bounds POST bodies (a 32-node all-to-all request is
// well under 64 KiB; the margin admits large explicit traffic lists).
const maxRequestBody = 8 << 20

// requestTraceID extracts the request's trace identity: a valid W3C
// traceparent header wins, anything else (absent, malformed, all-zero)
// gets a freshly generated ID, per the Trace Context spec.
func requestTraceID(r *http.Request) obs.TraceID {
	if tid, err := obs.ParseTraceparent(r.Header.Get("traceparent")); err == nil {
		return tid
	}
	return obs.NewTraceID()
}

// rejectDraining answers a request that arrived after Drain began.
func (s *Server) rejectDraining(w http.ResponseWriter, traceID string) {
	s.st.drained.Add(1)
	w.Header().Set("Retry-After", "5")
	writeErrorTraced(w, http.StatusServiceUnavailable, errDraining, traceID)
}

// traceRequest resolves the request's trace ID and echoes it in the
// X-Trace-Id response header.
func traceRequest(w http.ResponseWriter, r *http.Request) string {
	traceID := string(requestTraceID(r))
	w.Header().Set("X-Trace-Id", traceID)
	return traceID
}

// decodeStrict decodes one JSON value, rejecting unknown fields.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// decodeBody strictly decodes a POST body of at most maxRequestBody
// bytes, answering 400 when it does not parse.
func decodeBody(w http.ResponseWriter, r *http.Request, traceID string, v any) bool {
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, maxRequestBody), v); err != nil {
		mRequestsInvalid.Inc()
		writeErrorTraced(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err), traceID)
		return false
	}
	return true
}

func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	s.st.requests.Add(1)
	traceID := traceRequest(w, r)
	var req Request
	if !decodeBody(w, r, traceID, &req) {
		return
	}
	rr, err := req.resolve()
	if err != nil {
		mRequestsInvalid.Inc()
		writeErrorTraced(w, http.StatusBadRequest, err, traceID)
		return
	}
	key := canonicalKey(rr)

	// Content-addressed fast path (memory, then the persisted tier).
	// The envelope carries this request's trace ID; the cached summary
	// keeps the ID of the request that ran the synthesis.
	if c, tier, ok := s.cacheGet(key); ok {
		s.countCacheServe(tier)
		writeJSON(w, http.StatusOK, &Response{
			JobID: c.jobID, Key: key, TraceID: traceID, Source: "cache",
			Summary: c.summary, Design: c.design,
		})
		return
	}

	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	j, attached, err := s.admitJob(key, traceID, rr, deadline, true)
	switch err {
	case errDraining:
		s.rejectDraining(w, traceID)
		return
	case errQueueFull:
		s.st.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeErrorTraced(w, http.StatusTooManyRequests,
			fmt.Errorf("job queue full (depth %d)", s.cfg.QueueDepth), traceID)
		return
	}

	source := "synthesized"
	if attached {
		source = "dedup"
	}
	t0 := time.Now()
	if !s.jobs.await(w, r, j, req.Async, func() any {
		return &Response{JobID: j.id, Key: key, TraceID: traceID, Source: source}
	}) {
		return // accepted, or the client is gone and the job fills the cache
	}
	if _, _, _, jerr := j.snapshot(); jerr != nil {
		status := http.StatusUnprocessableEntity
		var ste *StageTimeoutError
		var pe *resilience.PanicError
		switch {
		case errors.Is(jerr, context.DeadlineExceeded), errors.As(jerr, &ste):
			status = http.StatusGatewayTimeout
		case errors.As(jerr, &pe):
			status = http.StatusInternalServerError
		}
		writeErrorTraced(w, status, jerr, traceID)
		return
	}
	j.mu.Lock()
	if j.peerFilled && source == "synthesized" {
		source = "peerfill" // the job adopted a peer's envelope instead of solving
	}
	resp := &Response{
		JobID: j.id, Key: key, TraceID: traceID, Source: source,
		Summary: j.summary, Design: j.design,
		ElapsedMS: float64(time.Since(t0).Microseconds()) / 1000,
	}
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// Refusals of admitJob for a queued job.
var (
	errDraining  = errors.New("server is draining")
	errQueueFull = errors.New("job queue full")
)

// admitJob is the one job-admission path for a content key that
// neither cache tier served: it counts the cache miss, then under s.mu
// attaches to the key's live in-flight job (a dedup hit) or creates and
// registers a new one. With queued set — /v1/synthesize — the new job
// goes on the bounded queue, and a draining server or a full queue
// refuses it with errDraining or errQueueFull, returned bare; otherwise
// — an explore cell — the caller runs the job itself, bypassing the
// queue.
func (s *Server) admitJob(key, traceID string, rr *resolved, deadline time.Duration, queued bool) (j *job, attached bool, err error) {
	mCacheMisses.Inc()
	s.mu.Lock()
	if j, ok := s.inflight[key]; ok && !j.terminal() {
		s.mu.Unlock()
		s.st.dedupHits.Add(1)
		return j, true, nil
	}
	// Drain closes the queue under s.mu, so this check must share the
	// enqueue's critical section: a send on it would panic.
	if queued && s.draining.Load() {
		s.mu.Unlock()
		return nil, false, errDraining
	}
	j = newJob(jobID(s.jobs.next(), key), key, traceID, rr, deadline)
	if queued {
		select {
		case s.queue <- j:
		default:
			s.mu.Unlock()
			return nil, false, errQueueFull
		}
		mQueueDepth.Set(int64(len(s.queue)))
	}
	s.inflight[key] = j
	s.jobs.add(j)
	s.mu.Unlock()
	return j, false, nil
}

// handleJobDesign serves the job result's exact designio.Save bytes —
// byte-identical to running the same request through the library.
func (s *Server) handleJobDesign(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.lookup(w, r)
	if !ok {
		return
	}
	state, _, design, jerr := j.snapshot()
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Design-Key", j.key)
		_, _ = w.Write(design)
	case StateFailed:
		writeError(w, http.StatusUnprocessableEntity, jerr)
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, fmt.Errorf("job is %s; no design yet", state))
	}
}

// handleDesignByKey serves a cached design by its content key, from
// either cache tier. The persist tier validates the key shape itself,
// so arbitrary path values never reach the filesystem. The body is the
// exact designio.Save payload, so degraded-mode provenance rides in
// headers: X-Design-Degraded plus the machine-readable reason.
func (s *Server) handleDesignByKey(w http.ResponseWriter, r *http.Request) {
	c, tier, ok := s.cacheGet(r.PathValue("key"))
	if !ok {
		// Cluster peer-fill: a key this shard has never seen may be
		// cached by its owner (or, after a rebalance, the previous
		// owner); adoption validates the envelope and fills both local
		// tiers, so the next fetch is a plain memory hit.
		if pc, pok := s.peerFill(r.Context(), r.PathValue("key")); pok {
			c, tier, ok = pc, tierPeer, true
		}
	}
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("design not cached"))
		return
	}
	if tier != tierPeer { // adoption is counted by peerFill, not as a hit
		s.countCacheServe(tier)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Job-ID", c.jobID)
	if c.summary != nil && c.summary.Degraded {
		w.Header().Set("X-Design-Degraded", "true")
		w.Header().Set("X-Design-Degraded-Reason", degradedReasonCode(c.summary.DegradedReason))
	}
	_, _ = w.Write(c.design)
}

// degradedReasonCode maps the engine's human-readable degraded reasons
// to stable machine-readable codes for the X-Design-Degraded-Reason
// header (and passes unknown reasons through verbatim rather than
// hiding them).
func degradedReasonCode(reason string) string {
	switch reason {
	case core.DegradedReasonBudget:
		return "solver-budget-exhausted"
	case core.DegradedReasonDeadline:
		return "deadline-near-expiry"
	case "":
		return "unknown"
	}
	return reason
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorBody is the uniform error envelope. TraceID is set on paths
// that have a request trace identity, so even a failure response can
// be correlated with server-side records.
type errorBody struct {
	Error   string `json:"error"`
	TraceID string `json:"traceID,omitempty"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeErrorTraced(w, status, err, "")
}

func writeErrorTraced(w http.ResponseWriter, status int, err error, traceID string) {
	msg := "unknown error"
	if err != nil {
		msg = err.Error()
	}
	writeJSON(w, status, errorBody{Error: msg, TraceID: traceID})
}
