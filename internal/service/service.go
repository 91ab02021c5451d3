// Package service turns the xring synthesis library into a
// long-running daemon: an HTTP JSON API that accepts Network + Options
// requests, canonicalizes and hashes each one into a content-addressed
// key, deduplicates concurrent identical requests (singleflight),
// serves repeats from a bounded LRU result cache, and runs misses on a
// bounded job queue with admission control — queue-full requests get
// 429 + Retry-After instead of unbounded latency, and per-request
// deadlines cancel into core's stage boundaries. Per-stage progress
// streams to clients over SSE, derived from the engine's obs spans via
// obs.WithProgress.
//
// Endpoints (see SERVICE.md for the full contract):
//
//	POST /v1/synthesize        submit (sync by default; "async": true -> 202)
//	GET  /v1/jobs/{id}         job status + summary
//	GET  /v1/jobs/{id}/events  SSE progress stream (replay + live)
//	GET  /v1/jobs/{id}/design  exact designio.Save bytes of the result
//	GET  /v1/designs/{key}     cached design by content key
//	POST /v1/explore           submit a design-space grid study (sync; "async": true -> 202)
//	GET  /v1/explore/{id}      study status: per-cell outcomes, cache attribution, frontier
//	GET  /v1/explore/{id}/events   SSE stream: cell completions + incremental frontier events
//	GET  /v1/explore/{id}/frontier Pareto frontier, canonical JSON (?format=csv for CSV)
//	POST /v1/whatif            replay a cached design under injected faults (sync; "async": true -> 202)
//	GET  /v1/whatif/{id}       replay status + survivability report
//	GET  /v1/whatif/{id}/events    SSE stream: per-fault-scenario replay events
//	GET  /v1/stats             always-on admission/cache counters + build info
//	GET  /v1/cluster           cluster membership/ownership view (404 unless clustered)
//	GET  /v1/cluster/entry/{key}   persist envelope of a cached design (cache peer-fill)
//	POST /v1/cluster/construct     solve one Step-1 ring construction for the fleet
//	GET  /healthz, /readyz     liveness / readiness (readyz 503 + JSON load signal while draining)
//	GET  /metrics              Prometheus text exposition (JSON via ?format=json)
//	GET  /debug/flightrecorder last-N completed job records (trace IDs, stage timings)
//
// Every request carries a W3C trace ID: accepted from an incoming
// traceparent header or generated at admission, it is echoed in the
// X-Trace-Id response header, the response envelope, every SSE event,
// and the flight-recorder record of the job — one key correlates a
// client log line with the server's view of the same run.
//
// Results embed the designio.Save payload, and the design endpoints
// serve its exact bytes, so a service response is byte-comparable with
// xring.Synthesize + designio.Save run locally — the property the e2e
// test pins and the cache relies on for soundness.
package service

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"xring/internal/core"
	"xring/internal/lru"
	"xring/internal/milp"
	"xring/internal/obs"
	"xring/internal/resilience"
)

func init() {
	// Lets operators force the degraded path from the fault DSL:
	// xringd -fault 'core.ring=error:budget'.
	resilience.RegisterFaultError("budget", milp.ErrBudget)
	resilience.RegisterFaultPoint("service.job",
		"service.cache.read", "service.cache.write")
}

// SynthFunc runs one resolved request. The default runs it on the
// server's core.Engine; tests substitute stubs to control timing
// without paying for real synthesis.
type SynthFunc func(ctx context.Context, r *resolved) (*core.Result, error)

// Config sizes the server. Zero values select the defaults.
type Config struct {
	// QueueDepth bounds jobs admitted but not yet running; a full
	// queue rejects with 429 + Retry-After (default 64).
	QueueDepth int
	// Workers is the number of concurrent synthesis runs (default 2 —
	// each run already fans out internally over the shared worker
	// pool, so a small number of jobs saturates the machine).
	Workers int
	// CacheEntries bounds the LRU result cache (default 256; 0 uses
	// the default, negative disables caching).
	CacheEntries int
	// DefaultDeadline applies when a request sets no deadlineMS
	// (default none).
	DefaultDeadline time.Duration
	// Synth overrides the engine call (tests only).
	Synth SynthFunc

	// PersistDir enables the crash-safe disk tier of the result cache:
	// every completed synthesis is also written there (checksummed,
	// atomic rename) and survives a restart — including kill -9.
	// Empty disables persistence.
	PersistDir string
	// PersistEntries bounds the on-disk entry count; the oldest entries
	// are deleted past it (default 1024).
	PersistEntries int
	// StageTimeout is the per-stage watchdog: if a job makes no engine
	// progress (no stage span finishes) for this long, it is cancelled
	// with a StageTimeoutError (HTTP 504). Zero disables the watchdog.
	StageTimeout time.Duration
	// FaultSpec is a resilience.Parse fault-injection DSL string applied
	// to every job's context — for chaos drills and the service tests.
	// Empty injects nothing.
	FaultSpec string
	// Injector overrides FaultSpec with a pre-built injector (tests).
	Injector *resilience.Injector

	// FlightRecords sizes the always-on flight recorder: the last N
	// completed job records kept in a fixed ring for /debug/flightrecorder
	// (default 256; it cannot be disabled — idle cost is near zero).
	FlightRecords int
	// FlightDir, when set, enables automatic disk snapshots of the
	// flight recorder on panic recovery and stage timeout — the last
	// N jobs' worth of context for the run that just went wrong.
	FlightDir string

	// PeerFetch, when set, enables cluster cache peer-fill: on a cache
	// miss the server asks it for the key's persist envelope (the exact
	// bytes a peer serves at GET /v1/cluster/entry/{key}) before paying
	// for a local solve. The envelope is validated with the same checks
	// as disk-tier crash recovery — checksum, key, schema and format
	// versions — so a peer can never inject an entry recovery would have
	// discarded. Any error or missing entry just means "solve locally".
	PeerFetch func(ctx context.Context, key string) ([]byte, error)
	// RingDelegate, when set, is the server engine's cluster delegate:
	// a Step-1 ring-cache miss may be solved by the floorplan's owner
	// shard instead (see core.RingDelegateFunc).
	RingDelegate core.RingDelegateFunc
	// ClusterInfo, when set, is served verbatim at GET /v1/cluster —
	// the shard's view of cluster membership, key ownership and peer
	// health. Unset, the endpoint answers 404 (not clustered).
	ClusterInfo func() any
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0
	}
	if c.PersistEntries <= 0 {
		c.PersistEntries = 1024
	}
	if c.FlightRecords <= 0 {
		c.FlightRecords = obs.DefaultFlightRecords
	}
	return c
}

// engineSynth is the production SynthFunc: it runs requests on e.
func engineSynth(e *core.Engine) SynthFunc {
	return func(ctx context.Context, r *resolved) (*core.Result, error) {
		if r.sweep {
			res, _, err := e.SweepCtx(ctx, r.net, r.opt, r.objective, r.cands)
			return res, err
		}
		return e.SynthesizeCtx(ctx, r.net, r.opt)
	}
}

// Server is the synthesis service: admission queue, workers, result
// cache and HTTP surface. Create with New, serve Handler(), stop with
// Drain.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	queue chan *job

	mu       sync.Mutex
	inflight map[string]*job // content key -> running/queued job (singleflight)

	// Retained runs of each kind, for status and event queries.
	jobs     *registry[*job]
	explores *registry[*exploration]
	whatifs  *registry[*whatifRun]

	engine   *core.Engine        // this server's Step-1 caches
	cache    *lru.Cache[*cached] // memory tier; see cachePut
	persist  *persistStore       // nil unless Config.PersistDir is set
	inj      *resilience.Injector
	flight   *obs.FlightRecorder
	draining atomic.Bool
	running  atomic.Int64 // jobs currently executing on a worker (readyz)
	wg       sync.WaitGroup
	st       stats

	startedAt time.Time
}

// New builds a server and starts its worker goroutines. It fails if
// the fault spec does not parse or the persist directory cannot be
// opened; crash recovery of a persisted cache happens here, before any
// request is admitted.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	inj := cfg.Injector
	if inj == nil && cfg.FaultSpec != "" {
		var err error
		if inj, err = resilience.Parse(cfg.FaultSpec); err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:       cfg,
		queue:     make(chan *job, cfg.QueueDepth),
		inflight:  map[string]*job{},
		jobs:      newRegistry[*job]("/v1/jobs/", "job", jobRetention),
		explores:  newRegistry[*exploration]("/v1/explore/", "exploration", exploreRetention),
		whatifs:   newRegistry[*whatifRun]("/v1/whatif/", "whatif", whatifRetention),
		engine:    core.NewEngine(cfg.RingDelegate),
		cache:     lru.New[*cached](cfg.CacheEntries),
		inj:       inj,
		flight:    obs.NewFlightRecorder(cfg.FlightRecords),
		startedAt: time.Now(),
	}
	if s.cfg.Synth == nil {
		s.cfg.Synth = engineSynth(s.engine)
	}
	if cfg.PersistDir != "" {
		store, entries, err := newPersistStore(cfg.PersistDir, cfg.PersistEntries, inj, &s.st)
		if err != nil {
			return nil, err
		}
		s.persist = store
		// Replay survivors oldest-first so the memory LRU ends up with
		// the newest entries at the front, mirroring pre-crash order.
		for _, c := range entries {
			s.cachePut(c)
		}
	}
	s.mux = s.routes()
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats returns the always-on admission/cache counters, enriched with
// uptime and the binary's build identity.
func (s *Server) Stats() Stats {
	st := s.st.snapshot()
	st.UptimeSec = time.Since(s.startedAt).Seconds()
	bi := ReadBuildInfo()
	st.BuildInfo = &bi
	return st
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain begins graceful shutdown: new submissions are rejected with
// 503, every already-admitted job (queued or running) completes, and
// Drain returns when the workers have exited — or when ctx expires,
// in which case the remaining jobs keep running in the background and
// an error is returned. Drain is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining.Swap(true) {
		close(s.queue) // workers drain the remaining buffered jobs, then exit
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain interrupted: %w", ctx.Err())
	}
}

// worker consumes admitted jobs until the queue closes at drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		mQueueDepth.Set(int64(len(s.queue)))
		s.run(j)
	}
}
