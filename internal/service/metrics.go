package service

// Service telemetry, following the repo-wide obs conventions
// (OBSERVABILITY.md). Two kinds of instrument live here. The event
// counters (requests, cache tiers, job outcomes, persist recovery,
// explore, whatif and cluster traffic) belong to the Server: stats
// below holds them as always-on atomics, GET /v1/stats reports them as
// Stats and GET /metrics adds them to the registry dump under their
// registry names, so each server reports its own counts even when one
// process hosts several. Gauges, histograms and the remaining
// counters are process-wide obs instruments, registered once at
// package init and gated on the obs metrics flag.

import (
	"sync/atomic"

	"xring/internal/obs"
)

// Job outcomes, as used by the outcome-split duration histograms and
// the flight recorder.
const (
	outcomeOK       = "ok"
	outcomeDegraded = "degraded"
	outcomeTimeout  = "timeout"
	outcomeError    = "error"
)

var jobDurationBounds = []float64{1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 60000}

var (
	mRequestsInvalid = obs.NewCounter("service.requests.invalid")
	mCacheMisses     = obs.NewCounter("service.cache.misses")
	mCacheEvicts     = obs.NewCounter("service.cache.evictions")
	mCacheSize       = obs.NewGauge("service.cache.size")
	mQueueDepth      = obs.NewGauge("service.queue.depth")
	mInflight        = obs.NewGauge("service.jobs.inflight")
	mEventsPublished = obs.NewCounter("service.events.published")
	mJobDurationMS   = obs.NewHistogram("service.job.duration_ms", "ms", jobDurationBounds)

	// Outcome-split duration histograms (ok / degraded / timeout /
	// error) plus admission-queue wait — the latency signals a
	// Prometheus scrape needs to chart fleet behavior and attribute
	// slowness to queueing vs synthesis. Exposed at GET /metrics as
	// xring_service_job_duration_ms_<outcome>_bucket etc.
	mJobDurationByOutcome = map[string]*obs.Histogram{
		outcomeOK:       obs.NewHistogram("service.job.duration_ms.ok", "ms", jobDurationBounds),
		outcomeDegraded: obs.NewHistogram("service.job.duration_ms.degraded", "ms", jobDurationBounds),
		outcomeTimeout:  obs.NewHistogram("service.job.duration_ms.timeout", "ms", jobDurationBounds),
		outcomeError:    obs.NewHistogram("service.job.duration_ms.error", "ms", jobDurationBounds),
	}
	mQueueWaitMS = obs.NewHistogram("service.job.queue_wait_ms", "ms",
		[]float64{0.1, 0.5, 1, 5, 10, 50, 100, 500, 1000, 5000, 10000})
	mFlightSnapshots = obs.NewCounter("service.flight.snapshots")

	// Exploration workload (the /v1/explore grid engine; the frontier's
	// own churn counters live in internal/explore).
	mExploreCellsDegraded = obs.NewCounter("explore.cells.degraded")
	mExploreStudyMS       = obs.NewHistogram("explore.study.duration_ms", "ms",
		[]float64{10, 50, 100, 500, 1000, 5000, 10000, 60000, 300000})
	mExploreCellMS = obs.NewHistogram("explore.cell.duration_ms", "ms", jobDurationBounds)

	// Fault-replay workload (the /v1/whatif engine; the per-scenario
	// replay counters live in internal/faults as faults.*).
	mWhatifMS = obs.NewHistogram("service.whatif.duration_ms", "ms", jobDurationBounds)

	// The persistent cache tier's disk traffic.
	mPersistWrites = obs.NewCounter("service.persist.writes")
	mPersistErrors = obs.NewCounter("service.persist.write_errors")
	mPersistEvicts = obs.NewCounter("service.persist.evictions")

	// Cluster peer-fill attempts that found nothing (the transport
	// counters live in internal/cluster as cluster.fill.* /
	// cluster.route.*).
	mPeerFillMisses = obs.NewCounter("cluster.peerfill.misses")
)

// Stats are the server's own always-on counters (independent of the
// obs metrics flag), as GET /v1/stats reports them. GET /metrics
// serves the same counts under the registry names in stats.metrics.
type Stats struct {
	Requests    int64 `json:"requests"`
	CacheHits   int64 `json:"cacheHits"`
	DedupHits   int64 `json:"dedupHits"`
	Rejected    int64 `json:"rejected"` // 429s (queue full)
	Drained     int64 `json:"drained"`  // 503s (shutting down)
	Synthesized int64 `json:"synthesized"`
	Failed      int64 `json:"failed"`
	// Resilience counters: jobs completed degraded (heuristic ring
	// fallback), panics contained to their job, stage-watchdog expiries,
	// and persistent-cache traffic (disk hits promoted to memory,
	// entries recovered at startup, corrupt/stale entries discarded).
	Degraded         int64 `json:"degraded"`
	Panics           int64 `json:"panics"`
	StageTimeouts    int64 `json:"stageTimeouts"`
	PersistHits      int64 `json:"persistHits"`
	PersistRecovered int64 `json:"persistRecovered"`
	PersistDiscarded int64 `json:"persistDiscarded"`
	// Exploration workload: studies admitted on /v1/explore, the cells
	// they expanded into, and cells that ended in error/timeout
	// (degraded cells count under Degraded like any other job).
	ExploreStudies     int64 `json:"exploreStudies"`
	ExploreCells       int64 `json:"exploreCells"`
	ExploreCellsFailed int64 `json:"exploreCellsFailed"`
	// Fault-replay workload: /v1/whatif runs admitted and the fault
	// scenarios they replayed.
	WhatifRuns      int64 `json:"whatifRuns"`
	WhatifScenarios int64 `json:"whatifScenarios"`
	// Cluster peer-fill: envelopes adopted from a peer instead of
	// solved locally, envelopes refused (corrupt plus stale, split on
	// GET /metrics), plus the serving side — envelopes handed to
	// fellow shards and ring-construction RPCs solved for the fleet.
	PeerFills            int64 `json:"peerFills"`
	PeerFillRejected     int64 `json:"peerFillRejected"`
	ClusterEntriesServed int64 `json:"clusterEntriesServed"`
	ClusterConstructs    int64 `json:"clusterConstructs"`
	// UptimeSec is seconds since the server was created; BuildInfo
	// identifies the binary (module version, VCS revision) so a fleet
	// dashboard can tell which build answered.
	UptimeSec float64    `json:"uptimeSec"`
	BuildInfo *BuildInfo `json:"buildInfo,omitempty"`
}

// stats is the server's count of each event, the one source of Stats
// and of the server's counters on GET /metrics.
type stats struct {
	requests           atomic.Int64
	cacheHits          atomic.Int64
	dedupHits          atomic.Int64
	rejected           atomic.Int64
	drained            atomic.Int64
	synthesized        atomic.Int64
	failed             atomic.Int64
	degraded           atomic.Int64
	panics             atomic.Int64
	stageTimeouts      atomic.Int64
	persistHits        atomic.Int64
	persistRecovered   atomic.Int64
	persistDiscarded   atomic.Int64
	exploreStudies     atomic.Int64
	exploreCells       atomic.Int64
	exploreCellsFailed atomic.Int64
	whatifRuns         atomic.Int64
	whatifScenarios    atomic.Int64
	peerFills          atomic.Int64
	peerFillCorrupt    atomic.Int64
	peerFillStale      atomic.Int64
	clusterEntries     atomic.Int64
	clusterConstructs  atomic.Int64
}

func (s *stats) snapshot() Stats {
	return Stats{
		Requests:             s.requests.Load(),
		CacheHits:            s.cacheHits.Load(),
		DedupHits:            s.dedupHits.Load(),
		Rejected:             s.rejected.Load(),
		Drained:              s.drained.Load(),
		Synthesized:          s.synthesized.Load(),
		Failed:               s.failed.Load(),
		Degraded:             s.degraded.Load(),
		Panics:               s.panics.Load(),
		StageTimeouts:        s.stageTimeouts.Load(),
		PersistHits:          s.persistHits.Load(),
		PersistRecovered:     s.persistRecovered.Load(),
		PersistDiscarded:     s.persistDiscarded.Load(),
		ExploreStudies:       s.exploreStudies.Load(),
		ExploreCells:         s.exploreCells.Load(),
		ExploreCellsFailed:   s.exploreCellsFailed.Load(),
		WhatifRuns:           s.whatifRuns.Load(),
		WhatifScenarios:      s.whatifScenarios.Load(),
		PeerFills:            s.peerFills.Load(),
		PeerFillRejected:     s.peerFillCorrupt.Load() + s.peerFillStale.Load(),
		ClusterEntriesServed: s.clusterEntries.Load(),
		ClusterConstructs:    s.clusterConstructs.Load(),
	}
}

// metrics returns the counters under their registry names, as GET
// /metrics serves them (Prometheus xring_<name>_total).
func (s *stats) metrics() map[string]int64 {
	return map[string]int64{
		"service.requests":              s.requests.Load(),
		"service.cache.hits":            s.cacheHits.Load(),
		"service.dedup.hits":            s.dedupHits.Load(),
		"service.admission.queue_full":  s.rejected.Load(),
		"service.admission.draining":    s.drained.Load(),
		"service.jobs.done":             s.synthesized.Load(),
		"service.jobs.failed":           s.failed.Load(),
		"service.jobs.degraded":         s.degraded.Load(),
		"service.jobs.panics_recovered": s.panics.Load(),
		"service.jobs.stage_timeouts":   s.stageTimeouts.Load(),
		"service.persist.hits":          s.persistHits.Load(),
		"service.persist.recovered":     s.persistRecovered.Load(),
		"service.persist.discarded":     s.persistDiscarded.Load(),
		"explore.studies":               s.exploreStudies.Load(),
		"explore.cells":                 s.exploreCells.Load(),
		"explore.cells.failed":          s.exploreCellsFailed.Load(),
		"service.whatif.runs":           s.whatifRuns.Load(),
		"service.whatif.scenarios":      s.whatifScenarios.Load(),
		"cluster.peerfill.adopted":      s.peerFills.Load(),
		"cluster.peerfill.corrupt":      s.peerFillCorrupt.Load(),
		"cluster.peerfill.stale":        s.peerFillStale.Load(),
		"cluster.entries.served":        s.clusterEntries.Load(),
		"cluster.construct.served":      s.clusterConstructs.Load(),
	}
}
