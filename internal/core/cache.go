package core

// Ring-construction cache: Step 1 depends only on the floorplan and
// the ring options, so #wl sweeps, ablation variants and placement
// moves that revisit a geometry can skip the branch-and-bound. The key
// is the exact serialized floorplan (positions, die, options) — a
// perfect hash, so a hit can never return the wrong tour. Entries are
// shared read-only: SynthesizeOnRingCtx copies the tour and orders into
// every design it builds.
//
// Eviction is least-recently-used: placement searches stream hundreds
// of one-off geometries through the cache while revisiting a small
// working set of incumbents, so a hit touches its entry to the front
// and the entry that has gone unused longest is evicted at the cap.
// Hit/miss/evict counts are exported through the obs metrics registry.
// The cache, like the rest of the Step-1 state, belongs to an Engine.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"xring/internal/lru"
	"xring/internal/milp"
	"xring/internal/noc"
	"xring/internal/obs"
	"xring/internal/resilience"
	"xring/internal/ring"
)

// ringCacheCap bounds the Step-1 ring cache.
const ringCacheCap = 256

// The ring-cache counters are process-wide sums over every Engine; the
// size gauge reports the engine that changed last.
var (
	mRingCacheHits      = obs.NewCounter("core.ringcache.hits")
	mRingCacheMisses    = obs.NewCounter("core.ringcache.misses")
	mRingCacheEvicts    = obs.NewCounter("core.ringcache.evictions")
	mRingCacheSize      = obs.NewGauge("core.ringcache.size")
	mRingCacheCoalesced = obs.NewCounter("core.ringcache.coalesced")
)

// Engine runs the synthesis flow over its own Step-1 state: the ring
// cache, the singleflight table of in-flight solves and an optional
// cluster delegate. Engines share nothing, so two engines in one
// process behave like two processes. Each service.Server owns one; the
// package-level functions use a default engine.
type Engine struct {
	// rings caches Step-1 results; see the file comment.
	rings *lru.Cache[*ring.Result]

	// flights coalesces concurrent misses on the same floorplan key:
	// the first miss becomes the leader and solves; later misses wait
	// for the leader's flight to land and then re-check the cache.
	// Exploration grids fan many cells over one floorplan concurrently,
	// so without this every cell would pay the same branch-and-bound.
	flightMu sync.Mutex
	flights  map[string]chan struct{}

	delegate RingDelegateFunc
}

// NewEngine returns an engine with empty caches. A non-nil delegate is
// consulted by singleflight leaders on a ring-cache miss (see
// RingDelegateFunc).
func NewEngine(delegate RingDelegateFunc) *Engine {
	return &Engine{
		rings:    lru.New[*ring.Result](ringCacheCap),
		flights:  map[string]chan struct{}{},
		delegate: delegate,
	}
}

// defaultEngine serves the package-level Synthesize, Sweep and
// ConstructRingShared functions.
var defaultEngine = NewEngine(nil)

// floorplanKey serializes everything ring.Construct reads.
func floorplanKey(net *noc.Network, opt ring.Options) string {
	buf := make([]byte, 0, 16*(len(net.Nodes)+2))
	put := func(f float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		buf = append(buf, b[:]...)
	}
	put(net.DieW)
	put(net.DieH)
	for _, n := range net.Nodes {
		put(n.Pos.X)
		put(n.Pos.Y)
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(opt.MaxNodes)))
	buf = append(buf, b[:]...)
	if opt.DisableConflicts {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return string(buf)
}

// cacheLookup returns the cached Step-1 result for key, touching the
// entry to the LRU front on a hit.
func (e *Engine) cacheLookup(key string) (*ring.Result, bool) {
	r, ok := e.rings.Get(key)
	if ok {
		mRingCacheHits.Inc()
	} else {
		mRingCacheMisses.Inc()
	}
	return r, ok
}

// cacheInsert stores r under key, evicting from the LRU back at the
// cap. If a concurrent miss already inserted the key, its (identical)
// result is adopted and returned instead.
func (e *Engine) cacheInsert(key string, r *ring.Result) *ring.Result {
	r, evicted, size := e.rings.Put(key, r, false)
	mRingCacheEvicts.Add(int64(evicted))
	mRingCacheSize.Set(int64(size))
	return r
}

// RingDelegateFunc lets a cluster layer take over a ring-construction
// miss: given the floorplan and its cache key, it may return the
// Step-1 result computed elsewhere (the shard owning this floorplan
// cluster-wide). Returning ok=false means "solve locally" — the
// delegate declines for floorplans it owns itself and on any transport
// failure, so delegation can only ever add reuse, never a new failure
// mode. The solve is deterministic, so a delegated result is identical
// to a local one.
type RingDelegateFunc func(ctx context.Context, net *noc.Network, opt ring.Options, key string) (*ring.Result, bool)

// ConstructRingShared runs Step-1 ring construction through the
// engine's cache and singleflight WITHOUT consulting the cluster
// delegate: the entry point for a shard serving a construct RPC, where
// delegating again could ping-pong between shards that disagree about
// ownership during a topology change. Concurrent identical requests
// (local or forwarded by every other shard) coalesce onto one solve.
func (e *Engine) ConstructRingShared(ctx context.Context, net *noc.Network, opt ring.Options) (*ring.Result, error) {
	return e.constructRing(ctx, net, opt, floorplanKey(net, opt), false)
}

// ConstructRingShared is Engine.ConstructRingShared on the default engine.
func ConstructRingShared(ctx context.Context, net *noc.Network, opt ring.Options) (*ring.Result, error) {
	return defaultEngine.ConstructRingShared(ctx, net, opt)
}

// constructRing is ring.Construct behind the cache under key (the
// floorplanKey of net and opt), with singleflight miss coalescing;
// delegate lets a leader consult the cluster delegate.
// The solve is deterministic, so an adopted leader result is
// bit-identical to a private solve. A leader that fails (cancellation,
// solver budget) fills nothing; each waiter then retries on its own —
// one request's deadline must not poison identical requests that still
// have budget.
func (e *Engine) constructRing(ctx context.Context, net *noc.Network, opt ring.Options, key string, delegate bool) (*ring.Result, error) {
	for {
		if r, ok := e.cacheLookup(key); ok {
			return r, nil
		}
		e.flightMu.Lock()
		ch, inFlight := e.flights[key]
		if !inFlight {
			ch = make(chan struct{})
			e.flights[key] = ch
		}
		e.flightMu.Unlock()
		if inFlight {
			mRingCacheCoalesced.Inc()
			select {
			case <-ch:
				continue // leader landed; re-check the cache
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		// This goroutine is the leader. The cluster delegate (when
		// installed) gets the first shot: the floorplan's owner shard
		// solves once for the whole fleet, and the local singleflight
		// above makes this engine send at most one RPC per floorplan.
		var r *ring.Result
		var err error
		if delegate && e.delegate != nil {
			if dr, ok := e.delegate(ctx, net, opt, key); ok {
				r = dr
			}
		}
		if r == nil {
			r, err = ring.ConstructCtx(ctx, net, opt)
		}
		e.flightMu.Lock()
		delete(e.flights, key)
		e.flightMu.Unlock()
		close(ch)
		if err != nil {
			return nil, err
		}
		return e.cacheInsert(key, r), nil
	}
}

// ringDeadlineSlack is the remaining-deadline threshold below which
// constructRingResilient skips the exact branch-and-bound entirely:
// with less budget than this left, spending it on a search that will
// be cancelled mid-way serves nobody, while the polynomial heuristic
// still fits.
const ringDeadlineSlack = 250 * time.Millisecond

// The two degraded-mode reasons, exported so service surfaces can match
// them exactly (Result.DegradedReason carries one of these verbatim).
const (
	// DegradedReasonBudget: the exact Step-1 solve exhausted its
	// branch-and-bound budget and the heuristic constructor served.
	DegradedReasonBudget = "ring solver budget exhausted; heuristic constructor used"
	// DegradedReasonDeadline: the request deadline was nearly expired, so
	// the heuristic constructor served without attempting the exact solve.
	DegradedReasonDeadline = "deadline nearly expired; heuristic ring constructor used"
)

// constructRingResilient is constructRing with degraded-mode fallback.
// It fires the "core.ring" fault point (before the cache, so injection
// beats a warm entry), then: on a near-expired deadline or a solver
// budget exhaustion (errors.Is milp.ErrBudget), it falls back to the
// paper's heuristic ring constructor and returns a non-empty reason.
// Heuristic results are NOT inserted into the ring cache — a later
// un-degraded request for the same floorplan must still get the exact
// tour. With noFallback set the original error is returned instead.
func (e *Engine) constructRingResilient(ctx context.Context, net *noc.Network, opt ring.Options, noFallback bool) (*ring.Result, string, error) {
	key := floorplanKey(net, opt)
	err := resilience.Fire(ctx, "core.ring")
	if err == nil {
		if dl, ok := ctx.Deadline(); !noFallback && ok && time.Until(dl) < ringDeadlineSlack {
			// Serve what the remaining budget can afford. A warm cache
			// entry is still preferred: it is both exact and free.
			if r, ok := e.cacheLookup(key); ok {
				return r, "", nil
			}
			mFallbackDeadline.Inc()
			return heuristicFallback(ctx, net, opt, DegradedReasonDeadline, nil)
		}
		var res *ring.Result
		if res, err = e.constructRing(ctx, net, opt, key, true); err == nil {
			return res, "", nil
		}
	}
	// An injected or real solver failure: only budget exhaustion
	// degrades.
	if noFallback || !errors.Is(err, milp.ErrBudget) {
		return nil, "", err
	}
	mFallbackBudget.Inc()
	return heuristicFallback(ctx, net, opt, DegradedReasonBudget, err)
}

// heuristicFallback serves a degraded Step-1 request from the heuristic
// ring constructor. A heuristic failure is wrapped with cause, the
// exact-path error that triggered the fallback, when there is one.
func heuristicFallback(ctx context.Context, net *noc.Network, opt ring.Options, reason string, cause error) (*ring.Result, string, error) {
	res, err := ring.ConstructHeuristic(ctx, net, opt)
	if err != nil {
		if cause != nil {
			err = fmt.Errorf("core: heuristic fallback after %v: %w", cause, err)
		}
		return nil, "", err
	}
	return res, reason, nil
}

// ResetRingCache empties the default engine's Step-1 result cache.
// Benchmarks call it between timed passes so a warm cache cannot
// masquerade as a speedup.
func ResetRingCache() {
	defaultEngine.rings.Reset()
	mRingCacheSize.Set(0)
}

// ResetHintCache does nothing. Step 1 keeps no warm-start state beyond
// the ring cache (the branch-and-bound always seeds its incumbent from
// ring.HeuristicTour); the function stays for callers that reset both
// caches between timed passes.
func ResetHintCache() {}
