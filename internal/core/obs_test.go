package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"xring/internal/noc"
	"xring/internal/obs"
	"xring/internal/parallel"
	"xring/internal/ring"
)

// withMetrics enables the metrics registry for one test and restores
// the previous global state afterwards.
func withMetrics(t *testing.T) {
	t.Helper()
	prevT, prevM := obs.TracingEnabled(), obs.MetricsEnabled()
	obs.EnableTracing(false)
	obs.EnableMetrics(true)
	obs.ResetMetrics()
	t.Cleanup(func() {
		obs.EnableTracing(prevT)
		obs.EnableMetrics(prevM)
		obs.ResetMetrics()
	})
}

// countingCtx cancels itself after a fixed number of Err polls, which
// lets the test stop a serial sweep at a reproducible point without
// timing races.
type countingCtx struct {
	context.Context
	polls atomic.Int64
	limit int64 // cancel once polls exceed this; MaxInt64 = never
}

func (c *countingCtx) Err() error {
	if c.polls.Add(1) > c.limit {
		return context.Canceled
	}
	return c.Context.Err()
}

// TestSweepStopsOnCancelledContext: satellite check that context
// cancellation stops a sweep between candidates — the context error
// comes back and strictly fewer candidates than the full design space
// were evaluated.
func TestSweepStopsOnCancelledContext(t *testing.T) {
	withMetrics(t)
	parallel.SetWorkers(1) // deterministic poll sequence
	t.Cleanup(func() { parallel.SetWorkers(0) })
	net := noc.Floorplan8()
	opt := Options{WithPDN: true}
	wls := []int{2, 4, 6, 8}
	totalCands := int64(2 * len(wls)) // each #wl × {fresh, share}

	// Warm the Step-1 cache so both passes below hit it and the poll
	// sequence of the second pass matches the first.
	if _, _, err := Sweep(net, opt, MinPower, wls); err != nil {
		t.Fatal(err)
	}

	// Pass 1: count the Err polls of a full serial sweep.
	probe := &countingCtx{Context: context.Background(), limit: math.MaxInt64}
	mSweepCandidates.Add(-mSweepCandidates.Value())
	if _, _, err := SweepCtx(probe, net, opt, MinPower, wls); err != nil {
		t.Fatal(err)
	}
	if got := mSweepCandidates.Value(); got != totalCands {
		t.Fatalf("full sweep evaluated %d candidates, want %d", got, totalCands)
	}
	fullPolls := probe.polls.Load()
	if fullPolls < totalCands {
		t.Fatalf("full sweep polled ctx.Err only %d times over %d candidates", fullPolls, totalCands)
	}

	// Pass 2: cancel midway. The sweep must return the context error
	// having evaluated some, but not all, candidates.
	cctx := &countingCtx{Context: context.Background(), limit: fullPolls / 2}
	mSweepCandidates.Add(-mSweepCandidates.Value())
	res, _, err := SweepCtx(cctx, net, opt, MinPower, wls)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled sweep returned a result")
	}
	evaluated := mSweepCandidates.Value()
	if evaluated <= 0 || evaluated >= totalCands {
		t.Fatalf("cancelled sweep evaluated %d candidates, want strictly between 0 and %d",
			evaluated, totalCands)
	}
}

// TestSynthesizeCancelledContext: an already-cancelled context stops
// the pipeline before any stage runs.
func TestSynthesizeCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	net := noc.Floorplan8()
	if _, err := SynthesizeCtx(ctx, net, Options{MaxWL: 8}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRingCacheLRUTouch: a Step-1 cache hit must move the entry to the
// LRU front, changing which entry the next insert evicts.
func TestRingCacheLRUTouch(t *testing.T) {
	withMetrics(t)
	e := NewEngine(nil)
	key := func(i int) string { return fmt.Sprintf("lru-test-%04d", i) }
	res := &ring.Result{}

	for i := 0; i < ringCacheCap; i++ {
		e.cacheInsert(key(i), res)
	}
	hits0, misses0, evicts0 := mRingCacheHits.Value(), mRingCacheMisses.Value(), mRingCacheEvicts.Value()

	// key(0) is at the LRU back; a hit must move it to the front...
	if _, ok := e.cacheLookup(key(0)); !ok {
		t.Fatal("key 0 missing from a full cache")
	}
	// ...so the insert at the cap evicts key(1), the new LRU victim.
	e.cacheInsert(key(ringCacheCap), res)
	if _, ok := e.cacheLookup(key(0)); !ok {
		t.Fatal("touched entry was evicted: hit did not refresh LRU position")
	}
	if _, ok := e.cacheLookup(key(1)); ok {
		t.Fatal("untouched LRU victim survived the eviction")
	}
	if _, ok := e.cacheLookup(key(ringCacheCap)); !ok {
		t.Fatal("entry inserted at the cap is missing")
	}

	if hits := mRingCacheHits.Value() - hits0; hits != 3 {
		t.Fatalf("hit counter delta = %d, want 3", hits)
	}
	if misses := mRingCacheMisses.Value() - misses0; misses != 1 {
		t.Fatalf("miss counter delta = %d, want 1 (the evicted victim)", misses)
	}
	if evicts := mRingCacheEvicts.Value() - evicts0; evicts != 1 {
		t.Fatalf("eviction counter delta = %d, want 1", evicts)
	}
	if size := mRingCacheSize.Value(); size != ringCacheCap {
		t.Fatalf("size gauge = %d, want %d", size, ringCacheCap)
	}
}

// benchmarkSynthesize16 times the full 16-node flow with a cold Step-1
// cache; the Off/On pair quantifies the telemetry overhead (compare
// also against BENCH_parallel.json across commits — the disabled path
// must stay within noise of the pre-instrumentation engine).
func benchmarkSynthesize16(b *testing.B, trace, metrics bool) {
	prevT, prevM := obs.TracingEnabled(), obs.MetricsEnabled()
	obs.EnableTracing(trace)
	obs.EnableMetrics(metrics)
	b.Cleanup(func() {
		obs.EnableTracing(prevT)
		obs.EnableMetrics(prevM)
		obs.ResetTrace()
		obs.ResetMetrics()
	})
	net := noc.Floorplan16()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs.ResetTrace()
		if _, err := NewEngine(nil).SynthesizeCtx(context.Background(), net, Options{MaxWL: 16, WithPDN: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSynthesize16TelemetryOff(b *testing.B) { benchmarkSynthesize16(b, false, false) }
func BenchmarkSynthesize16TelemetryOn(b *testing.B)  { benchmarkSynthesize16(b, true, true) }

// TestTelemetryDoesNotAlterResults runs the same sweep with telemetry
// fully off and fully on and requires the identical winner — the
// documented guarantee that observation never changes synthesis.
func TestTelemetryDoesNotAlterResults(t *testing.T) {
	prevT, prevM := obs.TracingEnabled(), obs.MetricsEnabled()
	t.Cleanup(func() {
		obs.EnableTracing(prevT)
		obs.EnableMetrics(prevM)
		obs.ResetTrace()
		obs.ResetMetrics()
	})
	net := noc.Floorplan8()
	run := func() *Result {
		res, _, err := NewEngine(nil).SweepCtx(context.Background(), net, Options{WithPDN: true}, MinPower, []int{2, 4, 6, 8})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	obs.EnableTracing(false)
	obs.EnableMetrics(false)
	off := run()
	obs.EnableTracing(true)
	obs.EnableMetrics(true)
	on := run()
	sameWinner(t, "telemetry on vs off", off, on)
	if len(off.Design.Routes) != len(on.Design.Routes) ||
		len(off.Design.Waveguides) != len(on.Design.Waveguides) ||
		len(off.Design.Shortcuts) != len(on.Design.Shortcuts) {
		t.Fatal("designs differ between telemetry on and off")
	}
	if obs.TracingEnabled() {
		if snap := obs.TraceSnapshot(); len(snap) == 0 {
			t.Fatal("telemetry-on run collected no spans")
		}
	}
}
