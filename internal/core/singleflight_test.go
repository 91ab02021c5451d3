package core

// Ring-cache singleflight tests: concurrent misses on one floorplan
// key collapse to a single Step-1 solve (the exploration grid's
// cross-cell sharing), a failed leader does not poison its waiters,
// and waiter cancellation is honored. Each test runs on a fresh engine.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"xring/internal/noc"
	"xring/internal/ring"
)

func TestConstructRingCoalescesConcurrentMisses(t *testing.T) {
	e := NewEngine(nil)
	net := noc.Irregular(8, 12, 12, 2.0, 11)
	before := mRingCacheMisses.Value()

	const callers = 8
	results := make([]*ring.Result, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			r, err := e.constructRing(context.Background(), net, ring.Options{}, floorplanKey(net, ring.Options{}), true)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()

	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different *ring.Result than caller 0", i)
		}
	}
	// Every caller that did not lead either waited on the flight or hit
	// the cache the leader filled; only the leader's lookup plus any
	// pre-flight-registration races count as misses, and after the
	// leader lands there can be no further ones.
	if after, err := e.constructRing(context.Background(), net, ring.Options{}, floorplanKey(net, ring.Options{}), true); err != nil || after != results[0] {
		t.Fatalf("post-flight lookup: %v (shared=%v)", err, after == results[0])
	}
	t.Logf("misses during coalesced burst: %d", mRingCacheMisses.Value()-before)
}

func TestConstructRingLeaderFailureDoesNotPoisonWaiters(t *testing.T) {
	e := NewEngine(nil)
	net := noc.Irregular(8, 12, 12, 2.0, 13)

	// One caller runs with an already-cancelled context: if it leads, its
	// solve fails and fills nothing; the others must retry on their own
	// and succeed — a failed flight must not poison identical requests
	// that still have budget.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	var failures atomic.Int64
	const callers = 4
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		ctx := context.Background()
		if i == 0 {
			ctx = cancelled
		}
		go func(ctx context.Context) {
			defer wg.Done()
			if _, err := e.constructRing(ctx, net, ring.Options{}, floorplanKey(net, ring.Options{}), true); err != nil {
				failures.Add(1)
			}
		}(ctx)
	}
	wg.Wait()
	// At most the cancelled caller fails; everyone else must have either
	// adopted a successful solve or re-led after the failed flight.
	if n := failures.Load(); n > 1 {
		t.Errorf("%d callers failed, want at most the cancelled one", n)
	}
	if _, err := e.constructRing(context.Background(), net, ring.Options{}, floorplanKey(net, ring.Options{}), true); err != nil {
		t.Errorf("post-failure solve: %v", err)
	}
}

func TestConstructRingWaiterHonorsCancellation(t *testing.T) {
	e := NewEngine(nil)
	net := noc.Floorplan8()
	key := floorplanKey(net, ring.Options{})

	// Occupy the flight slot so the caller becomes a waiter, then cancel it.
	e.flightMu.Lock()
	ch := make(chan struct{})
	e.flights[key] = ch
	e.flightMu.Unlock()
	defer func() {
		e.flightMu.Lock()
		delete(e.flights, key)
		e.flightMu.Unlock()
		close(ch)
	}()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.constructRing(ctx, net, ring.Options{}, floorplanKey(net, ring.Options{}), true)
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
}
