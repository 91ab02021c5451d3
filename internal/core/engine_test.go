package core

// Engine isolation: two engines in one process share no Step-1 state —
// no ring cache, no in-flight solves — and only an engine's own
// delegate is consulted on its misses.

import (
	"context"
	"testing"

	"xring/internal/noc"
	"xring/internal/ring"
)

func TestEnginesDoNotShareRingCache(t *testing.T) {
	withMetrics(t)
	a, b := NewEngine(nil), NewEngine(nil)
	net := noc.Floorplan8()
	key := floorplanKey(net, ring.Options{})

	ra, err := a.SynthesizeCtx(context.Background(), net, Options{MaxWL: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.rings.Get(key); !ok {
		t.Fatal("engine A did not cache its own solve")
	}
	misses := mRingCacheMisses.Value()
	rb, err := b.SynthesizeCtx(context.Background(), net, Options{MaxWL: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := mRingCacheMisses.Value() - misses; got != 1 {
		t.Errorf("engine B's first solve counted %d misses, want 1", got)
	}
	if ra.Ring == rb.Ring {
		t.Error("engine B was served engine A's cached ring")
	}
	if ra.Ring.Length != rb.Ring.Length {
		t.Errorf("independent solves disagree: length %v vs %v", ra.Ring.Length, rb.Ring.Length)
	}
	// B's next solve hits B's own entry.
	rb2, err := b.SynthesizeCtx(context.Background(), net, Options{MaxWL: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rb2.Ring != rb.Ring {
		t.Error("engine B missed its own cached ring")
	}
}

func TestEngineDelegate(t *testing.T) {
	net := noc.Floorplan8()
	want := &ring.Result{Length: 42}
	var calls int
	delegate := func(_ context.Context, _ *noc.Network, _ ring.Options, key string) (*ring.Result, bool) {
		calls++
		if key != floorplanKey(net, ring.Options{}) {
			t.Errorf("delegate got key %q, want the floorplan key", key)
		}
		return want, true
	}

	// A leader's miss goes to the delegate; the answer is cached.
	e := NewEngine(delegate)
	for i := 0; i < 2; i++ {
		got, err := e.constructRing(context.Background(), net, ring.Options{}, floorplanKey(net, ring.Options{}), true)
		if err != nil || got != want {
			t.Fatalf("constructRing #%d = %v, %v; want the delegated result", i, got, err)
		}
	}
	if calls != 1 {
		t.Errorf("delegate called %d times, want 1 (second call is a cache hit)", calls)
	}

	// ConstructRingShared never delegates, and other engines never see
	// this engine's delegate.
	calls = 0
	if _, err := NewEngine(delegate).ConstructRingShared(context.Background(), net, ring.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(nil).constructRing(context.Background(), net, ring.Options{}, floorplanKey(net, ring.Options{}), true); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("delegate called %d times outside its engine's leader path", calls)
	}
}
