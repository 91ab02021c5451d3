package service

// Resilience-layer tests at the service boundary: degraded-mode
// synthesis surfaced end-to-end over HTTP, panic isolation per job,
// the per-stage watchdog, fault-spec wiring, and the result cache's
// eviction/singleflight race.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xring/internal/core"
	"xring/internal/designio"
	"xring/internal/milp"
	"xring/internal/resilience"
)

// TestDegradedSynthesisOverHTTP is the acceptance path: a fault forcing
// milp.ErrBudget in the ring solver still yields a valid, fully routed
// design over HTTP that re-analyzes cleanly, marked degraded in the
// summary and counted in /v1/stats.
func TestDegradedSynthesisOverHTTP(t *testing.T) {
	inj := resilience.NewInjector(1, resilience.Rule{Point: "core.ring", Err: milp.ErrBudget})
	s, ts := newTestServer(t, Config{Workers: 1, Injector: inj})

	resp, data := postSynth(t, ts.URL, quadRequest(0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded synthesize: status %d, body %s", resp.StatusCode, data)
	}
	r := decodeResponse(t, data)
	if r.Summary == nil || !r.Summary.Degraded {
		t.Fatalf("summary = %+v, want degraded", r.Summary)
	}
	if !strings.Contains(r.Summary.DegradedReason, "budget") {
		t.Errorf("degradedReason = %q, want a budget reason", r.Summary.DegradedReason)
	}
	design := getDesign(t, ts.URL, r.Key)
	d, err := designio.Load(design)
	if err != nil {
		t.Fatalf("degraded design fails designio.Load: %v", err)
	}
	if len(d.Routes) == 0 {
		t.Error("degraded design has no routes")
	}
	analyzeServed(t, design)
	if st := s.Stats(); st.Degraded != 1 {
		t.Errorf("stats.Degraded = %d, want 1", st.Degraded)
	}

	// The raw JSON must carry the field (clients key off it).
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	sum, _ := raw["summary"].(map[string]any)
	if sum["degraded"] != true {
		t.Errorf(`response summary JSON lacks "degraded": true: %v`, sum)
	}
}

// TestDegradedRetryOverHTTP follows a degraded job with a fresh
// request for the same floorplan: past the spent fault rule the retry
// runs the exact solve and comes back un-degraded, and /v1/stats counts
// only the first job as degraded.
func TestDegradedRetryOverHTTP(t *testing.T) {
	inj := resilience.NewInjector(1,
		resilience.Rule{Point: "core.ring", Err: milp.ErrBudget, Times: 1})
	s, ts := newTestServer(t, Config{Workers: 1, Injector: inj})

	resp, data := postSynth(t, ts.URL, quadRequest(0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded synthesize: status %d, body %s", resp.StatusCode, data)
	}
	if r := decodeResponse(t, data); r.Summary == nil || !r.Summary.Degraded {
		t.Fatalf("first summary = %+v, want degraded", r.Summary)
	}

	// Same floorplan, different content key (MaxWL), so the result cache
	// and dedup are out of the way and the engine runs again.
	retry := quadRequest(0)
	retry.Options.MaxWL = 3
	resp, data = postSynth(t, ts.URL, retry)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry synthesize: status %d, body %s", resp.StatusCode, data)
	}
	if r := decodeResponse(t, data); r.Summary == nil || r.Summary.Degraded {
		t.Fatalf("retry summary = %+v, want un-degraded", r.Summary)
	}
	if st := s.Stats(); st.Degraded != 1 || st.Synthesized != 2 {
		t.Errorf("stats degraded/synthesized = %d/%d, want 1/2", st.Degraded, st.Synthesized)
	}
}

// TestFaultSpecWiring drives the same degraded path through the string
// DSL, the way xringd -fault passes it in.
func TestFaultSpecWiring(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, FaultSpec: "core.ring=error:budget;seed=7"})
	resp, data := postSynth(t, ts.URL, quadRequest(0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, data)
	}
	if r := decodeResponse(t, data); r.Summary == nil || !r.Summary.Degraded {
		t.Fatalf("summary = %+v, want degraded via fault spec", r.Summary)
	}
	if st := s.Stats(); st.Degraded != 1 {
		t.Errorf("stats.Degraded = %d, want 1", st.Degraded)
	}

	if _, err := New(Config{FaultSpec: "no-equals-sign"}); err == nil {
		t.Error("New accepted a malformed fault spec")
	}
}

// TestNoFallbackOverHTTP: the request-level escape hatch fails the job
// instead of degrading, and gets a distinct content key.
func TestNoFallbackOverHTTP(t *testing.T) {
	inj := resilience.NewInjector(1, resilience.Rule{Point: "core.ring", Err: milp.ErrBudget})
	_, ts := newTestServer(t, Config{Workers: 1, Injector: inj})

	req := quadRequest(0)
	req.Options.NoFallback = true
	resp, data := postSynth(t, ts.URL, req)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("noFallback status = %d, want 422; body %s", resp.StatusCode, data)
	}
	if !bytes.Contains(data, []byte("budget")) {
		t.Errorf("error body %s does not mention the budget error", data)
	}

	// The flag is part of the canonical key: the two requests must not
	// alias in the cache.
	plain := mustResolve(t, quadRequest(0))
	noFall := mustResolve(t, req)
	if canonicalKey(plain) == canonicalKey(noFall) {
		t.Error("noFallback does not change the content key")
	}
}

func TestJobPanicIsolated(t *testing.T) {
	var calls atomic.Int64
	solve := engineSynth(core.NewEngine(nil))
	boom := func(ctx context.Context, r *resolved) (*core.Result, error) {
		if calls.Add(1) == 1 {
			panic("synthesis exploded")
		}
		return solve(ctx, r)
	}
	s, ts := newTestServer(t, Config{Workers: 1, Synth: boom})

	resp, data := postSynth(t, ts.URL, quadRequest(0))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked job: status %d, want 500; body %s", resp.StatusCode, data)
	}
	if !bytes.Contains(data, []byte("panic")) {
		t.Errorf("error body %s does not mention the panic", data)
	}
	// The daemon survived: the next job (different key, same worker)
	// completes normally.
	resp2, data2 := postSynth(t, ts.URL, quadRequest(1))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("job after panic: status %d, body %s", resp2.StatusCode, data2)
	}
	st := s.Stats()
	if st.Panics != 1 || st.Failed != 1 || st.Synthesized != 1 {
		t.Errorf("stats = %+v, want 1 panic, 1 failed, 1 synthesized", st)
	}
}

func TestInjectedJobPanicIsolated(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1,
		Injector: resilience.NewInjector(1, resilience.Rule{Point: "service.job", Panic: true, Times: 1})})
	resp, data := postSynth(t, ts.URL, quadRequest(0))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500; body %s", resp.StatusCode, data)
	}
	if resp2, data2 := postSynth(t, ts.URL, quadRequest(0)); resp2.StatusCode != http.StatusOK {
		t.Fatalf("retry after injected panic: status %d, body %s", resp2.StatusCode, data2)
	}
	if st := s.Stats(); st.Panics != 1 {
		t.Errorf("stats.Panics = %d, want 1", st.Panics)
	}
}

func TestStageWatchdogCancelsStalledJob(t *testing.T) {
	stall := func(ctx context.Context, r *resolved) (*core.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	s, ts := newTestServer(t, Config{Workers: 1, StageTimeout: 50 * time.Millisecond, Synth: stall})

	resp, data := postSynth(t, ts.URL, quadRequest(0))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stalled job: status %d, want 504; body %s", resp.StatusCode, data)
	}
	if !bytes.Contains(data, []byte("no stage completed")) {
		t.Errorf("error body %s does not name the watchdog", data)
	}
	if st := s.Stats(); st.StageTimeouts != 1 {
		t.Errorf("stats.StageTimeouts = %d, want 1", st.StageTimeouts)
	}
}

func TestStageWatchdogSparesProgressingJob(t *testing.T) {
	// Real synthesis of a tiny design emits stage spans well inside a
	// generous watchdog window; the job must complete untouched.
	_, ts := newTestServer(t, Config{Workers: 1, StageTimeout: 30 * time.Second})
	resp, data := postSynth(t, ts.URL, quadRequest(0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, data)
	}
	if r := decodeResponse(t, data); r.Summary == nil || r.Summary.Degraded {
		t.Errorf("summary = %+v, want a clean non-degraded result", r.Summary)
	}
}

// TestCacheEvictionRacesSingleflight hammers a capacity-2 result cache
// with 4 distinct designs so entries are constantly evicted while
// identical requests race: singleflight must never run the same key
// concurrently twice, and no request may observe a lost result.
func TestCacheEvictionRacesSingleflight(t *testing.T) {
	var inflight [4]atomic.Int64
	variantOf := func(r *resolved) int {
		// quadRequest(v) sets node 3 x = 2.5 + 0.25*(v+1).
		return int((r.net.Nodes[3].Pos.X-2.5)/0.25) - 1
	}
	solve := engineSynth(core.NewEngine(nil))
	guarded := func(ctx context.Context, r *resolved) (*core.Result, error) {
		v := variantOf(r)
		if inflight[v].Add(1) > 1 {
			t.Errorf("variant %d: two concurrent engine runs for one key (singleflight broken)", v)
		}
		defer inflight[v].Add(-1)
		return solve(ctx, r)
	}
	_, ts := newTestServer(t, Config{QueueDepth: 64, Workers: 4, CacheEntries: 2, Synth: guarded})

	const total = 48
	var wg sync.WaitGroup
	errs := make([]error, total)
	designs := make([][]byte, total)
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, err := json.Marshal(quadRequest(i % 4))
			if err != nil {
				errs[i] = err
				return
			}
			for attempt := 0; ; attempt++ {
				resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", bytes.NewReader(body))
				if err != nil {
					errs[i] = err
					return
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs[i] = err
					return
				}
				if resp.StatusCode == http.StatusTooManyRequests && attempt < 200 {
					time.Sleep(2 * time.Millisecond)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, data)
					return
				}
				var r Response
				if err := json.Unmarshal(data, &r); err != nil {
					errs[i] = err
					return
				}
				if len(r.Design) == 0 {
					errs[i] = fmt.Errorf("variant %d: empty design (lost entry)", i%4)
					return
				}
				designs[i] = r.Design
				return
			}
		}(i)
	}
	wg.Wait()
	ref := make([][]byte, 4)
	for i := 0; i < total; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		v := i % 4
		if ref[v] == nil {
			ref[v] = designs[i]
		} else if !bytes.Equal(ref[v], designs[i]) {
			t.Errorf("request %d (variant %d): design differs across eviction/refill", i, v)
		}
	}
}
