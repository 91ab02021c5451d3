package service

// Service-boundary tests of the /v1/whatif fault-replay surface:
// request validation, degraded-provenance propagation (headers on the
// design endpoint, fields on replay statuses), and content-key
// separation of fault-tolerant requests.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"xring/internal/core"
	"xring/internal/designio"
	"xring/internal/faults"
	"xring/internal/milp"
	"xring/internal/noc"
	"xring/internal/resilience"
)

func postWhatif(t *testing.T, url string, req *WhatifRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url+"/v1/whatif", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/whatif: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

func decodeWhatif(t *testing.T, data []byte) *WhatifStatus {
	t.Helper()
	var st WhatifStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("decode whatif status %s: %v", data, err)
	}
	return &st
}

func TestWhatifRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, data := postSynth(t, ts.URL, quadRequest(0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize: %d %s", resp.StatusCode, data)
	}
	key := decodeResponse(t, data).Key

	intp := func(v int) *int { return &v }
	cases := map[string]struct {
		req  *WhatifRequest
		want int
	}{
		"unknown key": {&WhatifRequest{Key: "sha256:nope"}, http.StatusNotFound},
		"unknown kind": {&WhatifRequest{Key: key,
			Faults: WhatifFaults{Kinds: []string{"gremlin"}}}, http.StatusBadRequest},
		"unknown mode": {&WhatifRequest{Key: key,
			Faults: WhatifFaults{Mode: "guess"}}, http.StatusBadRequest},
		"k too large": {&WhatifRequest{Key: key,
			Faults: WhatifFaults{K: 9999}}, http.StatusBadRequest},
		"inject needs element": {&WhatifRequest{Key: key,
			Faults: WhatifFaults{Inject: []FaultSpec{{Kind: "mrr"}}}}, http.StatusBadRequest},
		"inject both elements": {&WhatifRequest{Key: key,
			Faults: WhatifFaults{Inject: []FaultSpec{{Kind: "mrr", WG: intp(0), SC: intp(0)}}}}, http.StatusBadRequest},
		"inject wg range": {&WhatifRequest{Key: key,
			Faults: WhatifFaults{Inject: []FaultSpec{{Kind: "segment", WG: intp(99), Edge: intp(0)}}}}, http.StatusBadRequest},
		"inject missing edge": {&WhatifRequest{Key: key,
			Faults: WhatifFaults{Inject: []FaultSpec{{Kind: "segment", WG: intp(0)}}}}, http.StatusBadRequest},
		"inject unknown channel": {&WhatifRequest{Key: key,
			Faults: WhatifFaults{Inject: []FaultSpec{{Kind: "mrr", WG: intp(0), Src: 0, Dst: 0}}}}, http.StatusBadRequest},
		"inject bad role": {&WhatifRequest{Key: key,
			Faults: WhatifFaults{Inject: []FaultSpec{{Kind: "mrr", WG: intp(0), Src: 0, Dst: 1, Role: "mid"}}}}, http.StatusBadRequest},
	}
	for name, tc := range cases {
		resp, data := postWhatif(t, ts.URL, tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (body %s)", name, resp.StatusCode, tc.want, data)
		}
	}

	// Combinatorial blowups are rejected from the binomial count alone,
	// before any scenario is materialized: probe the real universe size,
	// pick the smallest k whose C(n, k) exceeds the cap, and expect a
	// 400 that points at sample mode.
	resp, data = postWhatif(t, ts.URL, &WhatifRequest{Key: key})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("universe probe: %d %s", resp.StatusCode, data)
	}
	n := decodeWhatif(t, data).Universe
	blowK := 2
	for blowK < n && faults.Combinations(n, blowK, maxWhatifScenarios) <= maxWhatifScenarios {
		blowK++
	}
	if faults.Combinations(n, blowK, maxWhatifScenarios) > maxWhatifScenarios {
		resp, data = postWhatif(t, ts.URL, &WhatifRequest{Key: key,
			Faults: WhatifFaults{K: blowK}})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "sample") {
			t.Errorf("k=%d enumerate: status %d body %s, want 400 suggesting sample mode",
				blowK, resp.StatusCode, data)
		}
	}

	// Unknown replay ids 404 on both the status and event endpoints.
	for _, path := range []string{"/v1/whatif/nope", "/v1/whatif/nope/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestWhatifReplaysCachedDesign exercises the synchronous happy path
// over raw HTTP: an exhaustive single-MRR universe on an unprotected
// design loses exactly one signal per scenario.
func TestWhatifReplaysCachedDesign(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	resp, data := postSynth(t, ts.URL, quadRequest(0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize: %d %s", resp.StatusCode, data)
	}
	key := decodeResponse(t, data).Key

	resp, data = postWhatif(t, ts.URL, &WhatifRequest{
		Key: key, Faults: WhatifFaults{Kinds: []string{"mrr"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("whatif: %d %s", resp.StatusCode, data)
	}
	st := decodeWhatif(t, data)
	if st.State != StateDone || st.Report == nil {
		t.Fatalf("status = %+v, want done with report", st)
	}
	if st.Report.FullSetSurvives || st.Report.MaxLost != 1 {
		t.Errorf("unprotected design report: %+v, want maxLost 1", st.Report)
	}
	if st.Degraded {
		t.Error("healthy design marked degraded")
	}
	if got := s.Stats(); got.WhatifRuns != 1 || got.WhatifScenarios != int64(st.Scenarios) {
		t.Errorf("stats = runs %d scenarios %d, want 1/%d", got.WhatifRuns, got.WhatifScenarios, st.Scenarios)
	}
}

// TestDegradedProvenancePropagates pins satellite provenance plumbing:
// the design endpoint carries machine-readable degraded headers, and a
// whatif over that design repeats the verdict in its status.
func TestDegradedProvenancePropagates(t *testing.T) {
	inj := resilience.NewInjector(1, resilience.Rule{Point: "core.ring", Err: milp.ErrBudget})
	_, ts := newTestServer(t, Config{Workers: 1, Injector: inj})

	resp, data := postSynth(t, ts.URL, quadRequest(0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded synthesize: %d %s", resp.StatusCode, data)
	}
	key := decodeResponse(t, data).Key

	dresp, err := http.Get(ts.URL + "/v1/designs/" + key)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if got := dresp.Header.Get("X-Design-Degraded"); got != "true" {
		t.Errorf("X-Design-Degraded = %q, want true", got)
	}
	if got := dresp.Header.Get("X-Design-Degraded-Reason"); got != "solver-budget-exhausted" {
		t.Errorf("X-Design-Degraded-Reason = %q, want solver-budget-exhausted", got)
	}

	resp, data = postWhatif(t, ts.URL, &WhatifRequest{
		Key: key, Faults: WhatifFaults{Kinds: []string{"mrr"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("whatif: %d %s", resp.StatusCode, data)
	}
	st := decodeWhatif(t, data)
	if !st.Degraded || !strings.Contains(st.DegradedReason, "budget") {
		t.Errorf("whatif status degraded=%v reason=%q, want the budget provenance", st.Degraded, st.DegradedReason)
	}
}

// TestHealthyDesignHasNoDegradedHeaders is the negative of the above.
func TestHealthyDesignHasNoDegradedHeaders(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, data := postSynth(t, ts.URL, quadRequest(0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize: %d %s", resp.StatusCode, data)
	}
	key := decodeResponse(t, data).Key
	dresp, err := http.Get(ts.URL + "/v1/designs/" + key)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.Header.Get("X-Design-Degraded") != "" || dresp.Header.Get("X-Design-Degraded-Reason") != "" {
		t.Errorf("healthy design carries degraded headers: %v", dresp.Header)
	}
}

// TestFaultToleranceSeparatesContentKeys: the k=1 option must flow into
// the canonical key, or protected and unprotected results would collide
// in the cache. Replayed over HTTP, one injected MRR fault costs the
// unprotected design exactly its signal, while the k=1 design survives
// its whole single-MRR universe, with one SSE fault event per scenario.
func TestFaultToleranceSeparatesContentKeys(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	plain := &Request{Network: NetworkSpec{Standard: 8}, Options: OptionsSpec{MaxWL: 8}}
	resp, data := postSynth(t, ts.URL, plain)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize: %d %s", resp.StatusCode, data)
	}
	plainKey := decodeResponse(t, data).Key

	ft := &Request{Network: NetworkSpec{Standard: 8},
		Options: OptionsSpec{MaxWL: 8, FaultTolerance: &FaultToleranceSpec{K: 1}}}
	resp, data = postSynth(t, ts.URL, ft)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fault-tolerant synthesize: %d %s", resp.StatusCode, data)
	}
	ftKey := decodeResponse(t, data).Key

	if plainKey == ftKey {
		t.Fatalf("fault_tolerance did not change the content key: %s", plainKey)
	}

	// Out-of-range k is rejected at validation.
	bad := &Request{Network: NetworkSpec{Standard: 8},
		Options: OptionsSpec{MaxWL: 8, FaultTolerance: &FaultToleranceSpec{K: 7}}}
	if resp, _ := postSynth(t, ts.URL, bad); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("k=7 accepted: status %d", resp.StatusCode)
	}

	// A rejected replay is not a run.
	if resp, data := postWhatif(t, ts.URL, &WhatifRequest{Key: "sha256:nope"}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown key: status %d, want 404: %s", resp.StatusCode, data)
	}

	// Inject one MRR fault at the first channel of the unprotected
	// design's first waveguide.
	var file struct {
		Waveguides []struct {
			Channels []struct{ Src, Dst int }
		}
	}
	if err := json.Unmarshal(getDesign(t, ts.URL, plainKey), &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Waveguides) == 0 || len(file.Waveguides[0].Channels) == 0 {
		t.Fatal("unprotected design has no channel on waveguide 0")
	}
	ch := file.Waveguides[0].Channels[0]
	wg := 0
	resp, data = postWhatif(t, ts.URL, &WhatifRequest{Key: plainKey, Faults: WhatifFaults{
		Inject: []FaultSpec{{Kind: "mrr", WG: &wg, Src: ch.Src, Dst: ch.Dst}},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inject whatif: %d %s", resp.StatusCode, data)
	}
	if st := decodeWhatif(t, data); st.State != StateDone || st.Report == nil ||
		st.Report.MaxLost != 1 || st.Report.FullSetSurvives {
		t.Errorf("injected MRR fault: %+v, want done with maxLost 1", st)
	}

	resp, data = postWhatif(t, ts.URL, &WhatifRequest{Key: ftKey, Faults: WhatifFaults{Kinds: []string{"mrr"}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("k=1 whatif: %d %s", resp.StatusCode, data)
	}
	st := decodeWhatif(t, data)
	if st.State != StateDone || st.Report == nil || !st.Report.FullSetSurvives || st.Report.MaxLost != 0 {
		t.Errorf("k=1 design under single-MRR replay: %+v, want full survival", st)
	}
	if st.Completed != st.Scenarios || st.Scenarios != st.Universe {
		t.Errorf("exhaustive replay: %d/%d of universe %d", st.Completed, st.Scenarios, st.Universe)
	}
	faultEvents := 0
	types := sseTypes(t, ts.URL+"/v1/whatif/"+st.ID+"/events")
	for _, ty := range types {
		if ty == "fault" {
			faultEvents++
		}
	}
	if faultEvents != st.Scenarios || types[len(types)-1] != "done" {
		t.Errorf("%d fault events for %d scenarios, stream ends %q", faultEvents, st.Scenarios, types[len(types)-1])
	}
	if got := s.Stats().WhatifRuns; got != 2 {
		t.Errorf("whatifRuns = %d, want 2", got)
	}
}

// sseTypes reads an SSE stream up to its terminal event and returns
// the event types in order.
func sseTypes(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var types []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		types = append(types, ev.Type)
		if ev.Type == "done" || ev.Type == "failed" {
			return types
		}
	}
	t.Fatalf("stream %s ended without a terminal event (err %v): %v", url, sc.Err(), types)
	return nil
}

// TestWhatifBoundsTotalFaults: an expansion is bounded by its total
// fault count (scenarios × k), not only by its scenario count, and the
// bound is checked before any scenario is materialized. Both shapes
// pass the scenario cap; both are sent async, so a server that
// allocated and admitted them would answer 202.
func TestWhatifBoundsTotalFaults(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, data := postSynth(t, ts.URL, &Request{
		Network: NetworkSpec{Standard: 8}, Options: OptionsSpec{MaxWL: 7}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize: %d %s", resp.StatusCode, data)
	}
	key := decodeResponse(t, data).Key
	d, err := designio.Load(getDesign(t, ts.URL, key))
	if err != nil {
		t.Fatal(err)
	}
	u := len(faults.Universe(d, []faults.Kind{faults.KindMRR, faults.KindSegment, faults.KindDetune}, 0))
	if u*(u-1) <= maxWhatifFaults {
		t.Fatalf("universe %d too small for the enumerate shape", u)
	}
	for name, spec := range map[string]WhatifFaults{
		// u scenarios of u−1 faults each.
		"enumerate k=u-1": {K: u - 1},
		// 512 samples of u/2 faults each.
		"sample k=u/2": {Mode: "sample", K: u / 2, Samples: 512},
	} {
		resp, data := postWhatif(t, ts.URL, &WhatifRequest{Key: key, Faults: spec, Async: true})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "faults per replay") {
			t.Errorf("%s: status %d body %s, want 400 naming the fault cap", name, resp.StatusCode, data)
		}
	}
}

// TestSerialReplayPanicIsContained: a serial replay runs on its
// caller, so a panic in the analyzer (here an unvalidated segment fault
// on a waveguide the design does not have) must come back as a
// *resilience.PanicError, like every other contained panic.
func TestSerialReplayPanicIsContained(t *testing.T) {
	res, err := core.Synthesize(noc.Floorplan8(), core.Options{MaxWL: 7})
	if err != nil {
		t.Fatal(err)
	}
	bad := faults.Scenario{{Kind: faults.KindSegment, WG: len(res.Design.Waveguides) + 5, SC: -1, Edge: 0}}
	s := &Server{}
	_, err = s.replayIsolated(&whatifRun{}, res.Design, []faults.Scenario{bad}, true)
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want a *resilience.PanicError", err, err)
	}
	if pe.Point != "service.whatif" || len(pe.Stack) == 0 {
		t.Errorf("panic error point %q stack %d bytes, want service.whatif with a stack", pe.Point, len(pe.Stack))
	}
}
