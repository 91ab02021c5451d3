package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xring"
	"xring/internal/core"
	"xring/internal/designio"
	"xring/internal/obs"
)

// newTestServer starts a service plus its HTTP front. Cleanup drains
// with a generous deadline so tests never leak workers.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

// gate is a synth stub harness: every call reports in on started, then
// blocks until release fires, then runs the real engine.
type gate struct {
	started chan string // one content-free token per synth entry
	release chan struct{}
	calls   atomic.Int64
	solve   SynthFunc
}

func newGate() *gate {
	return &gate{started: make(chan string, 64), release: make(chan struct{}),
		solve: engineSynth(core.NewEngine(nil))}
}

func (g *gate) synth(ctx context.Context, r *resolved) (*core.Result, error) {
	g.calls.Add(1)
	g.started <- "run"
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.solve(ctx, r)
}

func (g *gate) open() { close(g.release) }

// quadRequest is a tiny 4-node request; variant perturbs the floorplan
// geometry so distinct variants get distinct content keys while staying
// equally feasible.
func quadRequest(variant int) *Request {
	dx := 0.25 * float64(variant+1) // variant 0 dx=0.25: the exact square is ring-infeasible
	return &Request{
		Network: NetworkSpec{Nodes: []NodeSpec{
			{ID: intp(0), X: 0, Y: 0},
			{ID: intp(1), X: 2.5, Y: 0},
			{ID: intp(2), X: 0, Y: 2.5},
			{ID: intp(3), X: 2.5 + dx, Y: 2.5},
		}},
		Options: OptionsSpec{MaxWL: 4},
	}
}

func postSynth(t *testing.T, url string, req *Request) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url+"/v1/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/synthesize: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, data
}

func decodeResponse(t *testing.T, data []byte) *Response {
	t.Helper()
	var r Response
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("decode response %s: %v", data, err)
	}
	return &r
}

func TestSynthesizeRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := map[string]string{
		"not json":        `{not json`,
		"unknown field":   `{"network": {"standard": 8}, "bogus": 1}`,
		"no nodes":        `{"network": {}}`,
		"bad maxWL":       `{"network": {"standard": 8}, "options": {"maxWL": 99}}`,
		"bad params":      `{"network": {"standard": 8}, "options": {"params": "nope"}}`,
		"bad objective":   `{"network": {"standard": 8}, "options": {"objective": "nope"}}`,
		"self traffic":    `{"network": {"standard": 8}, "options": {"maxWL": 2, "traffic": [{"src": 1, "dst": 1}]}}`,
		"duplicate coord": `{"network": {"nodes": [{"x": 0, "y": 0}, {"x": 0, "y": 0}]}}`,
	}
	for name, body := range cases {
		resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestSynthesizeBoundsFloorplanSize: a floorplan past 64 nodes is a 400
// that names the bound, and it never reaches the engine; the construct
// RPC enforces the same bound.
func TestSynthesizeBoundsFloorplanSize(t *testing.T) {
	var calls atomic.Int64
	stub := func(context.Context, *resolved) (*core.Result, error) {
		calls.Add(1)
		return nil, fmt.Errorf("stub engine")
	}
	_, ts := newTestServer(t, Config{Workers: 1, Synth: stub})
	row := func(n int) []NodeSpec {
		nodes := make([]NodeSpec, n)
		for i := range nodes {
			nodes[i].X = 2.5 * float64(i)
		}
		return nodes
	}

	resp, data := postSynth(t, ts.URL, &Request{Network: NetworkSpec{Nodes: row(65)}})
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(data, []byte("limit of 64")) {
		t.Errorf("65 nodes: status %d, body %s; want 400 naming the 64-node limit", resp.StatusCode, data)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("65-node request reached the engine %d times", n)
	}

	resp, data = postSynth(t, ts.URL, &Request{Network: NetworkSpec{Nodes: row(64)}})
	if resp.StatusCode == http.StatusBadRequest {
		t.Errorf("64 nodes rejected: %s", data)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("64-node request reached the engine %d times, want 1", n)
	}

	body, err := json.Marshal(&ConstructRequest{DieW: 200, DieH: 1, Nodes: row(65)})
	if err != nil {
		t.Fatal(err)
	}
	cresp, err := http.Post(ts.URL+"/v1/cluster/construct", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusBadRequest {
		t.Errorf("65-node construct: status %d, want 400", cresp.StatusCode)
	}

	// A ring needs three nodes; the floorplan decoder alone admits two.
	body, err = json.Marshal(&ConstructRequest{DieW: 10, DieH: 1, Nodes: row(2)})
	if err != nil {
		t.Fatal(err)
	}
	cresp, err = http.Post(ts.URL+"/v1/cluster/construct", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(cresp.Body)
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusBadRequest || !bytes.Contains(data, []byte("at least 3 nodes")) {
		t.Errorf("2-node construct: status %d, body %s; want 400 naming the 3-node minimum", cresp.StatusCode, data)
	}

	// Like every other POST, the construct body decodes strictly: an
	// unknown field is a 400 counted as an invalid request.
	prev := obs.MetricsEnabled()
	obs.EnableMetrics(true)
	defer obs.EnableMetrics(prev)
	body, err = json.Marshal(&ConstructRequest{DieW: 10, DieH: 1, Nodes: row(3)})
	if err != nil {
		t.Fatal(err)
	}
	body = append([]byte(`{"maxNodez": 3, `), body[1:]...)
	invalid := mRequestsInvalid.Value()
	cresp, err = http.Post(ts.URL+"/v1/cluster/construct", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(cresp.Body)
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusBadRequest || !bytes.Contains(data, []byte("unknown field")) {
		t.Errorf("unknown-field construct: status %d, body %s; want 400 naming the unknown field", cresp.StatusCode, data)
	}
	if got := mRequestsInvalid.Value() - invalid; got != 1 {
		t.Errorf("unknown-field construct counted %d invalid requests, want 1", got)
	}
}

func TestDedupSingleflight(t *testing.T) {
	g := newGate()
	s, ts := newTestServer(t, Config{QueueDepth: 8, Workers: 1, Synth: g.synth})

	const n = 6
	var wg sync.WaitGroup
	sources := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := postSynth(t, ts.URL, quadRequest(0))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status = %d, body %s", resp.StatusCode, data)
				return
			}
			sources <- decodeResponse(t, data).Source
		}()
	}
	// Exactly one synthesis should enter the engine; wait for it, then
	// wait until every request has been counted before releasing.
	<-g.started
	deadline := time.After(10 * time.Second)
	for s.Stats().Requests < n {
		select {
		case <-deadline:
			t.Fatalf("only %d/%d requests arrived", s.Stats().Requests, n)
		case <-time.After(time.Millisecond):
		}
	}
	g.open()
	wg.Wait()
	close(sources)

	if got := g.calls.Load(); got != 1 {
		t.Errorf("synth calls = %d, want 1 (singleflight)", got)
	}
	st := s.Stats()
	if st.Synthesized != 1 {
		t.Errorf("stats.Synthesized = %d, want 1", st.Synthesized)
	}
	if st.DedupHits+st.CacheHits != n-1 {
		t.Errorf("dedup %d + cache %d hits, want %d combined", st.DedupHits, st.CacheHits, n-1)
	}
	counts := map[string]int{}
	for src := range sources {
		counts[src]++
	}
	if counts["synthesized"] != 1 {
		t.Errorf("sources = %v, want exactly one \"synthesized\"", counts)
	}
}

func TestQueueFullRejects429(t *testing.T) {
	g := newGate()
	s, ts := newTestServer(t, Config{QueueDepth: 1, Workers: 1, Synth: g.synth})
	defer g.open()

	// Occupy the worker: async submit, then wait for the engine to enter.
	async := func(variant int) (*http.Response, []byte) {
		req := quadRequest(variant)
		req.Async = true
		return postSynth(t, ts.URL, req)
	}
	if resp, data := async(0); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d, body %s", resp.StatusCode, data)
	}
	<-g.started
	// Fill the queue's single slot, then overflow it.
	if resp, data := async(1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: status %d, body %s", resp.StatusCode, data)
	}
	resp, data := async(2)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429; body %s", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After header")
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Errorf("stats.Rejected = %d, want 1", st.Rejected)
	}
}

func TestDrainCompletesAdmittedJobsAndRejectsNew(t *testing.T) {
	g := newGate()
	s, err := New(Config{QueueDepth: 8, Workers: 1, Synth: g.synth})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const admitted = 4
	ids := make([]string, admitted)
	for i := 0; i < admitted; i++ {
		req := quadRequest(i)
		req.Async = true
		resp, data := postSynth(t, ts.URL, req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d, body %s", i, resp.StatusCode, data)
		}
		ids[i] = decodeResponse(t, data).JobID
	}
	<-g.started // worker is mid-job; the rest sit in the queue

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drainErr <- s.Drain(ctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New work is now refused...
	resp, data := postSynth(t, ts.URL, quadRequest(9))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503; body %s", resp.StatusCode, data)
	}
	if rz, err := http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, rz.Body)
		rz.Body.Close()
		if rz.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("/readyz while draining: status %d, want 503", rz.StatusCode)
		}
	}

	// ...but every admitted job still completes: zero drops.
	g.open()
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode status: %v", err)
		}
		resp.Body.Close()
		if st.State != StateDone {
			t.Errorf("job %s state = %s after drain, want done (error %q)", id, st.State, st.Error)
		}
	}
	if st := s.Stats(); st.Synthesized != admitted {
		t.Errorf("stats.Synthesized = %d, want %d", st.Synthesized, admitted)
	}
}

func TestDeadlineExpiryFailsJobWith504(t *testing.T) {
	block := func(ctx context.Context, _ *resolved) (*core.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	_, ts := newTestServer(t, Config{Workers: 1, Synth: block})
	req := quadRequest(0)
	req.DeadlineMS = 30
	resp, data := postSynth(t, ts.URL, req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", resp.StatusCode, data)
	}
}

func TestCacheHitServesIdenticalBytesAcrossSpellings(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	first := quadRequest(0)
	resp, data := postSynth(t, ts.URL, first)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first: status %d, body %s", resp.StatusCode, data)
	}
	r1 := decodeResponse(t, data)
	if r1.Source != "synthesized" {
		t.Errorf("first source = %q, want synthesized", r1.Source)
	}

	// Same design, different spelling: nodes listed in reverse order.
	second := quadRequest(0)
	for i, j := 0, len(second.Network.Nodes)-1; i < j; i, j = i+1, j-1 {
		second.Network.Nodes[i], second.Network.Nodes[j] = second.Network.Nodes[j], second.Network.Nodes[i]
	}
	resp, data = postSynth(t, ts.URL, second)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second: status %d, body %s", resp.StatusCode, data)
	}
	r2 := decodeResponse(t, data)
	if r2.Source != "cache" {
		t.Errorf("second source = %q, want cache (canonicalization should collapse spellings)", r2.Source)
	}
	if r1.Key != r2.Key {
		t.Errorf("keys differ across spellings: %s vs %s", r1.Key, r2.Key)
	}
	if !bytes.Equal(r1.Design, r2.Design) {
		t.Error("cache hit returned different design payload")
	}
}

// TestServiceDesignMatchesLibraryBytes: the design a daemon serves is
// byte-identical to the library's designio.Save of the same request,
// and it reloads and re-analyzes the way `xring -analyze` does — for a
// tiny floorplan and for the standard 16-node router with its PDN.
func TestServiceDesignMatchesLibraryBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  *Request
	}{
		{"quad", quadRequest(1)},
		{"std16pdn", &Request{Network: NetworkSpec{Standard: 16}, Options: OptionsSpec{MaxWL: 14, WithPDN: true}}},
	} {
		req := tc.req
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{Workers: 1})
			resp, data := postSynth(t, ts.URL, req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, body %s", resp.StatusCode, data)
			}
			r := decodeResponse(t, data)

			// Library run of the same request.
			rr := mustResolve(t, req)
			res, err := core.SynthesizeCtx(context.Background(), rr.net, rr.opt)
			if err != nil {
				t.Fatalf("library synthesis: %v", err)
			}
			want, err := designio.Save(res.Design)
			if err != nil {
				t.Fatalf("designio.Save: %v", err)
			}

			for _, path := range []string{"/v1/jobs/" + r.JobID + "/design", "/v1/designs/" + r.Key} {
				dresp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				got, err := io.ReadAll(dresp.Body)
				dresp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if dresp.StatusCode != http.StatusOK {
					t.Fatalf("GET %s: status %d, body %s", path, dresp.StatusCode, got)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("GET %s: design bytes differ from library designio.Save (%d vs %d bytes)",
						path, len(got), len(want))
				}
			}
			analyzeServed(t, want)
		})
	}
}

// analyzeServed reloads served design bytes and re-runs the loss and
// crosstalk analyses on them, as `xring -analyze FILE` does.
func analyzeServed(t *testing.T, design []byte) {
	t.Helper()
	d, err := xring.LoadDesign(design)
	if err != nil {
		t.Fatalf("LoadDesign: %v", err)
	}
	withTree := false
	for _, w := range d.Waveguides {
		withTree = withTree || w.Opening >= 0
	}
	if _, _, err := xring.AnalyzeDesign(d, withTree); err != nil {
		t.Fatalf("AnalyzeDesign of the served design: %v", err)
	}
}

func TestEventsStreamReplayAndLive(t *testing.T) {
	g := newGate()
	_, ts := newTestServer(t, Config{Workers: 1, Synth: g.synth})
	req := quadRequest(0)
	req.Async = true
	resp, data := postSynth(t, ts.URL, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, data)
	}
	id := decodeResponse(t, data).JobID
	<-g.started

	// Subscribe mid-run: the stream must replay queued/started, then
	// deliver the live stage + done events after release.
	evResp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	if ct := evResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		g.open()
	}()

	var types []string
	seenSeq := map[int]bool{}
	sc := bufio.NewScanner(evResp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			t.Fatalf("bad event payload %q: %v", line, err)
		}
		if seenSeq[ev.Seq] {
			t.Errorf("event seq %d delivered twice", ev.Seq)
		}
		seenSeq[ev.Seq] = true
		types = append(types, ev.Type)
		if ev.Type == "done" || ev.Type == "failed" {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	joined := strings.Join(types, ",")
	if len(types) < 3 || types[0] != "queued" || types[1] != "started" || types[len(types)-1] != "done" {
		t.Fatalf("event types = %s, want queued,started,...,done", joined)
	}
	var stages int
	for _, ty := range types {
		if ty == "stage" {
			stages++
		}
	}
	if stages == 0 {
		t.Errorf("no stage progress events in stream %s", joined)
	}
}

func TestJobEndpointsUnknownID(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/events", "/v1/jobs/nope/design", "/v1/designs/nope"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestHealthStatsMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for path, want := range map[string]int{
		"/healthz":  http.StatusOK,
		"/readyz":   http.StatusOK,
		"/metrics":  http.StatusOK,
		"/v1/stats": http.StatusOK,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d (body %s)", path, resp.StatusCode, want, body)
		}
	}
	// /v1/stats decodes into the exported Stats shape.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	resp.Body.Close()
	_ = fmt.Sprintf("%+v", st)
}
