package service

// /v1/explore tests: cell/standalone content-key equivalence, grid
// studies end to end over the real engine (cache amplification,
// per-cell failure isolation, degraded-cell injection), frontier
// byte-determinism across servers and cell orderings, SSE frontier
// events, and the one-tier-per-serve cache accounting pin.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"xring/internal/explore"
	"xring/internal/obs"
	"xring/internal/parallel"
)

// exploreGrid is a 2-floorplan grid whose floorplans reuse the
// quadRequest geometry (variant-perturbed so the two get distinct
// keys). The "copy" policy carries the same switches as "base" under a
// different name: its cells share content keys with base's, so every
// study over this grid measures cache/dedup amplification.
func exploreGrid(budgets ...int) explore.Grid {
	return explore.Grid{
		Floorplans: []explore.Floorplan{
			{Name: "quadA", Network: json.RawMessage(`{"nodes": [
				{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 2.5, "y": 0},
				{"id": 2, "x": 0, "y": 2.5}, {"id": 3, "x": 2.75, "y": 2.5}]}`)},
			{Name: "quadB", Network: json.RawMessage(`{"nodes": [
				{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 2.5, "y": 0},
				{"id": 2, "x": 0, "y": 2.5}, {"id": 3, "x": 3, "y": 2.5}]}`)},
		},
		Budgets:  budgets,
		Policies: []explore.Policy{{Name: "base"}, {Name: "copy"}},
	}
}

func postExplore(t *testing.T, url string, req *ExploreRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url+"/v1/explore", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/explore: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, data
}

func decodeExplore(t *testing.T, data []byte) *ExploreStatus {
	t.Helper()
	var st ExploreStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("decode explore status %s: %v", data, err)
	}
	return &st
}

// TestExploreCellKeysMatchStandalone pins the tentpole's cache-sharing
// contract: every grid cell's canonical content key is byte-identical
// to the key of the equivalent standalone /v1/synthesize request —
// including when the standalone request lists nodes in another order
// or spells coordinates with different float literals.
func TestExploreCellKeysMatchStandalone(t *testing.T) {
	g := explore.Grid{
		Floorplans: []explore.Floorplan{
			{Name: "quad", Network: json.RawMessage(`{"nodes": [
				{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 2.5, "y": 0},
				{"id": 2, "x": 0, "y": 2.5}, {"id": 3, "x": 2.75, "y": 2.5}]}`)},
		},
		Budgets:    []int{4, 0},
		Objectives: []string{"min-power", "min-il"},
		Policies:   []explore.Policy{{Name: "base"}, {Name: "nocse", NoCSE: true}},
		Share:      []bool{false, true},
	}
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Standalone body template: nodes shuffled relative to the floorplan
	// listing, coordinates spelled as 2.50 / 25e-1 / 0.275e1.
	for _, c := range cells {
		req, err := cellRequest(&g, c)
		if err != nil {
			t.Fatalf("cell %s: %v", c.ID, err)
		}
		cellKey := keyOf(t, req)

		opts := fmt.Sprintf(`"shareWavelengths": %t, "noCSE": %t`, c.Share, c.Policy.NoCSE)
		if c.Sweep {
			opts += fmt.Sprintf(`, "sweep": true, "objective": %q`, c.Objective)
		} else {
			opts += fmt.Sprintf(`, "maxWL": %d`, c.Budget)
		}
		standalone := fmt.Sprintf(`{
			"network": {"nodes": [
				{"id": 3, "x": 0.275e1, "y": 2.50},
				{"id": 0, "x": 0.0, "y": 0},
				{"id": 2, "x": 0, "y": 25e-1},
				{"id": 1, "x": 2.500, "y": 0}
			]},
			"options": {%s}
		}`, opts)
		if saKey := keyOfJSON(t, standalone); saKey != cellKey {
			t.Errorf("cell %s: key %s != standalone key %s", c.ID, cellKey, saKey)
		}
	}
	// And the copy policy really does alias base's keys (the grid's
	// cache-amplification premise).
	gv := exploreGrid(4)
	cells, err = gv.Expand()
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]string{}
	for _, c := range cells {
		req, err := cellRequest(&gv, c)
		if err != nil {
			t.Fatal(err)
		}
		byID[c.ID] = keyOf(t, req)
	}
	if byID["quadA/wl4/base/fresh"] != byID["quadA/wl4/copy/fresh"] {
		t.Error("identical policies under different names got different keys")
	}
	if byID["quadA/wl4/base/fresh"] == byID["quadB/wl4/base/fresh"] {
		t.Error("different floorplans share a key")
	}
}

func TestExploreEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	resp, data := postExplore(t, ts.URL, &ExploreRequest{Grid: exploreGrid(4)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore: status %d, body %s", resp.StatusCode, data)
	}
	st := decodeExplore(t, data)
	if st.State != StateDone {
		t.Fatalf("state = %s, want done", st.State)
	}
	if st.Cells != 4 || st.Completed != 4 || st.OK != 4 || st.Failed != 0 {
		t.Fatalf("cells=%d completed=%d ok=%d failed=%d, want 4/4/4/0", st.Cells, st.Completed, st.OK, st.Failed)
	}
	// The copy-policy cells alias the base cells: exactly 2 distinct
	// keys, so 2 of the 4 cells were served without synthesis.
	if st.CacheHits+st.DedupHits != 2 {
		t.Errorf("cacheHits=%d dedupHits=%d, want 2 amplified cells", st.CacheHits, st.DedupHits)
	}
	if len(st.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Error("no X-Trace-Id on the explore response")
	}

	// Every frontier point's design is fetchable by its content key.
	for _, p := range st.Frontier {
		if body := getDesign(t, ts.URL, p.Key); len(body) == 0 {
			t.Errorf("frontier point %s: empty design", p.CellID)
		}
	}

	// Status and frontier endpoints agree with the sync response.
	hresp, err := http.Get(ts.URL + "/v1/explore/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	again := decodeExplore(t, readAll(t, hresp))
	if again.Completed != 4 || len(again.Frontier) != len(st.Frontier) {
		t.Errorf("status endpoint disagrees: %+v", again)
	}
	fresp, err := http.Get(ts.URL + "/v1/explore/" + st.ID + "/frontier")
	if err != nil {
		t.Fatal(err)
	}
	var fb FrontierBody
	if err := json.Unmarshal(readAll(t, fresp), &fb); err != nil {
		t.Fatal(err)
	}
	if fb.ID != st.ID || fb.Size != len(st.Frontier) {
		t.Errorf("frontier body = %+v", fb)
	}
	if got := s.Stats(); got.ExploreStudies != 1 || got.ExploreCells != 4 || got.ExploreCellsFailed != 0 {
		t.Errorf("stats = %+v", got)
	}

	resubmitFromCache(t, ts.URL, exploreGrid(4), st)
	if got := s.Stats().ExploreStudies; got != 2 {
		t.Errorf("exploreStudies = %d, want 2", got)
	}
}

// TestExploreCellAttachCountsMiss pins the one admission path: a cell
// that attaches to an in-flight /v1/synthesize job is one dedup hit and
// one cache miss, exactly like a /v1/synthesize request that attaches.
func TestExploreCellAttachCountsMiss(t *testing.T) {
	prev := obs.MetricsEnabled()
	obs.EnableMetrics(true)
	defer obs.EnableMetrics(prev)
	g := newGate()
	s, ts := newTestServer(t, Config{QueueDepth: 4, Workers: 1, Synth: g.synth})

	grid := explore.Grid{Floorplans: exploreGrid(4).Floorplans[:1], Budgets: []int{4}}
	cells, err := grid.Expand()
	if err != nil {
		t.Fatal(err)
	}
	req, err := cellRequest(&grid, cells[0])
	if err != nil {
		t.Fatal(err)
	}
	misses := mCacheMisses.Value()
	req.Async = true
	if resp, data := postSynth(t, ts.URL, req); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async synthesize: status %d, body %s", resp.StatusCode, data)
	}
	<-g.started // the job is in flight, held at the gate

	resp, data := postExplore(t, ts.URL, &ExploreRequest{Grid: grid, Async: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async explore: status %d, body %s", resp.StatusCode, data)
	}
	id := decodeExplore(t, data).ID
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().DedupHits < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the cell never attached to the in-flight job")
		}
		time.Sleep(time.Millisecond)
	}
	g.open()
	var st *ExploreStatus
	for {
		hresp, err := http.Get(ts.URL + "/v1/explore/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if st = decodeExplore(t, readAll(t, hresp)); st.State == StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("study never finished: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if st.DedupHits != 1 || st.Cells != 1 || st.OK != 1 {
		t.Errorf("study dedupHits=%d cells=%d ok=%d, want 1/1/1", st.DedupHits, st.Cells, st.OK)
	}
	if got := s.Stats().DedupHits; got != 1 {
		t.Errorf("server dedupHits = %d, want 1", got)
	}
	if got := mCacheMisses.Value() - misses; got != 2 {
		t.Errorf("service.cache.misses rose by %d, want 2 (the request and the attached cell)", got)
	}
	if got := g.calls.Load(); got != 1 {
		t.Errorf("synth calls = %d, want 1", got)
	}
}

// resubmitFromCache submits grid a second time to the server that ran
// the first study: every cell must be a cache hit and the frontier CSV
// must be byte-identical to the first study's.
func resubmitFromCache(t *testing.T, base string, grid explore.Grid, first *ExploreStatus) {
	t.Helper()
	resp, data := postExplore(t, base, &ExploreRequest{Grid: grid})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmitted explore: status %d, body %s", resp.StatusCode, data)
	}
	again := decodeExplore(t, data)
	if again.Cells != first.Cells || again.CacheHits != again.Cells {
		t.Errorf("resubmitted study: cacheHits=%d of %d cells, want all %d", again.CacheHits, again.Cells, first.Cells)
	}
	if csv1, csv2 := frontierCSV(t, base, first.ID), frontierCSV(t, base, again.ID); !bytes.Equal(csv1, csv2) {
		t.Errorf("frontier CSV differs on resubmission:\n%s\nvs\n%s", csv1, csv2)
	}
}

// frontierCSV fetches a study's frontier as CSV.
func frontierCSV(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/explore/" + id + "/frontier?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("frontier CSV content type = %q", ct)
	}
	return readAll(t, resp)
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, err %v", resp.StatusCode, err)
	}
	return data
}

// TestExploreIsolatesFailingCells: one infeasible floorplan (the exact
// square admits no crossing-free ring) fails its cells; the study
// still completes and the healthy cells land on the frontier.
func TestExploreIsolatesFailingCells(t *testing.T) {
	g := explore.Grid{
		Floorplans: []explore.Floorplan{
			{Name: "good", Network: json.RawMessage(`{"nodes": [
				{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 2.5, "y": 0},
				{"id": 2, "x": 0, "y": 2.5}, {"id": 3, "x": 2.75, "y": 2.5}]}`)},
			{Name: "square", Network: json.RawMessage(`{"nodes": [
				{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 2.5, "y": 0},
				{"id": 2, "x": 0, "y": 2.5}, {"id": 3, "x": 2.5, "y": 2.5}]}`)},
		},
		Budgets: []int{4},
	}
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, data := postExplore(t, ts.URL, &ExploreRequest{Grid: g})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore: status %d, body %s", resp.StatusCode, data)
	}
	st := decodeExplore(t, data)
	if st.State != StateDone || st.Completed != 2 {
		t.Fatalf("state=%s completed=%d, want done/2", st.State, st.Completed)
	}
	if st.OK != 1 || st.Failed != 1 {
		t.Fatalf("ok=%d failed=%d, want 1/1", st.OK, st.Failed)
	}
	for _, cs := range st.CellStatuses {
		switch {
		case strings.HasPrefix(cs.ID, "square/") && (cs.Outcome != outcomeError || cs.Error == ""):
			t.Errorf("infeasible cell %s: outcome=%s error=%q", cs.ID, cs.Outcome, cs.Error)
		case strings.HasPrefix(cs.ID, "good/") && cs.Outcome != outcomeOK:
			t.Errorf("healthy cell %s: outcome=%s (%s)", cs.ID, cs.Outcome, cs.Error)
		}
	}
	if len(st.Frontier) != 1 || !strings.HasPrefix(st.Frontier[0].CellID, "good/") {
		t.Errorf("frontier = %+v, want the one healthy cell", st.Frontier)
	}
}

// TestExploreDegradedCellJoinsFrontier: an injected solver-budget fault
// degrades one cell (heuristic fallback); the study reports it degraded
// and its point carries the flag, and a resubmission serves it from the
// cache.
func TestExploreDegradedCellJoinsFrontier(t *testing.T) {
	g := explore.Grid{
		Floorplans: []explore.Floorplan{
			{Name: "quad", Network: json.RawMessage(`{"nodes": [
				{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 2.5, "y": 0},
				{"id": 2, "x": 0, "y": 2.5}, {"id": 3, "x": 2.875, "y": 2.5}]}`)},
		},
		Budgets: []int{4},
	}
	_, ts := newTestServer(t, Config{Workers: 1, FaultSpec: "core.ring=error:budget,times=1"})
	resp, data := postExplore(t, ts.URL, &ExploreRequest{Grid: g})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore: status %d, body %s", resp.StatusCode, data)
	}
	st := decodeExplore(t, data)
	if st.State != StateDone || st.Degraded != 1 || st.Failed != 0 {
		t.Fatalf("state=%s degraded=%d failed=%d, want done/1/0", st.State, st.Degraded, st.Failed)
	}
	if len(st.Frontier) != 1 || !st.Frontier[0].Degraded {
		t.Errorf("frontier = %+v, want one degraded point", st.Frontier)
	}
	// The degraded design is cached like any other.
	resubmitFromCache(t, ts.URL, g, st)
}

// TestExploreFrontierDeterministic runs one grid on two fresh servers
// with different worker-pool widths (hence different completion
// interleavings) and requires byte-identical frontier CSV.
func TestExploreFrontierDeterministic(t *testing.T) {
	defer parallel.SetWorkers(0)
	run := func(workers int) ([]byte, string) {
		parallel.SetWorkers(workers)
		_, ts := newTestServer(t, Config{Workers: 2})
		resp, data := postExplore(t, ts.URL, &ExploreRequest{Grid: exploreGrid(4, 3)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("explore: status %d, body %s", resp.StatusCode, data)
		}
		st := decodeExplore(t, data)
		return frontierCSV(t, ts.URL, st.ID), st.ID
	}
	csv1, id1 := run(1)
	csv2, id2 := run(4)
	if !bytes.Equal(csv1, csv2) {
		t.Errorf("frontier CSV differs across runs:\n%s\nvs\n%s", csv1, csv2)
	}
	// Same grid, same cell keys: the study's content digest matches too
	// (only the admission sequence number differs).
	if d1, d2 := id1[strings.Index(id1, "-"):], id2[strings.Index(id2, "-"):]; d1 != d2 {
		t.Errorf("study content digests differ: %s vs %s", id1, id2)
	}
}

// TestExploreEventsStream replays a finished study's SSE stream and
// checks the event grammar — and that the last frontier event carries
// the final frontier.
func TestExploreEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, data := postExplore(t, ts.URL, &ExploreRequest{Grid: exploreGrid(4)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore: status %d, body %s", resp.StatusCode, data)
	}
	st := decodeExplore(t, data)

	eresp, err := http.Get(ts.URL + "/v1/explore/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if eresp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", eresp.StatusCode)
	}
	var types []string
	cellEvents := 0
	var lastFrontierPoints int
	sc := bufio.NewScanner(eresp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		if ev.TraceID != st.TraceID {
			t.Errorf("event %s has trace %q, study has %q", ev.Type, ev.TraceID, st.TraceID)
		}
		types = append(types, ev.Type)
		switch ev.Type {
		case "cell":
			cellEvents++
			if ev.Attrs["source"] == nil || ev.Attrs["outcome"] == nil {
				t.Errorf("cell event without source/outcome: %+v", ev)
			}
		case "frontier":
			pts, ok := ev.Attrs["points"].([]any)
			if !ok {
				t.Fatalf("frontier event without points: %+v", ev)
			}
			lastFrontierPoints = len(pts)
		}
		if ev.Type == "done" {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(types) == 0 || types[0] != "queued" || types[len(types)-1] != "done" {
		t.Fatalf("event stream %v, want queued ... done", types)
	}
	if cellEvents != st.Cells {
		t.Errorf("%d cell events for %d cells", cellEvents, st.Cells)
	}
	if lastFrontierPoints != len(st.Frontier) {
		t.Errorf("last frontier event carried %d points, final frontier has %d", lastFrontierPoints, len(st.Frontier))
	}
}

func TestExploreAsync(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, data := postExplore(t, ts.URL, &ExploreRequest{Grid: exploreGrid(4), Async: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async explore: status %d, body %s", resp.StatusCode, data)
	}
	st := decodeExplore(t, data)
	if loc := resp.Header.Get("Location"); loc != "/v1/explore/"+st.ID {
		t.Errorf("Location = %q", loc)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		hresp, err := http.Get(ts.URL + "/v1/explore/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		cur := decodeExplore(t, readAll(t, hresp))
		if cur.State == StateDone {
			if cur.Completed != cur.Cells {
				t.Errorf("done with %d/%d cells", cur.Completed, cur.Cells)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("study never finished: %+v", cur)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestExploreRejectsBadGrids(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := map[string]string{
		"not json":      `{not json`,
		"unknown field": `{"grid": {"floorplans": [], "budgets": [4]}, "bogus": 1}`,
		"no floorplans": `{"grid": {"budgets": [4]}}`,
		"bad network":   `{"grid": {"floorplans": [{"network": {"nope": 1}}], "budgets": [4]}}`,
		"bad budget":    `{"grid": {"floorplans": [{"network": {"standard": 8}}], "budgets": [99]}}`,
	}
	for name, body := range cases {
		resp, err := http.Post(ts.URL+"/v1/explore", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/explore/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown study: status %d, want 404", resp.StatusCode)
	}
}

// TestExploreBoundsGridBeforeExpanding posts a grid of 300 budgets x
// 300 policies: about 6 KB of JSON naming 90,000 cells. The study must
// be refused with a 400 for its cell count, and the refusal must not
// expand the grid (which allocated about 58 MB).
func TestExploreBoundsGridBeforeExpanding(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g := explore.Grid{Floorplans: []explore.Floorplan{{Name: "std8", Network: json.RawMessage(`{"standard": 8}`)}}}
	for i := 0; i < 300; i++ {
		g.Budgets = append(g.Budgets, i+1)
		g.Policies = append(g.Policies, explore.Policy{Name: fmt.Sprintf("p%d", i)})
	}
	body, err := json.Marshal(&ExploreRequest{Grid: g})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, err := http.Post(ts.URL+"/v1/explore", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "grid expands to 90000 cells (max 4096)") {
		t.Fatalf("status %d, body %s; want 400 naming the cell count", resp.StatusCode, data)
	}
	const maxBytes = 4 << 20
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > maxBytes {
		t.Fatalf("refusing a %d-byte grid allocated %d bytes, want <= %d", len(body), alloc, maxBytes)
	}
}

// TestCacheServeCountsOneTier pins the cache-accounting fix: a serve
// from the persist tier counts as exactly one persist hit (previously
// it also incremented the memory-tier counter), and a memory serve
// counts as exactly one cache hit.
func TestCacheServeCountsOneTier(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{Workers: 1, PersistDir: dir})
	resp, data := postSynth(t, ts1.URL, quadRequest(0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize: status %d, body %s", resp.StatusCode, data)
	}
	key := decodeResponse(t, data).Key

	// Memory-tier serve on the same server.
	getDesign(t, ts1.URL, key)
	if st := s1.Stats(); st.CacheHits != 1 || st.PersistHits != 0 {
		t.Errorf("memory serve: cacheHits=%d persistHits=%d, want 1/0", st.CacheHits, st.PersistHits)
	}
	drainServer(t, s1)

	// Persist-tier serve: memory cache disabled, so the design comes off
	// disk — one persist hit, zero memory hits.
	s2, ts2 := newTestServer(t, Config{Workers: 1, CacheEntries: -1, PersistDir: dir, Synth: noSynth})
	getDesign(t, ts2.URL, key)
	if st := s2.Stats(); st.PersistHits != 1 || st.CacheHits != 0 {
		t.Errorf("persist serve: persistHits=%d cacheHits=%d, want 1/0", st.PersistHits, st.CacheHits)
	}
}
