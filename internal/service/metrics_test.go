package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"

	"xring/internal/obs"
)

// statsByMetric maps each server counter's registry name to its
// GET /v1/stats field. The peer-fill refusals are split on /metrics
// (corrupt, stale) and summed in Stats.PeerFillRejected.
func statsByMetric(st Stats) map[string]int64 {
	return map[string]int64{
		"service.requests":              st.Requests,
		"service.cache.hits":            st.CacheHits,
		"service.dedup.hits":            st.DedupHits,
		"service.admission.queue_full":  st.Rejected,
		"service.admission.draining":    st.Drained,
		"service.jobs.done":             st.Synthesized,
		"service.jobs.failed":           st.Failed,
		"service.jobs.degraded":         st.Degraded,
		"service.jobs.panics_recovered": st.Panics,
		"service.jobs.stage_timeouts":   st.StageTimeouts,
		"service.persist.hits":          st.PersistHits,
		"service.persist.recovered":     st.PersistRecovered,
		"service.persist.discarded":     st.PersistDiscarded,
		"explore.studies":               st.ExploreStudies,
		"explore.cells":                 st.ExploreCells,
		"explore.cells.failed":          st.ExploreCellsFailed,
		"service.whatif.runs":           st.WhatifRuns,
		"service.whatif.scenarios":      st.WhatifScenarios,
		"cluster.peerfill.adopted":      st.PeerFills,
		"cluster.entries.served":        st.ClusterEntriesServed,
		"cluster.construct.served":      st.ClusterConstructs,
	}
}

// scrapeCounters reads every counter of one /metrics scrape: from the
// ?format=json dump keyed by registry name when asJSON is set, else
// from the text exposition keyed by sample name (xring_<name>_total).
func scrapeCounters(t *testing.T, base string, asJSON bool) map[string]int64 {
	t.Helper()
	if asJSON {
		resp, err := http.Get(base + "/metrics?format=json")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var d obs.MetricsDump
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatal(err)
		}
		return d.Counters
	}
	out := map[string]int64{}
	sc := bufio.NewScanner(bytes.NewReader(scrapeExposition(t, base)))
	for sc.Scan() {
		name, v, ok := strings.Cut(sc.Text(), " ")
		if !ok || !strings.HasSuffix(name, "_total") {
			continue
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("counter %s: %v", name, err)
		}
		out[name] = n
	}
	return out
}

// textName is the exposition name of a registry counter.
func textName(name string) string {
	return "xring_" + strings.NewReplacer(".", "_").Replace(name) + "_total"
}

// checkMetricsMatchStats asserts that every server counter on s's
// /metrics, in both encodings, equals its own /v1/stats field.
func checkMetricsMatchStats(t *testing.T, label string, s *Server, base string) {
	t.Helper()
	st := s.Stats()
	for _, asJSON := range []bool{false, true} {
		got := scrapeCounters(t, base, asJSON)
		key := textName
		if asJSON {
			key = func(name string) string { return name }
		}
		for name, want := range statsByMetric(st) {
			if v, ok := got[key(name)]; !ok || v != want {
				t.Errorf("%s json=%v: %s = %d (present %v), /v1/stats says %d", label, asJSON, name, v, ok, want)
			}
		}
		rejected := got[key("cluster.peerfill.corrupt")] + got[key("cluster.peerfill.stale")]
		if rejected != st.PeerFillRejected {
			t.Errorf("%s json=%v: peer-fill corrupt+stale = %d, /v1/stats peerFillRejected = %d",
				label, asJSON, rejected, st.PeerFillRejected)
		}
	}
}

// TestMetricsServeEachServersOwnCounters runs two servers in one
// process, each on its own workload, and checks that each server's
// /metrics counters (text and JSON) equal its own /v1/stats fields —
// not the sum over every server in the process.
func TestMetricsServeEachServersOwnCounters(t *testing.T) {
	// Count with metrics on, as a daemon does; the server counters must
	// not depend on the flag, which the last check switches off.
	prevM := obs.MetricsEnabled()
	obs.EnableMetrics(true)
	obs.ResetMetrics()
	t.Cleanup(func() {
		obs.EnableMetrics(prevM)
		obs.ResetMetrics()
	})

	// Server A: a peer that only hands out junk (one corrupt refusal),
	// a miss, a cache hit, an invalid request and a whatif replay.
	a, tsA := newTestServer(t, Config{
		Workers: 1,
		PeerFetch: func(context.Context, string) ([]byte, error) {
			return []byte("not an envelope"), nil
		},
	})
	var key string
	for i := 0; i < 2; i++ {
		resp, data := postSynth(t, tsA.URL, quadRequest(1))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("A synthesize: status %d: %s", resp.StatusCode, data)
		}
		key = decodeResponse(t, data).Key
	}
	if resp, _ := postSynth(t, tsA.URL, &Request{}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("A empty request: status %d, want 400", resp.StatusCode)
	}
	if resp, data := postWhatif(t, tsA.URL, &WhatifRequest{Key: key, Faults: WhatifFaults{Kinds: []string{"mrr"}}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("A whatif: status %d: %s", resp.StatusCode, data)
	}

	// Server B: an explore study (misses plus amplified cells), one
	// envelope served to a peer and one construct solved for the fleet.
	b, tsB := newTestServer(t, Config{Workers: 1})
	resp, data := postExplore(t, tsB.URL, &ExploreRequest{Grid: exploreGrid(4)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("B explore: status %d: %s", resp.StatusCode, data)
	}
	fetchEnvelope(t, tsB.URL, decodeExplore(t, data).Frontier[0].Key)
	body, err := json.Marshal(&ConstructRequest{DieW: 10, DieH: 10, Nodes: quadRequest(1).Network.Nodes})
	if err != nil {
		t.Fatal(err)
	}
	cresp, err := http.Post(tsB.URL+"/v1/cluster/construct", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("B construct: status %d", cresp.StatusCode)
	}

	// The workloads must tell the servers apart, or equality proves
	// nothing.
	sa, sb := a.Stats(), b.Stats()
	if sa.Synthesized != 1 || sa.CacheHits != 2 || sa.PeerFillRejected != 1 || sa.WhatifRuns != 1 || sa.ExploreStudies != 0 {
		t.Errorf("A stats = %+v, want 1 synthesized, 2 cache hits (repeat, whatif load), 1 peer-fill refusal, 1 whatif, no explore", sa)
	}
	if sb.ExploreStudies != 1 || sb.ExploreCells != 4 || sb.ClusterEntriesServed != 1 || sb.ClusterConstructs != 1 || sb.WhatifRuns != 0 {
		t.Errorf("B stats = %+v, want 1 study of 4 cells, 1 entry served, 1 construct, no whatif", sb)
	}

	checkMetricsMatchStats(t, "A", a, tsA.URL)
	checkMetricsMatchStats(t, "B", b, tsB.URL)
	obs.EnableMetrics(false)
	checkMetricsMatchStats(t, "A (metrics off)", a, tsA.URL)
}

// TestMetricsServerFamilies pins the xring_service_*, xring_explore_*
// and xring_cluster_* family names of a single-server scrape.
func TestMetricsServerFamilies(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var got []string
	for _, line := range strings.Split(string(scrapeExposition(t, ts.URL)), "\n") {
		name, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		name, _, _ = strings.Cut(name, " ")
		for _, p := range []string{"xring_service_", "xring_explore_", "xring_cluster_"} {
			if strings.HasPrefix(name, p) {
				got = append(got, name)
			}
		}
	}
	want := []string{
		"xring_cluster_construct_served_total",
		"xring_cluster_entries_served_total",
		"xring_cluster_peerfill_adopted_total",
		"xring_cluster_peerfill_corrupt_total",
		"xring_cluster_peerfill_misses_total",
		"xring_cluster_peerfill_stale_total",
		"xring_explore_cell_duration_ms",
		"xring_explore_cells_degraded_total",
		"xring_explore_cells_failed_total",
		"xring_explore_cells_total",
		"xring_explore_frontier_dominated_total",
		"xring_explore_frontier_evictions_total",
		"xring_explore_frontier_inserts_total",
		"xring_explore_frontier_size",
		"xring_explore_frontier_size_max",
		"xring_explore_grid_cells_total",
		"xring_explore_grid_expansions_total",
		"xring_explore_studies_total",
		"xring_explore_study_duration_ms",
		"xring_service_admission_draining_total",
		"xring_service_admission_queue_full_total",
		"xring_service_cache_evictions_total",
		"xring_service_cache_hits_total",
		"xring_service_cache_misses_total",
		"xring_service_cache_size",
		"xring_service_cache_size_max",
		"xring_service_dedup_hits_total",
		"xring_service_events_published_total",
		"xring_service_flight_snapshots_total",
		"xring_service_job_duration_ms",
		"xring_service_job_duration_ms_degraded",
		"xring_service_job_duration_ms_error",
		"xring_service_job_duration_ms_ok",
		"xring_service_job_duration_ms_timeout",
		"xring_service_job_queue_wait_ms",
		"xring_service_jobs_degraded_total",
		"xring_service_jobs_done_total",
		"xring_service_jobs_failed_total",
		"xring_service_jobs_inflight",
		"xring_service_jobs_inflight_max",
		"xring_service_jobs_panics_recovered_total",
		"xring_service_jobs_stage_timeouts_total",
		"xring_service_persist_discarded_total",
		"xring_service_persist_evictions_total",
		"xring_service_persist_hits_total",
		"xring_service_persist_recovered_total",
		"xring_service_persist_write_errors_total",
		"xring_service_persist_writes_total",
		"xring_service_queue_depth",
		"xring_service_queue_depth_max",
		"xring_service_requests_invalid_total",
		"xring_service_requests_total",
		"xring_service_whatif_duration_ms",
		"xring_service_whatif_runs_total",
		"xring_service_whatif_scenarios_total",
	}
	if !slices.Equal(got, want) {
		t.Errorf("families:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
