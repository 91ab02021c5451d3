package service

// End-to-end tests of the request-scoped tracing contract: one trace
// ID, accepted from the traceparent header or generated at admission,
// shows up in the response envelope, the summary, every SSE event, the
// flight recorder, and on-disk panic snapshots.

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xring/internal/obs"
	"xring/internal/resilience"
)

// postSynthTraced is postSynth with a traceparent header attached.
func postSynthTraced(t *testing.T, url string, req *Request, traceparent string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/synthesize", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		hreq.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(hreq)
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

// TestTraceIDEndToEnd: a request submitted with a W3C traceparent gets
// the same trace ID back in the envelope, the summary, the X-Trace-Id
// header, every SSE event of its job, and the flight-recorder record —
// the acceptance criterion of the tracing feature.
func TestTraceIDEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	resp, data := postSynthTraced(t, ts.URL, quadRequest(0),
		"00-"+traceID+"-00f067aa0ba902b7-01")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != traceID {
		t.Errorf("X-Trace-Id = %q, want %q", got, traceID)
	}
	r := decodeResponse(t, data)
	if r.TraceID != traceID {
		t.Errorf("Response.TraceID = %q, want %q", r.TraceID, traceID)
	}
	if r.Summary == nil || r.Summary.TraceID != traceID {
		t.Errorf("Summary.TraceID = %+v, want %q", r.Summary, traceID)
	}

	// Every SSE event of the finished job carries the trace ID.
	sres, err := http.Get(ts.URL + "/v1/jobs/" + r.JobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sres.Body.Close()
	events := 0
	sc := bufio.NewScanner(sres.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		events++
		if ev.TraceID != traceID {
			t.Fatalf("event %d (%s) TraceID = %q, want %q", ev.Seq, ev.Type, ev.TraceID, traceID)
		}
		if ev.Type == "done" || ev.Type == "failed" {
			break
		}
	}
	if events < 3 { // queued, started, >=1 stage, done
		t.Errorf("saw only %d events", events)
	}

	// The flight recorder holds the job's record under the same ID.
	fres, err := http.Get(ts.URL + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	defer fres.Body.Close()
	var dump obs.FlightDump
	if err := json.NewDecoder(fres.Body).Decode(&dump); err != nil {
		t.Fatalf("decode flight dump: %v", err)
	}
	var rec *obs.JobRecord
	for i := range dump.Records {
		if dump.Records[i].TraceID == traceID {
			rec = &dump.Records[i]
		}
	}
	if rec == nil {
		t.Fatalf("no flight record with trace %s in %+v", traceID, dump.Records)
	}
	if rec.JobID != r.JobID || rec.Outcome != outcomeOK {
		t.Errorf("flight record = %+v, want job %s outcome ok", rec, r.JobID)
	}
	if len(rec.Stages) == 0 {
		t.Error("flight record has no stage timings")
	}
	if rec.DurMS <= 0 || rec.QueueWaitMS < 0 {
		t.Errorf("flight record timings = dur %v, queueWait %v", rec.DurMS, rec.QueueWaitMS)
	}
	_ = s
}

// TestTraceIDGenerated: absent or malformed traceparent headers yield
// a fresh valid trace ID rather than an error or an empty field.
func TestTraceIDGenerated(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, tp := range []string{"", "garbage", "00-zzzz-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01"} {
		resp, data := postSynthTraced(t, ts.URL, quadRequest(1), tp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("traceparent %q: status %d: %s", tp, resp.StatusCode, data)
		}
		r := decodeResponse(t, data)
		if _, err := obs.ParseTraceID(r.TraceID); err != nil {
			t.Errorf("traceparent %q: generated TraceID %q invalid: %v", tp, r.TraceID, err)
		}
		if got := resp.Header.Get("X-Trace-Id"); got != r.TraceID {
			t.Errorf("traceparent %q: header %q != body %q", tp, got, r.TraceID)
		}
	}
}

// TestTraceIDCacheSemantics: a cache hit's envelope carries the current
// request's trace ID while the cached summary keeps the ID of the
// request that actually synthesized — both runs stay attributable.
func TestTraceIDCacheSemantics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	const first = "aaaabbbbccccddddeeeeffff00001111"
	const second = "11112222333344445555666677778888"
	resp, data := postSynthTraced(t, ts.URL, quadRequest(2), "00-"+first+"-00f067aa0ba902b7-01")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first: status %d: %s", resp.StatusCode, data)
	}
	resp, data = postSynthTraced(t, ts.URL, quadRequest(2), "00-"+second+"-00f067aa0ba902b7-01")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second: status %d: %s", resp.StatusCode, data)
	}
	r := decodeResponse(t, data)
	if r.Source != "cache" {
		t.Fatalf("second response source = %s, want cache", r.Source)
	}
	if r.TraceID != second {
		t.Errorf("cache-hit envelope TraceID = %q, want %q", r.TraceID, second)
	}
	if r.Summary == nil || r.Summary.TraceID != first {
		t.Errorf("cached Summary.TraceID = %+v, want synthesizing request %q", r.Summary, first)
	}
}

// TestFlightSnapshotOnPanic: a job killed by an injected panic leaves
// a flight-recorder snapshot on disk whose records include the failing
// job with its trace ID and panic flag — the acceptance criterion of
// the flight recorder — and a live /metrics scrape counts exactly that
// one snapshot.
func TestFlightSnapshotOnPanic(t *testing.T) {
	// Count from zero with metrics on, as a daemon does.
	prevM := obs.MetricsEnabled()
	obs.EnableMetrics(true)
	obs.ResetMetrics()
	t.Cleanup(func() {
		obs.EnableMetrics(prevM)
		obs.ResetMetrics()
	})
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{
		Workers:   1,
		FlightDir: dir,
		Injector:  resilience.NewInjector(1, resilience.Rule{Point: "service.job", Panic: true, Times: 1}),
	})
	const traceID = "deadbeefdeadbeefdeadbeefdeadbeef"
	resp, data := postSynthTraced(t, ts.URL, quadRequest(3), "00-"+traceID+"-00f067aa0ba902b7-01")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, data)
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.TraceID != traceID {
		t.Errorf("error body = %s, want traceID %q", data, traceID)
	}

	matches, err := filepath.Glob(filepath.Join(dir, "flight-panic-*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("snapshot files = %v (err %v), want exactly one", matches, err)
	}
	raw, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	var dump obs.FlightDump
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	found := false
	for _, rec := range dump.Records {
		if rec.TraceID == traceID {
			found = true
			if !rec.Panic || rec.Outcome != outcomeError || rec.Error == "" {
				t.Errorf("panic record = %+v", rec)
			}
		}
	}
	if !found {
		t.Fatalf("snapshot %s has no record with trace %s", matches[0], traceID)
	}

	body := scrapeExposition(t, ts.URL)
	if !strings.Contains(string(body), "\nxring_service_flight_snapshots_total 1\n") {
		t.Errorf("exposition lacks xring_service_flight_snapshots_total 1:\n%s", body)
	}
}

// scrapeExposition GETs /metrics and fails unless the body is valid
// Prometheus text exposition.
func scrapeExposition(t *testing.T, base string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.PrometheusContentType)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	return body
}

// TestMetricsContentNegotiation: GET /metrics defaults to valid
// Prometheus text exposition and keeps the JSON registry dump behind
// ?format=json and Accept: application/json.
func TestMetricsContentNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// One real job so duration/queue-wait histograms have observations.
	if resp, data := postSynth(t, ts.URL, quadRequest(4)); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}

	body := scrapeExposition(t, ts.URL)
	for _, want := range []string{
		"xring_service_requests_total",
		"xring_service_job_duration_ms_bucket",
		"\nxring_service_job_duration_ms_bucket{le=\"+Inf\"} ",
		"xring_service_job_duration_ms_ok_bucket",
		"xring_service_job_queue_wait_ms_bucket",
		"xring_service_queue_depth",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition lacks %s", want)
		}
	}

	for _, mode := range []string{"query", "accept"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
		if mode == "query" {
			req.URL.RawQuery = "format=json"
		} else {
			req.Header.Set("Accept", "application/json")
		}
		jr, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		jbody, _ := io.ReadAll(jr.Body)
		jr.Body.Close()
		if ct := jr.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type = %q, want application/json", mode, ct)
		}
		var dump obs.MetricsDump
		if err := json.Unmarshal(jbody, &dump); err != nil {
			t.Fatalf("%s: JSON dump invalid: %v", mode, err)
		}
		if len(dump.Counters) == 0 {
			t.Errorf("%s: JSON dump has no counters", mode)
		}
	}
}

// TestStatsBuildInfoAndUptime: /v1/stats reports uptime and the
// binary's build identity (satellite a).
func TestStatsBuildInfoAndUptime(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	time.Sleep(10 * time.Millisecond)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.UptimeSec <= 0 {
		t.Errorf("UptimeSec = %v, want > 0", st.UptimeSec)
	}
	if st.BuildInfo == nil || st.BuildInfo.GoVersion == "" {
		t.Errorf("BuildInfo = %+v, want at least GoVersion", st.BuildInfo)
	}
}
