package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"xring/internal/explore"
)

// TestRegistryRetainsLiveAndEvictsOldestFinished pins the one retention
// policy every run kind shares, over a registry capped at 2: past the
// cap the oldest *finished* run is evicted and its ID then answers 404
// with the kind's message, while live runs are never evicted, even when
// that leaves the registry over its cap.
func TestRegistryRetainsLiveAndEvictsOldestFinished(t *testing.T) {
	cases := []struct {
		path, notFound string
		// add registers a fresh live run under id, with the kind's cap
		// lowered to 2.
		add func(s *Server, id string) *run
	}{
		{"/v1/jobs/", "unknown job", func(s *Server, id string) *run {
			s.jobs.limit = 2
			j := newJob(id, "sha256:0", "", nil, 0)
			s.jobs.add(j)
			return &j.run
		}},
		{"/v1/explore/", "unknown exploration", func(s *Server, id string) *run {
			s.explores.limit = 2
			x := &exploration{frontier: explore.NewFrontier()}
			x.init(id, "", nil)
			s.explores.add(x)
			return &x.run
		}},
		{"/v1/whatif/", "unknown whatif", func(s *Server, id string) *run {
			s.whatifs.limit = 2
			wr := &whatifRun{}
			wr.init(id, "", nil)
			s.whatifs.add(wr)
			return &wr.run
		}},
	}
	for _, tc := range cases {
		t.Run(strings.Trim(tc.path, "/"), func(t *testing.T) {
			s, ts := newTestServer(t, Config{})
			// retained asserts which of the IDs r1..r5 answer 200; every
			// other one must answer 404 with the kind's message.
			retained := func(want ...int) {
				t.Helper()
				for i := 1; i <= 5; i++ {
					kept := false
					for _, w := range want {
						kept = kept || w == i
					}
					for _, suffix := range []string{"", "/events"} {
						code, body := getBody(t, fmt.Sprintf("%s%sr%d%s", ts.URL, tc.path, i, suffix))
						switch {
						case kept && code != http.StatusOK:
							t.Errorf("r%d%s: status %d, want 200 (retained)", i, suffix, code)
						case !kept && (code != http.StatusNotFound || !strings.Contains(body, `"error": "`+tc.notFound+`"`)):
							t.Errorf("r%d%s: status %d body %s, want 404 %q", i, suffix, code, body, tc.notFound)
						}
					}
				}
			}
			r1 := tc.add(s, "r1")
			r2 := tc.add(s, "r2")
			r3 := tc.add(s, "r3")
			retained(1, 2, 3) // all live: over the cap, nothing evicted

			r2.finish(nil, nil, nil)
			tc.add(s, "r4")
			retained(1, 3, 4) // the finished r2 goes; the older live r1 stays

			r1.finish(nil, nil, nil)
			r3.finish(nil, nil, nil)
			tc.add(s, "r5")
			retained(4, 5) // oldest finished first, down to the cap
		})
	}
}

// getBody GETs url and returns the status and body. Event streams of
// live runs are not read past their headers.
func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get("Content-Type") == "text/event-stream" {
		return resp.StatusCode, ""
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// TestExploreStudiesCountedOnAdmission pins Stats.ExploreStudies to
// admitted studies: a malformed body, an oversize grid and a request on
// a draining server leave it unchanged; a valid study adds one.
func TestExploreStudiesCountedOnAdmission(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	budgets := make([]int, 1025) // 2 floorplans x 1025 budgets x 2 policies > 4096 cells
	for i := range budgets {
		budgets[i] = i + 1
	}
	post := func(body string, want int) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/explore", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("POST /v1/explore: status %d, want %d (body %s)", resp.StatusCode, want, data)
		}
	}
	studies := func(want int64) {
		t.Helper()
		if got := s.Stats().ExploreStudies; got != want {
			t.Fatalf("exploreStudies = %d, want %d", got, want)
		}
	}
	mustJSON := func(v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	valid := mustJSON(&ExploreRequest{Grid: exploreGrid(4)})

	post(`{not json`, http.StatusBadRequest)
	studies(0)
	post(mustJSON(&ExploreRequest{Grid: exploreGrid(budgets...)}), http.StatusBadRequest)
	studies(0)
	post(valid, http.StatusOK)
	studies(1)
	drainServer(t, s)
	post(valid, http.StatusServiceUnavailable)
	studies(1)
}
