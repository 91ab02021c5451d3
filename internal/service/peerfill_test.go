package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"xring/internal/core"
)

// solveOnOwner runs req on a fresh real-synthesis server and returns
// its content key, design bytes, and the owner's base URL (alive for
// the rest of the test, so PeerFetch hooks can hit its cluster entry
// endpoint).
func solveOnOwner(t *testing.T, req *Request) (key string, design []byte, ownerURL string) {
	t.Helper()
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, data := postSynth(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner synthesize: HTTP %d: %s", resp.StatusCode, data)
	}
	r := decodeResponse(t, data)
	if len(r.Design) == 0 {
		t.Fatal("owner returned no design")
	}
	return r.Key, []byte(r.Design), ts.URL
}

// fetchEnvelope pulls the persist envelope for key from a peer's
// GET /v1/cluster/entry/{key}.
func fetchEnvelope(t *testing.T, baseURL, key string) []byte {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/cluster/entry/" + key)
	if err != nil {
		t.Fatalf("fetch envelope: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read envelope: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch envelope: HTTP %d: %s", resp.StatusCode, data)
	}
	return data
}

// refuseSynth is a SynthFunc for servers that must never solve — any
// call is a test failure.
func refuseSynth(t *testing.T) SynthFunc {
	return func(ctx context.Context, r *resolved) (*core.Result, error) {
		t.Error("synthesis ran on a shard that should have peer-filled")
		return nil, errors.New("refused")
	}
}

// A shard that misses on a key another shard owns adopts the owner's
// envelope instead of solving, and the adopted design is byte-identical
// to the owner's. This is the cluster's core correctness property: any
// shard answers with the same bytes. Run under -race in CI.
func TestPeerFillAdoptsOwnerEnvelope(t *testing.T) {
	req := quadRequest(0)
	key, ownerDesign, ownerURL := solveOnOwner(t, req)

	s, ts := newTestServer(t, Config{
		Workers: 2,
		Synth:   refuseSynth(t),
		PeerFetch: func(ctx context.Context, k string) ([]byte, error) {
			if k != key {
				return nil, fmt.Errorf("unexpected key %s", k)
			}
			return fetchEnvelope(t, ownerURL, k), nil
		},
	})
	resp, data := postSynth(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peer-filled synthesize: HTTP %d: %s", resp.StatusCode, data)
	}
	r := decodeResponse(t, data)
	if r.Source != "peerfill" {
		t.Errorf("source %q, want peerfill", r.Source)
	}
	if !bytes.Equal(r.Design, ownerDesign) {
		t.Error("peer-filled design differs from the owner's bytes")
	}
	st := s.Stats()
	if st.PeerFills != 1 || st.Synthesized != 0 {
		t.Errorf("stats: peerFills=%d synthesized=%d, want 1/0", st.PeerFills, st.Synthesized)
	}

	// The fill populated the local cache: the next request is a plain
	// cache hit, not another fetch.
	resp2, data2 := postSynth(t, ts.URL, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: HTTP %d", resp2.StatusCode)
	}
	if r2 := decodeResponse(t, data2); r2.Source != "cache" {
		t.Errorf("second request source %q, want cache", r2.Source)
	}
	if st := s.Stats(); st.PeerFills != 1 {
		t.Errorf("peerFills=%d after cached re-request, want still 1", st.PeerFills)
	}
}

// GET /v1/designs/{key} on a shard that has never seen the key fills
// from the peer and serves the identical bytes — without counting a
// cache hit for a design this shard never held.
func TestDesignByKeyPeerFills(t *testing.T) {
	key, _, ownerURL := solveOnOwner(t, quadRequest(1))
	// Compare against the owner's raw design file bytes — Response.Design
	// is recompacted by JSON marshalling, the designs endpoint is not.
	ownerDesign := getDesign(t, ownerURL, key)

	s, ts := newTestServer(t, Config{
		Workers: 1,
		Synth:   refuseSynth(t),
		PeerFetch: func(ctx context.Context, k string) ([]byte, error) {
			return fetchEnvelope(t, ownerURL, k), nil
		},
	})
	resp, err := http.Get(ts.URL + "/v1/designs/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET design: HTTP %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, ownerDesign) {
		t.Error("peer-filled design bytes differ from the owner's")
	}
	st := s.Stats()
	if st.PeerFills != 1 {
		t.Errorf("peerFills=%d, want 1", st.PeerFills)
	}
	if st.CacheHits != 0 || st.PersistHits != 0 {
		t.Errorf("adoption double-counted as a cache hit: cache=%d persist=%d", st.CacheHits, st.PersistHits)
	}
}

// tamper decodes a persist envelope, applies mutate, and re-encodes.
func tamper(t *testing.T, envelope []byte, mutate func(map[string]any)) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(envelope, &m); err != nil {
		t.Fatalf("decoding envelope: %v", err)
	}
	mutate(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("re-encoding envelope: %v", err)
	}
	return out
}

// Bad peer payloads are discarded, counted, and the shard solves
// locally — a corrupt or stale peer can degrade efficiency, never
// correctness.
func TestPeerFillRejectsBadEnvelopes(t *testing.T) {
	req := quadRequest(2)
	key, ownerDesign, ownerURL := solveOnOwner(t, req)
	envelope := fetchEnvelope(t, ownerURL, key)

	cases := []struct {
		name   string
		bytes  []byte
		reject string // expected rejection counter bump
	}{
		{"corrupt-checksum", tamper(t, envelope, func(m map[string]any) {
			m["checksum"] = "0000000000000000000000000000000000000000000000000000000000000000"
		}), "corrupt"},
		{"corrupt-truncated", envelope[:len(envelope)/2], "corrupt"},
		// Version fields of the wrong JSON type do not decode at all.
		{"corrupt-schema-type", tamper(t, envelope, func(m map[string]any) {
			m["schema"] = float64(99)
		}), "corrupt"},
		{"corrupt-design-version-type", tamper(t, envelope, func(m map[string]any) {
			m["designVersion"] = "v0.0-ancient"
		}), "corrupt"},
		// Well-formed envelopes written under another version are stale.
		{"stale-schema", tamper(t, envelope, func(m map[string]any) {
			m["schema"] = "xring-service-key-v0"
		}), "stale"},
		{"stale-design-version", tamper(t, envelope, func(m map[string]any) {
			m["designVersion"] = float64(0)
		}), "stale"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{
				Workers: 2,
				PeerFetch: func(ctx context.Context, k string) ([]byte, error) {
					return tc.bytes, nil
				},
			})
			resp, data := postSynth(t, ts.URL, req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("synthesize: HTTP %d: %s", resp.StatusCode, data)
			}
			r := decodeResponse(t, data)
			if r.Source != "synthesized" {
				t.Errorf("source %q, want synthesized (bad envelope must force a local solve)", r.Source)
			}
			// Local solves of the same request are deterministic, so the
			// locally solved bytes still match the owner's.
			if !bytes.Equal(r.Design, ownerDesign) {
				t.Error("locally solved design differs from owner's design for the same request")
			}
			st := s.Stats()
			if st.PeerFills != 0 || st.PeerFillRejected != 1 || st.Synthesized != 1 {
				t.Errorf("stats: peerFills=%d rejected=%d synthesized=%d, want 0/1/1",
					st.PeerFills, st.PeerFillRejected, st.Synthesized)
			}
			if got := s.st.metrics()["cluster.peerfill."+tc.reject]; got != 1 {
				t.Errorf("cluster.peerfill.%s = %d, want 1", tc.reject, got)
			}
		})
	}
}

// A burst of identical requests racing a slow peer-fill converges on
// the singleflight job: exactly one fetch, zero solves, and every
// request attributed to exactly one of peerfill/dedup/cache — no
// double counting. Run under -race in CI.
func TestPeerFillRaceConvergesViaSingleflight(t *testing.T) {
	req := quadRequest(3)
	key, ownerDesign, ownerURL := solveOnOwner(t, req)
	envelope := fetchEnvelope(t, ownerURL, key)

	var fetches int64
	var fetchMu sync.Mutex
	s, ts := newTestServer(t, Config{
		Workers: 2,
		Synth:   refuseSynth(t),
		PeerFetch: func(ctx context.Context, k string) ([]byte, error) {
			fetchMu.Lock()
			fetches++
			fetchMu.Unlock()
			// Slow fetch: the other requests arrive while the leader is
			// still filling and must attach, not fetch again.
			time.Sleep(150 * time.Millisecond)
			return envelope, nil
		},
	})

	const n = 8
	var wg sync.WaitGroup
	designs := make([][]byte, n)
	sources := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := postSynth(t, ts.URL, req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: HTTP %d: %s", i, resp.StatusCode, data)
				return
			}
			r := decodeResponse(t, data)
			designs[i], sources[i] = r.Design, r.Source
		}(i)
	}
	wg.Wait()

	for i := range designs {
		if !bytes.Equal(designs[i], ownerDesign) {
			t.Errorf("request %d: design differs from owner's bytes (source %q)", i, sources[i])
		}
	}
	fetchMu.Lock()
	gotFetches := fetches
	fetchMu.Unlock()
	if gotFetches != 1 {
		t.Errorf("peer fetches=%d, want exactly 1 (singleflight must coalesce)", gotFetches)
	}
	st := s.Stats()
	if st.PeerFills != 1 || st.Synthesized != 0 {
		t.Errorf("stats: peerFills=%d synthesized=%d, want 1/0", st.PeerFills, st.Synthesized)
	}
	if got := st.PeerFills + st.DedupHits + st.CacheHits + st.PersistHits; got != n {
		t.Errorf("attribution sum peerfill+dedup+cache+persist = %d, want %d (each request counted once)",
			got, n)
	}
}

// The cluster entry endpoint serves the raw envelope for cached keys,
// 404s unknown ones, and never counts as a cache hit (it is a peer
// transfer, not a client serve).
func TestClusterEntryEndpoint(t *testing.T) {
	req := quadRequest(4)
	s, ts := newTestServer(t, Config{Workers: 2})
	resp, data := postSynth(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize: HTTP %d", resp.StatusCode)
	}
	key := decodeResponse(t, data).Key

	hitsBefore := s.Stats().CacheHits
	envelope := fetchEnvelope(t, ts.URL, key)
	c, verdict := decodeEntry(envelope, key)
	if verdict != "" || c == nil {
		t.Fatalf("served envelope does not validate: verdict %q", verdict)
	}
	st := s.Stats()
	if st.ClusterEntriesServed != 1 {
		t.Errorf("clusterEntriesServed=%d, want 1", st.ClusterEntriesServed)
	}
	if st.CacheHits != hitsBefore {
		t.Errorf("entry serve counted as a cache hit (%d -> %d)", hitsBefore, st.CacheHits)
	}

	missResp, err := http.Get(ts.URL + "/v1/cluster/entry/sha256:" + nonexistentKeyHex)
	if err != nil {
		t.Fatal(err)
	}
	missResp.Body.Close()
	if missResp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown key: HTTP %d, want 404", missResp.StatusCode)
	}
}

const nonexistentKeyHex = "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff"

// /readyz now carries a JSON body with queue depth and drain state
// while keeping the bare 200/503 status contract.
func TestReadyzJSONBody(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 7})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz: HTTP %d, want 200", resp.StatusCode)
	}
	var rd Readiness
	if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
		t.Fatalf("readyz body is not JSON: %v", err)
	}
	if !rd.Ready || rd.Draining || rd.QueueCap != 7 || rd.Workers != 1 {
		t.Errorf("readiness %+v, want ready, not draining, queueCap 7, workers 1", rd)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drained /readyz: HTTP %d, want 503", resp2.StatusCode)
	}
	var rd2 Readiness
	if err := json.NewDecoder(resp2.Body).Decode(&rd2); err != nil {
		t.Fatalf("drained readyz body is not JSON: %v", err)
	}
	if rd2.Ready || !rd2.Draining {
		t.Errorf("drained readiness %+v, want not ready and draining", rd2)
	}
}
