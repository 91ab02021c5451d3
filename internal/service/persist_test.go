package service

// Persistent-cache tier tests: restart byte-identity, crash recovery
// with corrupt/foreign/stale entries, disk-tier promotion on memory
// misses, traversal-proof key handling, bounded on-disk growth, and
// write-fault injection.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xring/internal/core"
	"xring/internal/designio"
	"xring/internal/resilience"
)

// drainServer shuts a directly-built server down with a test deadline.
func drainServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func getDesign(t *testing.T, base, key string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/designs/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET design %s: status %d, err %v", key, resp.StatusCode, err)
	}
	return data
}

// noSynth fails any job that reaches the engine — for asserting that a
// request was served entirely from cache.
func noSynth(ctx context.Context, r *resolved) (*core.Result, error) {
	return nil, errors.New("engine must not run")
}

func TestPersistSurvivesRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()

	s1, ts1 := newTestServer(t, Config{Workers: 1, PersistDir: dir})
	resp, data := postSynth(t, ts1.URL, quadRequest(0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize: status %d, body %s", resp.StatusCode, data)
	}
	key := decodeResponse(t, data).Key
	want := getDesign(t, ts1.URL, key)
	if s1.Stats().PersistRecovered != 0 {
		t.Errorf("fresh dir recovered %d entries", s1.Stats().PersistRecovered)
	}
	drainServer(t, s1)

	// A second daemon over the same directory serves the design without
	// ever running the engine — byte-identical to the first run.
	s2, ts2 := newTestServer(t, Config{Workers: 1, PersistDir: dir, Synth: noSynth})
	if got := s2.Stats().PersistRecovered; got != 1 {
		t.Errorf("PersistRecovered = %d, want 1", got)
	}
	if got := getDesign(t, ts2.URL, key); !bytes.Equal(got, want) {
		t.Error("design bytes differ across restart")
	}
	resp2, data2 := postSynth(t, ts2.URL, quadRequest(0))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("restarted synthesize: status %d, body %s", resp2.StatusCode, data2)
	}
	if r2 := decodeResponse(t, data2); r2.Source != "cache" || r2.Key != key {
		t.Errorf("restarted request source=%q key=%q, want cache hit on %q", r2.Source, r2.Key, key)
	}
}

func TestPersistRecoveryDiscardsCorruptAndForeign(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{Workers: 1, PersistDir: dir})
	resp, data := postSynth(t, ts1.URL, quadRequest(0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize: status %d, body %s", resp.StatusCode, data)
	}
	key := decodeResponse(t, data).Key
	want := getDesign(t, ts1.URL, key)
	drainServer(t, s1)

	// Sabotage the directory: a bit-flipped copy of the valid entry
	// under a different (well-formed) name, a truncated entry, a torn
	// temp file, and a schema-stale entry.
	files, err := os.ReadDir(dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("want exactly 1 entry on disk, got %d (err %v)", len(files), err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, files[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	fakeName := hex.EncodeToString(bytes.Repeat([]byte{0xab}, 32)) + ".json"
	if err := os.WriteFile(filepath.Join(dir, fakeName), flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	truncName := hex.EncodeToString(bytes.Repeat([]byte{0xcd}, 32)) + ".json"
	if err := os.WriteFile(filepath.Join(dir, truncName), valid[:len(valid)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "entry-12345.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	staleKeyHex := hex.EncodeToString(bytes.Repeat([]byte{0xef}, 32))
	stale := persistEntry{Schema: "xring-service-key-v1", DesignVersion: 1,
		Key: "sha256:" + staleKeyHex, JobID: "j0", Summary: &Summary{}, Design: []byte("x")}
	sum := sha256.Sum256(stale.Design)
	stale.Checksum = hex.EncodeToString(sum[:])
	staleData, err := json.Marshal(&stale)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, staleKeyHex+".json"), staleData, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Config{Workers: 1, PersistDir: dir, Synth: noSynth})
	st := s2.Stats()
	if st.PersistRecovered != 1 || st.PersistDiscarded != 4 {
		t.Errorf("recovered=%d discarded=%d, want 1 recovered, 4 discarded", st.PersistRecovered, st.PersistDiscarded)
	}
	if got := getDesign(t, ts2.URL, key); !bytes.Equal(got, want) {
		t.Error("surviving entry differs from pre-crash bytes")
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 {
		t.Errorf("%d files left on disk after recovery, want 1", len(left))
	}
}

func TestPersistDiskHitPromotesOnMemoryMiss(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{Workers: 1, PersistDir: dir})
	resp, data := postSynth(t, ts1.URL, quadRequest(0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize: status %d, body %s", resp.StatusCode, data)
	}
	key := decodeResponse(t, data).Key
	want := getDesign(t, ts1.URL, key)
	drainServer(t, s1)

	// Memory cache disabled: every lookup must fall through to disk.
	s2, ts2 := newTestServer(t, Config{Workers: 1, CacheEntries: -1, PersistDir: dir, Synth: noSynth})
	if got := getDesign(t, ts2.URL, key); !bytes.Equal(got, want) {
		t.Error("disk-tier design differs")
	}
	if st := s2.Stats(); st.PersistHits == 0 {
		t.Errorf("PersistHits = %d, want > 0", st.PersistHits)
	}
}

func TestPersistRejectsTraversalKeys(t *testing.T) {
	dir := t.TempDir()
	p, _, err := newPersistStore(dir, 8, nil, new(stats))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"sha256:../../../../etc/passwd",
		"sha256:..%2f..%2fetc%2fpasswd",
		"../" + strings.Repeat("a", 64),
		"sha256:" + strings.Repeat("A", 64), // uppercase hex is not canonical
		"sha256:" + strings.Repeat("a", 63),
		"",
	} {
		if _, ok := p.read(key); ok {
			t.Errorf("read(%q) succeeded", key)
		}
		if err := p.write(&cached{key: key, summary: &Summary{}, design: []byte("x")}); err == nil {
			t.Errorf("write(%q) succeeded", key)
		}
	}

	// Over HTTP: a hostile path value must 404, not touch the disk.
	_, ts := newTestServer(t, Config{Workers: 1, PersistDir: dir})
	resp, err := http.Get(ts.URL + "/v1/designs/sha256:%2e%2e%2fescape")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("traversal key: status %d, want 404", resp.StatusCode)
	}
}

func TestPersistEvictsOldestPastCap(t *testing.T) {
	dir := t.TempDir()
	p, _, err := newPersistStore(dir, 2, nil, new(stats))
	if err != nil {
		t.Fatal(err)
	}
	// A minimal payload that passes the embedded version check.
	design := []byte(fmt.Sprintf(`{"version": %d}`, designio.FormatVersion))
	keys := make([]string, 3)
	for i := range keys {
		sum := sha256.Sum256([]byte(fmt.Sprintf("entry-%d", i)))
		keys[i] = "sha256:" + hex.EncodeToString(sum[:])
		if err := p.write(&cached{key: keys[i], jobID: "j", summary: &Summary{}, design: design}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := p.read(keys[0]); ok {
		t.Error("oldest entry survived past the cap")
	}
	for _, k := range keys[1:] {
		if _, ok := p.read(k); !ok {
			t.Errorf("entry %s evicted although within cap", k)
		}
	}
}

func TestPersistWriteFaultLeavesRequestIntact(t *testing.T) {
	dir := t.TempDir()
	inj := resilience.NewInjector(1, resilience.Rule{Point: "service.cache.write", Err: errors.New("disk on fire")})
	_, ts := newTestServer(t, Config{Workers: 1, PersistDir: dir, Injector: inj})
	resp, data := postSynth(t, ts.URL, quadRequest(0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize with failing persistence: status %d, body %s", resp.StatusCode, data)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Errorf("%d files on disk despite injected write fault", len(files))
	}
}
