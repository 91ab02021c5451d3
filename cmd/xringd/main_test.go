package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"xring/internal/service"
)

// daemonArg0 is the argv[0] under which the test binary runs main()
// instead of the tests, so the exec test drives a real xringd process
// without building one.
const daemonArg0 = "xringd"

func TestMain(m *testing.M) {
	if os.Args[0] == daemonArg0 {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSigtermDrainsInFlightJobs drives the daemon's signal path end to
// end: a request is mid-synthesis when SIGTERM arrives, and it must
// still complete with a 200 — zero dropped in-flight jobs — before the
// process stops serving.
func TestSigtermDrainsInFlightJobs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	serveDone := make(chan error, 1)
	go func() {
		serveDone <- serve(ln, service.Config{Workers: 1}, 30*time.Second)
	}()

	// Wait for the server to come up.
	waitFor(t, func() bool {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})

	// Submit a synchronous request; it runs the real engine on a tiny
	// floorplan, so it can be in flight when the signal lands.
	body, err := json.Marshal(map[string]any{
		"network": map[string]any{"nodes": []map[string]any{
			{"id": 0, "x": 0, "y": 0},
			{"id": 1, "x": 2.5, "y": 0},
			{"id": 2, "x": 0, "y": 2.5},
			{"id": 3, "x": 3, "y": 2.5},
		}},
		"options": map[string]any{"maxWL": 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		status int
		body   []byte
		err    error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/synthesize", "application/json", bytes.NewReader(body))
		if err != nil {
			resCh <- result{err: err}
			return
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		resCh <- result{status: resp.StatusCode, body: data}
	}()

	// Signal as soon as the request has been admitted.
	waitFor(t, func() bool {
		resp, err := http.Get(base + "/v1/stats")
		if err != nil {
			return false
		}
		var st service.Stats
		jsonErr := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		return jsonErr == nil && st.Requests >= 1
	})
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	r := <-resCh
	if r.err != nil {
		t.Fatalf("in-flight request failed across SIGTERM: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request got %d across SIGTERM, want 200; body %s", r.status, r.body)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	// The listener is closed: new connections must fail.
	if resp, err := http.Get(base + "/readyz"); err == nil {
		resp.Body.Close()
		t.Error("server still accepting connections after shutdown")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met within 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// daemon is an xringd child process started from the test binary.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{} // closed once Wait has returned into err
	err    error

	mu     sync.Mutex
	stderr strings.Builder
}

// startDaemon runs the test binary as xringd with the given flags on
// an ephemeral port, and waits until /readyz answers 200.
func startDaemon(t *testing.T, flags ...string) *daemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{exited: make(chan struct{})}
	d.cmd = &exec.Cmd{Path: exe, Args: append([]string{daemonArg0, "-addr", "127.0.0.1:0"}, flags...)}
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = d.cmd.Process.Kill() // fails harmlessly once the process has exited
		<-d.exited
	})
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stderr.WriteString(line + "\n")
			d.mu.Unlock()
			if a, ok := strings.CutPrefix(line, "xringd: serving on "); ok {
				addr <- a
			}
		}
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		t.Fatalf("xringd exited before serving: %v\n%s", d.err, d.log())
	case <-time.After(30 * time.Second):
		t.Fatalf("xringd did not report its address within 30s\n%s", d.log())
	}
	waitFor(t, func() bool {
		resp, err := http.Get(d.base + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	return d
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// stop sends sig and waits for the process to exit.
func (d *daemon) stop(t *testing.T, sig os.Signal) error {
	t.Helper()
	if err := d.cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.exited:
		return d.err
	case <-time.After(60 * time.Second):
		t.Fatalf("xringd did not exit on %v\n%s", sig, d.log())
		return nil
	}
}

// call sends one request to the daemon and returns status and body.
func (d *daemon) call(t *testing.T, method, path, traceparent string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", method, path, err, d.log())
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func (d *daemon) stats(t *testing.T) service.Stats {
	t.Helper()
	code, data := d.call(t, http.MethodGet, "/v1/stats", "", nil)
	var st service.Stats
	if err := json.Unmarshal(data, &st); code != http.StatusOK || err != nil {
		t.Fatalf("GET /v1/stats: %d %v: %s", code, err, data)
	}
	return st
}

// TestDaemonFlagsAndCrashRecovery covers what needs a real process.
// The -fault, -flight-dir and -persist flags reach the service: a
// one-shot panic fault in the mapping stage fails its request with a
// 500 carrying the trace ID, and the panic leaves a flight snapshot
// with that ID, counted on /metrics. Then kill -9 mid-life with a
// corrupt entry and a torn temp file planted in the persist dir: the
// restarted daemon recovers the design byte-identical without solving,
// discards both plants, and drains cleanly on SIGTERM.
func TestDaemonFlagsAndCrashRecovery(t *testing.T) {
	flightDir, persistDir := t.TempDir(), t.TempDir()
	d := startDaemon(t, "-fault", "core.stage.mapping=panic,times=1",
		"-flight-dir", flightDir, "-persist", persistDir)

	const traceID = "deadbeefdeadbeefdeadbeefdeadbeef"
	code, data := d.call(t, http.MethodPost, "/v1/synthesize", "00-"+traceID+"-00f067aa0ba902b7-01",
		[]byte(`{"network": {"standard": 8}, "options": {"maxWL": 7}}`))
	var failed struct{ TraceID string }
	if err := json.Unmarshal(data, &failed); code != http.StatusInternalServerError || err != nil || failed.TraceID != traceID {
		t.Fatalf("panicking request: %d %s, want 500 with traceID %s", code, data, traceID)
	}
	snaps, err := filepath.Glob(filepath.Join(flightDir, "flight-panic-*.json"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("flight snapshots %v (err %v), want one", snaps, err)
	}
	if snap, err := os.ReadFile(snaps[0]); err != nil || !bytes.Contains(snap, []byte(traceID)) {
		t.Errorf("snapshot %s lacks trace %s (err %v)", snaps[0], traceID, err)
	}
	if _, metrics := d.call(t, http.MethodGet, "/metrics", "", nil); !bytes.Contains(metrics, []byte("\nxring_service_flight_snapshots_total 1\n")) {
		t.Errorf("/metrics lacks xring_service_flight_snapshots_total 1:\n%s", metrics)
	}

	code, data = d.call(t, http.MethodPost, "/v1/synthesize", "",
		[]byte(`{"network": {"standard": 16}, "options": {"maxWL": 14}}`))
	var ok struct{ Key string }
	if err := json.Unmarshal(data, &ok); code != http.StatusOK || err != nil {
		t.Fatalf("synthesize after the one-shot fault: %d %s", code, data)
	}
	code, before := d.call(t, http.MethodGet, "/v1/designs/"+ok.Key, "", nil)
	if code != http.StatusOK {
		t.Fatalf("GET design: %d %s", code, before)
	}

	d.stop(t, syscall.SIGKILL)
	for name, body := range map[string]string{
		strings.Repeat("a", 64) + ".json": "not json",
		"entry-999.tmp":                   "torn write",
	} {
		if err := os.WriteFile(filepath.Join(persistDir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	d = startDaemon(t, "-persist", persistDir)
	if code, after := d.call(t, http.MethodGet, "/v1/designs/"+ok.Key, "", nil); code != http.StatusOK || !bytes.Equal(after, before) {
		t.Errorf("recovered design: status %d, byte-identical %v", code, bytes.Equal(after, before))
	}
	if st := d.stats(t); st.PersistRecovered != 1 || st.PersistDiscarded != 2 || st.Synthesized != 0 {
		t.Errorf("after restart recovered=%d discarded=%d synthesized=%d, want 1, 2, 0",
			st.PersistRecovered, st.PersistDiscarded, st.Synthesized)
	}
	if err := d.stop(t, syscall.SIGTERM); err != nil {
		t.Errorf("SIGTERM exit: %v\n%s", err, d.log())
	}
}
