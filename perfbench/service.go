package main

// service-mix: the shipped xringd daemon, run as a separate process on
// loopback with a fresh persist directory, driven over HTTP by a seeded
// request mix. A closed-loop phase with nproc connections measures the
// saturation throughput; an open-loop phase at serviceRate measures
// latency, timing every request from its scheduled send time.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"xring/internal/core"
	"xring/internal/designio"
	"xring/internal/faults"
	"xring/internal/noc"
	"xring/internal/obs"
	"xring/internal/router"
	"xring/internal/service"
)

const (
	// serviceRate is the open-loop offered rate, requests per second:
	// half the saturation throughput a 2-core host showed while other
	// tenants contended for its CPUs (about 250 req/s; a calm host reaches
	// 700-820), so the open-loop latencies do not swing with that
	// contention.
	serviceRate = 125.0
	// serviceSLO is the latency limit of slo_frac.
	serviceSLO = 100 * time.Millisecond
	// requestTimeout fails a request that takes longer.
	requestTimeout = 5 * time.Second

	warmFloorplans = 8  // warm floorplans; each is warm at both budgets
	respellings    = 3  // re-spelled bodies per warm key
	injectsPerKey  = 4  // whatif fault injections per warm key
	qualityMisses  = 16 // misses whose designs feed the quality metrics
	svcSetupReps   = 5  // daemon set-ups per run; setup_s is the median
	// satRequests bounds the saturation phase's stream; a phase that
	// exhausts it ends early and still measures its rate. It is sized so
	// that a calm 2-core host (about 700-800 req/s) still runs the whole
	// phase: a shorter window lets short host slowdowns move the rate.
	satRequests = 7000
)

var warmBudgets = []int{4, 8}

// reqKind is the kind of one request of the mix.
type reqKind int

const (
	kindHit reqKind = iota
	kindMiss
	kindGet
	kindWhatif
	kindExplore
)

var kindNames = []string{"hit", "miss", "design_get", "whatif", "explore"}

// requestMix gives each kind's share of the requests. Only the kinds and
// the share of misses (about 10%) come from the workload's definition.
// The other shares, the Zipf(1.2) popularity of the warm keys, the half
// of hits that are re-spelled and the injections per key are assumptions:
// the repository holds no recorded traffic to derive them from. They set
// p50_ms, tail_ms and ops_per_s of the whole workload.
var requestMix = []struct {
	kind  reqKind
	share float64
}{
	{kindHit, 0.60},
	{kindMiss, 0.10},
	{kindGet, 0.20},
	{kindWhatif, 0.08},
	{kindExplore, 0.02},
}

// mixBlock is the number of requests over which the mix's shares hold
// exactly. Misses make up the latency tail, so neither their number nor
// their spacing may vary from run to run: every (1/share)-th request is
// a miss, and the other kinds of a block are a seeded shuffle in their
// shares. Independent draws would let the number of misses drift (about
// ±14 of 220 per open-loop phase) and let misses arrive together; two
// overlapping syntheses share the CPUs and double each other's latency,
// and the p99 then falls on the edge between solo and overlapped misses
// and flips between the two from run to run.
const mixBlock = 50

// warmKey is one cached design the mix hits.
type warmKey struct {
	net    *noc.Network
	wl     int
	bodies [][]byte // canonical body first, then re-spellings
	key    string
	design []byte // exact designio.Save bytes served for the key
	sum    [32]byte
	power  float64
	il     float64
	snr    float64
	loaded *router.Design // design decoded from the served bytes
	// injects are POST /v1/whatif bodies, one fault each.
	injects [][]byte
}

// svcReq is one generated request.
type svcReq struct {
	kind   reqKind
	method string
	path   string
	body   []byte // nil for whatif: the injection body is known after set-up
	key    string // expected content key (hit, miss, design_get)
	warm   int    // index into the warm set, or -1
	inject int    // whatif: index into the warm key's injections
	net    *noc.Network
	wl     int
}

// bodyOf returns the body to send for r.
func (s *svcRun) bodyOf(r *svcReq) []byte {
	if r.kind == kindWhatif {
		return s.warm[r.warm].injects[r.inject]
	}
	return r.body
}

// keyOf decodes a synthesize body the way the service does and returns
// its canonical content key.
func keyOf(body []byte) (string, error) {
	var req service.Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return "", err
	}
	return service.CanonicalKey(&req)
}

// The floorplans the mix synthesizes, warm and missed, are the same for
// every seed, so the payload sizes and solve times behind the latency
// figures, and the designs' quality, do not hinge on which floorplans a
// seed draws. The seed draws everything else: the request sequence, key
// popularity, re-spellings, fault injections and the schedule.

// warmSet draws the warm floorplans and their request bodies.
func warmSet(ctx context.Context, seed int64) ([]*warmKey, error) {
	var out []*warmKey
	for f := 0; f < warmFloorplans; f++ {
		net, err := feasibleIrregular(ctx, 16, 0, "svc-warm", f)
		if err != nil {
			return nil, err
		}
		for _, wl := range warmBudgets {
			w := &warmKey{net: net, wl: wl, bodies: [][]byte{synthBody(net, wl, spelling{})}}
			rng := rngFor(seed, "svc-respell", len(out))
			for r := 0; r < respellings; r++ {
				w.bodies = append(w.bodies, synthBody(net, wl, respelling(rng, net.N())))
			}
			if w.key, err = keyOf(w.bodies[0]); err != nil {
				return nil, err
			}
			out = append(out, w)
		}
	}
	return out, nil
}

// genRequests draws count requests of the mix from one seeded stream.
func genRequests(ctx context.Context, seed int64, stream string, count int, warm []*warmKey) ([]svcReq, error) {
	rng := rngFor(seed, stream, 0)
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(warm)-1))
	out := make([]svcReq, 0, count)
	misses, missEvery := 0, 0
	for _, m := range requestMix {
		if m.kind == kindMiss {
			missEvery = int(math.Round(1 / m.share))
		}
	}
	var deck []reqKind
	for len(out) < count {
		kind := kindMiss
		if len(out)%missEvery != missEvery-1 {
			if len(deck) == 0 {
				for _, m := range requestMix {
					for n := int(math.Round(m.share * mixBlock)); n > 0 && m.kind != kindMiss; n-- {
						deck = append(deck, m.kind)
					}
				}
				rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
			}
			kind, deck = deck[0], deck[1:]
		}
		w := int(zipf.Uint64())
		r := svcReq{kind: kind, warm: w}
		switch kind {
		case kindHit:
			body := warm[w].bodies[0]
			if rng.Intn(2) == 0 {
				body = warm[w].bodies[1+rng.Intn(respellings)]
			}
			r.method, r.path, r.body, r.key = "POST", "/v1/synthesize", body, warm[w].key
		case kindMiss:
			var err error
			if r.net, err = feasibleIrregular(ctx, 16, 0, stream+"-miss", misses); err != nil {
				return nil, err
			}
			r.warm, r.wl = -1, warmBudgets[misses%len(warmBudgets)]
			misses++
			r.method, r.path, r.body = "POST", "/v1/synthesize", synthBody(r.net, r.wl, spelling{})
			if r.key, err = keyOf(r.body); err != nil {
				return nil, err
			}
		case kindGet:
			r.method, r.path, r.key = "GET", "/v1/designs/"+warm[w].key, warm[w].key
		case kindWhatif:
			r.method, r.path, r.inject = "POST", "/v1/whatif", rng.Intn(injectsPerKey)
		case kindExplore:
			a := rng.Intn(warmFloorplans)
			b := (a + 1 + rng.Intn(warmFloorplans-1)) % warmFloorplans
			r.method, r.path = "POST", "/v1/explore"
			r.body = exploreBody(warm[a*len(warmBudgets)].net, warm[b*len(warmBudgets)].net)
		}
		out = append(out, r)
	}
	return out, nil
}

// exploreBody is a small study over two warm floorplans at the warm
// budgets: every cell is a warm key.
func exploreBody(a, b *noc.Network) []byte {
	budgets, _ := json.Marshal(warmBudgets)
	return []byte(`{"grid":{"floorplans":[{"name":"a","network":` + string(networkJSON(a, spelling{})) +
		`},{"name":"b","network":` + string(networkJSON(b, spelling{})) +
		`}],"budgets":` + string(budgets) + `,"withPDN":true}}`)
}

// injectBodies picks whatif fault injections on a warm design.
func injectBodies(seed int64, idx int, w *warmKey) ([][]byte, error) {
	universe := faults.Universe(w.loaded, []faults.Kind{faults.KindMRR}, 0)
	if len(universe) == 0 {
		return nil, fmt.Errorf("warm key %d: empty fault universe", idx)
	}
	rng := rngFor(seed, "svc-inject", idx)
	var out [][]byte
	for k := 0; k < injectsPerKey; k++ {
		f := universe[rng.Intn(len(universe))]
		spec := service.FaultSpec{Kind: "mrr", Src: f.Sig.Src, Dst: f.Sig.Dst, Role: f.Role.String()}
		if f.WG >= 0 {
			wg := f.WG
			spec.WG = &wg
		} else {
			sc := f.SC
			spec.SC = &sc
		}
		b, err := json.Marshal(service.WhatifRequest{Key: w.key, Faults: service.WhatifFaults{Inject: []service.FaultSpec{spec}}})
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// ---------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------

type daemon struct {
	cmd    *exec.Cmd
	base   string
	dir    string
	exited chan error
	client *http.Client
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon starts xringd with a fresh persist directory under dir
// and waits until it is ready.
func startDaemon(ctx context.Context, bin, dir string) (*daemon, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "xringd.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-persist", filepath.Join(dir, "persist"))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	conns := runtime.NumCPU()
	d := &daemon{
		cmd: cmd, base: "http://" + addr, dir: dir, exited: make(chan error, 1),
		client: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
	go func() { d.exited <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, _, err := d.do(ctx, "GET", "/readyz", nil, "")
		if err == nil && status == http.StatusOK {
			return d, nil
		}
		select {
		case err := <-d.exited:
			d.exited <- err
			return nil, fmt.Errorf("xringd exited during start-up: %v (log in %s)", err, dir)
		case <-time.After(10 * time.Millisecond):
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("xringd did not become ready in 30s")
		}
	}
}

// stop terminates the daemon and waits for it to exit.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

func (d *daemon) do(ctx context.Context, method, path string, body []byte, traceparent string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (d *daemon) getJSON(ctx context.Context, path string, v any) error {
	status, b, err := d.do(ctx, "GET", path, nil, "")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, status)
	}
	return json.Unmarshal(b, v)
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

// svcInputs are a run's seeded inputs, drawn once per run.
type svcInputs struct {
	warm  []*warmKey
	sat   []svcReq
	open  [2][]svcReq // untraced and traced open-loop streams
	sched []float64   // open-loop send offsets, seconds
}

func prepareService(ctx context.Context, cfg config, openSeconds float64) (*svcInputs, error) {
	in := &svcInputs{}
	var err error
	if in.warm, err = warmSet(ctx, cfg.seed); err != nil {
		return nil, err
	}
	if in.sat, err = genRequests(ctx, cfg.seed, "svc-sat", satRequests, in.warm); err != nil {
		return nil, err
	}
	in.sched = slottedSchedule(rngFor(cfg.seed, "svc-schedule", 0), serviceRate, openSeconds)
	streams := []string{"svc-open"}
	if cfg.trace {
		streams = append(streams, "svc-open-traced")
	}
	for t, stream := range streams {
		if in.open[t], err = genRequests(ctx, cfg.seed, stream, len(in.sched), in.warm); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// svcRun is a set-up daemon with its inputs.
type svcRun struct {
	*svcInputs
	cfg config
	d   *daemon
}

// setupService starts a fresh daemon, fills it with the warm set,
// prepares the fault injections, and sends a short warm-up of every
// kind.
func setupService(ctx context.Context, cfg config, in *svcInputs) (*svcRun, error) {
	d, err := startDaemon(ctx, cfg.xringd, filepath.Join(cfg.workdir, "xringd"))
	if err != nil {
		return nil, err
	}
	s := &svcRun{svcInputs: in, cfg: cfg, d: d}
	fail := func(err error) (*svcRun, error) {
		d.stop()
		return nil, err
	}
	for i, w := range s.warm {
		status, b, err := d.do(ctx, "POST", "/v1/synthesize", w.bodies[0], "")
		if err != nil || status != http.StatusOK {
			return fail(fmt.Errorf("warm key %d: status %d: %v %s", i, status, err, b))
		}
		var resp service.Response
		if err := json.Unmarshal(b, &resp); err != nil {
			return fail(err)
		}
		if resp.Key != w.key || resp.Summary == nil {
			return fail(fmt.Errorf("warm key %d: served key %s, want %s", i, resp.Key, w.key))
		}
		w.power, w.il, w.snr = summaryQuality(resp.Summary)
		status, w.design, err = d.do(ctx, "GET", "/v1/designs/"+w.key, nil, "")
		if err != nil || status != http.StatusOK {
			return fail(fmt.Errorf("warm design %d: status %d: %v", i, status, err))
		}
		w.sum = sha256.Sum256(w.design)
		if w.loaded, err = designio.Load(w.design); err != nil {
			return fail(err)
		}
		if w.injects, err = injectBodies(cfg.seed, i, w); err != nil {
			return fail(err)
		}
	}
	warmup, err := genRequests(ctx, cfg.seed, "svc-warmup", 40, s.warm)
	if err != nil {
		return fail(err)
	}
	for i := range warmup {
		r := &warmup[i]
		status, b, err := d.do(ctx, r.method, r.path, s.bodyOf(r), "")
		if err != nil || status != http.StatusOK {
			return fail(fmt.Errorf("warm-up %s: status %d: %v %s", kindNames[r.kind], status, err, b))
		}
	}
	return s, nil
}

func summaryQuality(s *service.Summary) (power, il, snr float64) {
	snr = math.Inf(1)
	if s.WorstSNRdB != nil {
		snr = *s.WorstSNRdB
	}
	return s.PowerMW, s.WorstILdB, snr
}

// ---------------------------------------------------------------------
// Response checks
// ---------------------------------------------------------------------

// checked is the outcome of one response's check.
type checked struct {
	ok       bool
	failure  string // why a request failed: transport error or status
	problem  error  // a wrong answer: fails the run
	degraded bool
	power    float64
	il       float64
	snr      float64
	digest   opDigest
}

// decodeHead decodes the key and summary of a synthesize response and
// stops there: the service writes them before the design, so the check
// does not scan the design's tens of kilobytes. The open-loop client
// shares the host's CPUs with the daemon, and every millisecond it spends
// on a check is taken from the requests in flight.
func decodeHead(body []byte) (key string, summary *service.Summary, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	if _, err = dec.Token(); err != nil {
		return "", nil, err
	}
	for dec.More() && (key == "" || summary == nil) {
		t, err := dec.Token()
		if err != nil {
			return "", nil, err
		}
		switch t {
		case "key":
			err = dec.Decode(&key)
		case "summary":
			err = dec.Decode(&summary)
		default:
			var skip json.RawMessage
			err = dec.Decode(&skip)
		}
		if err != nil {
			return "", nil, err
		}
	}
	return key, summary, nil
}

// check validates one response outside its timed region. A non-2xx
// status is a failed request; a 2xx with a wrong answer is a problem.
func (s *svcRun) check(r *svcReq, status int, body []byte, err error) checked {
	if err != nil {
		return checked{failure: fmt.Sprintf("%s: %v", kindNames[r.kind], err)}
	}
	if status != http.StatusOK {
		return checked{failure: fmt.Sprintf("%s: status %d: %.200s", kindNames[r.kind], status, body)}
	}
	c := checked{ok: true}
	switch r.kind {
	case kindHit, kindMiss:
		key, summary, err := decodeHead(body)
		if err != nil || summary == nil {
			c.problem = fmt.Errorf("%s: undecodable response: %v", kindNames[r.kind], err)
			return c
		}
		if key != r.key {
			c.problem = fmt.Errorf("%s: served key %s, want %s", kindNames[r.kind], key, r.key)
			return c
		}
		c.power, c.il, c.snr = summaryQuality(summary)
		c.degraded = summary.Degraded
		if r.kind == kindHit {
			w := s.warm[r.warm]
			if c.power != w.power || c.il != w.il {
				c.problem = fmt.Errorf("hit: summary of %s differs from the warm synthesis", r.key)
			}
		}
		c.digest = digestOf([]byte(key), floatBytes(c.power, c.il))
	case kindGet:
		if sha256.Sum256(body) != s.warm[r.warm].sum {
			c.problem = fmt.Errorf("design_get: bytes of %s differ from the warm design", r.key)
		}
		c.digest = digestOf([]byte(r.key))
	case kindWhatif:
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &st); err != nil || st.State != "done" {
			c.problem = fmt.Errorf("whatif: state %q error %q (%v)", st.State, st.Error, err)
		}
		c.digest = digestOf(body)
	case kindExplore:
		var st struct {
			State  string `json:"state"`
			Cells  int    `json:"cells"`
			OK     int    `json:"ok"`
			Failed int    `json:"failed"`
		}
		if err := json.Unmarshal(body, &st); err != nil || st.State != "done" || st.Failed != 0 || st.OK != st.Cells {
			c.problem = fmt.Errorf("explore: state %q, %d of %d cells ok (%v)", st.State, st.OK, st.Cells, err)
		}
		c.digest = digestOf([]byte(st.State), floatBytes(float64(st.Cells)))
	}
	return c
}

// ---------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------

// saturate runs the closed-loop phase: nproc connections, each sending
// its next request as soon as the previous one completes. It returns
// completed OK requests per second.
func (s *svcRun) saturate(ctx context.Context, seconds float64, rep *report) float64 {
	var next, okCount atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	stopAt := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stopAt) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(s.sat) {
					return
				}
				r := &s.sat[i]
				status, body, err := s.d.do(ctx, r.method, r.path, s.bodyOf(r), "")
				c := s.check(r, status, body, err)
				mu.Lock()
				rep.attempted++
				if !c.ok {
					rep.failed++
					rep.failure(c.failure)
				} else {
					okCount.Add(1)
				}
				if c.problem != nil {
					rep.problem("saturation request %d: %v", i, c.problem)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return float64(okCount.Load()) / time.Since(start).Seconds()
}

// sample is the record of one open-loop request.
type sample struct {
	done    bool
	ok      bool
	latency time.Duration // from the scheduled send time
	late    time.Duration // actual send time minus scheduled
	c       checked
}

// openResult is one open-loop phase.
type openResult struct {
	samples []sample
}

// traceparentFor derives a deterministic W3C traceparent for request i.
func traceparentFor(seed int64, i int) (string, string) {
	sum := sha256.Sum256([]byte(fmt.Sprintf("perfbench/%d/%d", seed, i)))
	sum[0] |= 1 // never all-zero
	tid := hex.EncodeToString(sum[:16])
	return "00-" + tid + "-" + hex.EncodeToString(sum[16:24]) + "-01", tid
}

// openLoop sends reqs on s.sched. A dispatcher hands each request to
// one of nproc connection workers at its scheduled time; when every
// worker is busy the request waits, and the wait counts in its latency.
// A traced phase sends a traceparent with each request and records a
// span per request, split into the wait for a connection and the HTTP
// exchange.
func (s *svcRun) openLoop(ctx context.Context, reqs []svcReq, tr *tracer) *openResult {
	res := &openResult{samples: make([]sample, len(s.sched))}
	jobs := make(chan int)
	start := time.Now().Add(20 * time.Millisecond)
	due := func(k int) time.Time { return start.Add(time.Duration(s.sched[k] * float64(time.Second))) }
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				r := &reqs[k]
				sent := time.Now()
				tp := ""
				if tr != nil {
					tp, _ = traceparentFor(s.cfg.seed, k)
				}
				status, body, err := s.d.do(ctx, r.method, r.path, s.bodyOf(r), tp)
				done := time.Now()
				smp := sample{done: true, latency: done.Sub(due(k)), late: sent.Sub(due(k))}
				smp.c = s.check(r, status, body, err)
				smp.ok = smp.c.ok
				if tr != nil {
					root := tr.rootAt(k, "svc."+kindNames[r.kind], due(k))
					tr.endAt(tr.beginAt(root, "gen.wait", due(k)), sent)
					tr.endAt(tr.beginAt(root, "http", sent), done)
					tr.endAt(root, done)
				}
				res.samples[k] = smp
			}
		}()
	}
dispatch:
	for k := range s.sched {
		time.Sleep(time.Until(due(k)))
		select {
		case jobs <- k:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	return res
}

// hitLayerCalls bounds the hits whose layer calls a traced run times.
const hitLayerCalls = 200

// traceHitLayers times, in the benchmark process and after the traced
// phase, the public calls a cache hit goes through on the daemon's
// side: decoding the body, computing its canonical key, and encoding
// the response envelope; plus designio.Save of the cached design.
func (s *svcRun) traceHitLayers(tr *tracer, k int, r *svcReq) {
	w := s.warm[r.warm]
	root := tr.root(k, "svc.hit.layers")
	sp := tr.begin(root, "svc.decode")
	var req service.Request
	dec := json.NewDecoder(bytes.NewReader(r.body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	tr.end(sp)
	if err == nil {
		sp = tr.begin(root, "svc.key")
		_, _ = service.CanonicalKey(&req)
		tr.end(sp)
	}
	sp = tr.begin(root, "svc.encode")
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	_ = enc.Encode(&service.Response{Key: w.key, Source: "cache", Design: w.design})
	tr.end(sp)
	sp = tr.begin(root, "designio.save")
	_, _ = designio.Save(w.loaded)
	tr.end(sp)
	tr.end(root)
}

// summarizeOpen reports the latency metrics of an open-loop phase and
// adds its requests to the attempted and failed counts.
func summarizeOpen(res *openResult, m map[string]float64, info map[string]any, rep *report) {
	var lat latencies
	var late []float64
	attempted := 0
	for k, smp := range res.samples {
		if !smp.done {
			continue
		}
		attempted++
		rep.attempted++
		late = append(late, ms(smp.late))
		if !smp.ok {
			rep.failed++
			rep.failure(smp.c.failure)
			continue
		}
		if smp.c.problem != nil {
			rep.problem("request %d: %v", k, smp.c.problem)
		}
		lat.add(smp.latency)
	}
	lat.summarize(0.99, m, info)
	m["slo_frac"] = sloFrac(lat.ms, attempted, serviceSLO)
	m["gen.late_p99_ms"] = quantile(late, 0.99)
	info["open_requests"] = attempted
}

// kindMedian is the median latency of one request kind in a phase.
func (res *openResult) kindMedian(reqs []svcReq, kind reqKind) float64 {
	var v []float64
	for k, smp := range res.samples {
		if smp.ok && reqs[k].kind == kind {
			v = append(v, ms(smp.latency))
		}
	}
	return median(v)
}

// runServiceMix sets the daemon up several times (keeping the last),
// then runs the saturation phase and the open-loop phase(s).
func runServiceMix(ctx context.Context, cfg config) (*report, error) {
	if cfg.xringd == "" {
		return nil, errors.New("service-mix needs -xringd")
	}
	rep := &report{metrics: map[string]float64{}, info: map[string]any{}}
	satSec, openSec := 0.3*cfg.seconds, 0.7*cfg.seconds
	if cfg.trace {
		satSec, openSec = 0.2*cfg.seconds, 0.4*cfg.seconds
	}
	in, err := prepareService(ctx, cfg, openSec)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	var s *svcRun
	var setups []float64
	for k := 0; k < svcSetupReps; k++ {
		if s != nil {
			s.d.stop()
		}
		// The first set-up counts from process start, input generation
		// included; the median reports the repeated set-ups.
		t0 := time.Now()
		if k == 0 {
			t0 = processStart
		}
		if s, err = setupService(ctx, cfg, in); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.d.stop()
	rep.metrics["setup_s"] = median(setups)
	rep.info["offered_rate"] = serviceRate
	rep.info["connections"] = runtime.NumCPU()

	rep.metrics["ops_per_s"] = s.saturate(ctx, satSec, rep)
	var main *openResult
	reqs := s.open[0]
	if !cfg.trace {
		main = s.openLoop(ctx, reqs, nil)
		summarizeOpen(main, rep.metrics, rep.info, rep)
	} else {
		un := s.openLoop(ctx, reqs, nil)
		unM := map[string]float64{}
		summarizeOpen(un, unM, map[string]any{}, rep)
		var before service.Stats
		if err := s.d.getJSON(ctx, "/v1/stats", &before); err != nil {
			return nil, err
		}
		tr := newTracer()
		g := readGoStats()
		reqs = s.open[1]
		main = s.openLoop(ctx, reqs, tr)
		var gd goDelta
		gd.add(g, readGoStats(), len(main.samples))
		gd.set(rep.metrics)
		summarizeOpen(main, rep.metrics, rep.info, rep)
		if unM["p50_ms"] > 0 {
			rep.metrics["trace.overhead_frac"] = rep.metrics["p50_ms"]/unM["p50_ms"] - 1
		}
		calls := 0
		for k := range reqs {
			if reqs[k].kind == kindHit && main.samples[k].ok && calls < hitLayerCalls {
				s.traceHitLayers(tr, k, &reqs[k])
				calls++
			}
		}
		if err := s.layerMetrics(ctx, reqs, main, tr, before, rep.metrics); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		rep.info["spans"] = path
	}

	// Quality: the warm designs plus the first misses in schedule order.
	q := newQuality()
	for _, w := range s.warm {
		q.add(w.power, w.il, w.snr)
	}
	var digests []opDigest
	misses, degraded, okMisses := 0, 0, 0
	for k, smp := range main.samples {
		if !smp.ok {
			continue
		}
		digests = append(digests, smp.c.digest)
		if reqs[k].kind != kindMiss {
			continue
		}
		okMisses++
		if smp.c.degraded {
			degraded++
		}
		if misses < qualityMisses {
			q.add(smp.c.power, smp.c.il, smp.c.snr)
			misses++
		}
	}
	q.set(rep.metrics)
	rep.info["digest"] = orderedDigest(digests)
	rep.metrics["fail_frac"] = float64(rep.failed) / float64(max(rep.attempted, 1))
	rep.metrics["degraded_frac"] = float64(degraded) / float64(max(okMisses, 1))

	if rep.metrics["peak_rss_mb"], err = peakRSSMB(strconv.Itoa(s.d.cmd.Process.Pid)); err != nil {
		return nil, err
	}
	if err := s.libraryEquality(ctx, reqs, main); err != nil {
		rep.problem("%v", err)
	}
	return rep, nil
}

// libraryEquality checks a sample of served designs byte for byte
// against the library's output for the same request: two warm keys and
// the first two misses.
func (s *svcRun) libraryEquality(ctx context.Context, reqs []svcReq, res *openResult) error {
	type pair struct {
		net    *noc.Network
		wl     int
		key    string
		served []byte
	}
	var sample []pair
	for _, w := range s.warm[:2] {
		sample = append(sample, pair{w.net, w.wl, w.key, w.design})
	}
	for k, smp := range res.samples {
		if len(sample) == 4 {
			break
		}
		r := &reqs[k]
		if r.kind != kindMiss || !smp.ok {
			continue
		}
		status, b, err := s.d.do(ctx, "GET", "/v1/designs/"+r.key, nil, "")
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("library equality: GET %s: status %d: %v", r.key, status, err)
		}
		sample = append(sample, pair{r.net, r.wl, r.key, b})
	}
	for _, p := range sample {
		lib, err := core.SynthesizeCtx(ctx, p.net, core.Options{MaxWL: p.wl, WithPDN: true})
		if err != nil {
			return fmt.Errorf("library equality: %w", err)
		}
		b, err := designio.Save(lib.Design)
		if err != nil {
			return err
		}
		if !bytes.Equal(b, p.served) {
			return fmt.Errorf("library equality: served design %s differs from the library's", p.key)
		}
	}
	return nil
}

// layerMetrics fills the service's per-layer metrics from the traced
// open-loop phase, the flight recorder and the /v1/stats deltas.
func (s *svcRun) layerMetrics(ctx context.Context, reqs []svcReq, res *openResult, tr *tracer, before service.Stats, m map[string]float64) error {
	sum := tr.summarize()
	m["svc.decode_us"] = sum.meanSelfMS("svc.decode") * 1000
	m["svc.key_us"] = sum.meanSelfMS("svc.key") * 1000
	m["svc.encode_us"] = sum.meanSelfMS("svc.encode") * 1000
	m["designio.save_ms"] = sum.meanSelfMS("designio.save")
	m["designio.bytes"] = float64(len(s.warm[0].design))
	for kind, name := range map[reqKind]string{
		kindHit: "svc.hit_ms", kindMiss: "svc.miss_ms", kindGet: "svc.design_get_ms",
		kindWhatif: "svc.whatif_ms", kindExplore: "svc.explore_ms",
	} {
		m[name] = res.kindMedian(reqs, kind)
	}
	// The part of a hit's latency the service layers' own calls do not
	// account for: HTTP, loopback, cache lookup and client.
	if hit := m["svc.hit_ms"]; hit > 0 {
		m["residual_frac"] = 1 - (m["svc.decode_us"]+m["svc.key_us"]+m["svc.encode_us"])/1000/hit
	}

	var fr struct {
		Records []obs.JobRecord `json:"records"`
	}
	if err := s.d.getJSON(ctx, "/debug/flightrecorder", &fr); err != nil {
		return err
	}
	traced := map[string]bool{}
	for k := range res.samples {
		_, tid := traceparentFor(s.cfg.seed, k)
		traced[tid] = true
	}
	var wait, engine []float64
	for _, rec := range fr.Records {
		if traced[rec.TraceID] {
			wait = append(wait, rec.QueueWaitMS)
			engine = append(engine, rec.DurMS)
		}
	}
	m["svc.queue_wait_ms"] = median(wait)
	m["svc.engine_ms"] = median(engine)

	var after service.Stats
	if err := s.d.getJSON(ctx, "/v1/stats", &after); err != nil {
		return err
	}
	// Share of result lookups (synthesize, design fetch, explore cell)
	// served from a cache tier rather than by a synthesis.
	hits := after.CacheHits - before.CacheHits + after.PersistHits - before.PersistHits
	if lookups := hits + after.Synthesized - before.Synthesized + after.DedupHits - before.DedupHits; lookups > 0 {
		m["svc.hit_frac"] = float64(hits) / float64(lookups)
	}
	m["svc.persist_hits"] = float64(after.PersistHits - before.PersistHits)
	m["svc.dedup_hits"] = float64(after.DedupHits - before.DedupHits)
	m["svc.rejected"] = float64(after.Rejected - before.Rejected)
	return nil
}
