package cluster

// Integration tests for the distributed layer: a real router over real
// shards (full synthesis engine on tiny 4-node floorplans), per-peer
// health, peer-fill, and construct delegation. External stubbing of
// synthesis is impossible from here (the service's SynthFunc takes an
// unexported type), which these tests turn into a feature: everything
// below exercises the genuine end-to-end path.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"xring/internal/geom"
	"xring/internal/noc"
	"xring/internal/obs"
	"xring/internal/ring"
	"xring/internal/service"
)

func intp(v int) *int { return &v }

// quadReq is a tiny 4-node synthesis request; variant perturbs the
// floorplan so distinct variants get distinct content keys.
func quadReq(variant int) *service.Request {
	dx := 0.25 * float64(variant+1)
	return &service.Request{
		Network: service.NetworkSpec{Nodes: []service.NodeSpec{
			{ID: intp(0), X: 0, Y: 0},
			{ID: intp(1), X: 2.5, Y: 0},
			{ID: intp(2), X: 0, Y: 2.5},
			{ID: intp(3), X: 2.5 + dx, Y: 2.5},
		}},
		Options: service.OptionsSpec{MaxWL: 4},
	}
}

// newShard starts one real service shard; cfg is optional extras.
func newShard(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s, err := service.New(cfg)
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

func postSynthesize(t *testing.T, baseURL string, req *service.Request) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST synthesize: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decodeSynth(t *testing.T, data []byte) *service.Response {
	t.Helper()
	var r service.Response
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("decoding response %q: %v", data, err)
	}
	return &r
}

// startRouter builds a router over the shard URLs with an initial
// synchronous probe sweep; the background loop stays off so tests
// control probe timing explicitly via rt.health.ProbeAll.
func startRouter(t *testing.T, urls []string) *Router {
	t.Helper()
	rt, err := NewRouter(RouterConfig{Members: urls})
	if err != nil {
		t.Fatal(err)
	}
	rt.health.ProbeAll(context.Background())
	return rt
}

func TestRouterRoutesByKeyDeterministically(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		_, ts := newShard(t, service.Config{})
		urls = append(urls, ts.URL)
	}
	rt := startRouter(t, urls)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	req := quadReq(0)
	resp, data := postSynthesize(t, front.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed synthesize: HTTP %d: %s", resp.StatusCode, data)
	}
	r := decodeSynth(t, data)
	shard := resp.Header.Get("X-Cluster-Shard")
	if want := rt.ring.Owner(r.Key); shard != want {
		t.Errorf("request landed on %s, ring says owner is %s", shard, want)
	}
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Error("router response missing X-Trace-Id")
	}

	// Same request again: same shard, now a cache hit there.
	resp2, data2 := postSynthesize(t, front.URL, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second routed synthesize: HTTP %d", resp2.StatusCode)
	}
	r2 := decodeSynth(t, data2)
	if got := resp2.Header.Get("X-Cluster-Shard"); got != shard {
		t.Errorf("repeat request landed on %s, first went to %s", got, shard)
	}
	if r2.Source != "cache" {
		t.Errorf("repeat source %q, want cache (keys must route stably)", r2.Source)
	}
	if !bytes.Equal(r.Design, r2.Design) {
		t.Error("repeat design differs")
	}

	// The design is fetchable through the router by key, from the shard
	// that has it.
	dresp, err := http.Get(front.URL + "/v1/designs/" + r.Key)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Errorf("GET design via router: HTTP %d", dresp.StatusCode)
	}

	// GET /v1/cluster reports membership and shares.
	cresp, err := http.Get(front.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	var info struct {
		Role    string             `json:"role"`
		Members []string           `json:"members"`
		Shares  map[string]float64 `json:"shares"`
	}
	if err := json.NewDecoder(cresp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Role != "router" || len(info.Members) != 3 || len(info.Shares) != 3 {
		t.Errorf("cluster info %+v, want router role with 3 members and shares", info)
	}
}

func TestRouterFanoutResolvesJobAnywhere(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		_, ts := newShard(t, service.Config{})
		urls = append(urls, ts.URL)
	}
	rt := startRouter(t, urls)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, data := postSynthesize(t, front.URL, quadReq(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize: HTTP %d: %s", resp.StatusCode, data)
	}
	jobID := decodeSynth(t, data).JobID
	if jobID == "" {
		t.Fatal("no job ID")
	}

	// The job lives on exactly one shard; the router must find it.
	jresp, err := http.Get(front.URL + "/v1/jobs/" + jobID)
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	if jresp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(jresp.Body)
		t.Fatalf("GET job via router: HTTP %d: %s", jresp.StatusCode, body)
	}

	// An ID no shard holds 404s cleanly after the full sweep.
	missing, err := http.Get(front.URL + "/v1/jobs/job-nope")
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job via router: HTTP %d, want 404", missing.StatusCode)
	}
}

func TestRouterFailsOverWhenOwnerDies(t *testing.T) {
	var urls []string
	var servers []*httptest.Server
	for i := 0; i < 3; i++ {
		_, ts := newShard(t, service.Config{})
		urls = append(urls, ts.URL)
		servers = append(servers, ts)
	}
	rt := startRouter(t, urls)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Find a request owned by shard 0 so killing it exercises failover.
	victim := urls[0]
	var req *service.Request
	for v := 0; v < 64; v++ {
		cand := quadReq(v)
		key, err := service.CanonicalKey(cand)
		if err != nil {
			t.Fatal(err)
		}
		if rt.ring.Owner(key) == victim {
			req = cand
			break
		}
	}
	if req == nil {
		t.Fatal("no variant hashed to the victim shard in 64 tries")
	}

	servers[0].Close()
	rt.health.ProbeAll(context.Background())
	if rt.health.Healthy(victim) {
		t.Fatal("probe still thinks the closed shard is healthy")
	}

	resp, data := postSynthesize(t, front.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover synthesize: HTTP %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Cluster-Shard"); got == victim || got == "" {
		t.Errorf("request served by %q, want a live non-owner shard", got)
	}

	// The router stays ready while any shard lives, and reports the
	// dead peer in its JSON body.
	rresp, err := http.Get(front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Errorf("router /readyz: HTTP %d with 2 live shards", rresp.StatusCode)
	}
	var rd struct {
		Ready        bool         `json:"ready"`
		HealthyPeers int          `json:"healthyPeers"`
		Peers        []PeerStatus `json:"peers"`
	}
	if err := json.NewDecoder(rresp.Body).Decode(&rd); err != nil {
		t.Fatal(err)
	}
	if !rd.Ready || rd.HealthyPeers != 2 {
		t.Errorf("router readiness %+v, want ready with 2 healthy peers", rd)
	}
}

// listenerShard starts a shard whose URL is known BEFORE the service is
// built, so cluster hooks (which need the membership up front) can be
// wired in. Returns the base URL.
func listenerShard(t *testing.T, build func(self string) service.Config) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := "http://" + ln.Addr().String()
	s, err := service.New(build(self))
	if err != nil {
		t.Fatal(err)
	}
	ts := &httptest.Server{Listener: ln, Config: &http.Server{Handler: s.Handler()}}
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return self
}

// Two shards wired as a real cluster: a design solved on its owner is
// adopted byte-identically by the other shard via peer-fill, and both
// report cluster info. Run under -race in CI.
func TestTwoShardClusterPeerFillByteIdentical(t *testing.T) {
	// Build both listeners first so each shard knows the full membership.
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	urls := []string{"http://" + ln1.Addr().String(), "http://" + ln2.Addr().String()}

	var fleets []*Peers
	for i, ln := range []net.Listener{ln1, ln2} {
		peers, err := NewPeers(PeersConfig{Self: urls[i], Members: urls})
		if err != nil {
			t.Fatal(err)
		}
		fleets = append(fleets, peers)
		s, err := service.New(service.Config{
			Workers:     2,
			PeerFetch:   peers.Fetch,
			ClusterInfo: peers.Info,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := &httptest.Server{Listener: ln, Config: &http.Server{Handler: s.Handler()}}
		ts.Start()
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Drain(ctx); err != nil {
				t.Errorf("drain: %v", err)
			}
		})
	}
	for _, p := range fleets {
		p.health.ProbeAll(context.Background())
	}

	// Pick a request owned by shard 0 under the shared ring, solve it
	// there, then ask shard 1 for the design by key: it must peer-fill.
	var req *service.Request
	var key string
	for v := 0; v < 64; v++ {
		cand := quadReq(v)
		k, err := service.CanonicalKey(cand)
		if err != nil {
			t.Fatal(err)
		}
		if fleets[0].Ring().Owner(k) == urls[0] {
			req, key = cand, k
			break
		}
	}
	if req == nil {
		t.Fatal("no variant hashed to shard 0 in 64 tries")
	}

	resp, data := postSynthesize(t, urls[0], req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner synthesize: HTTP %d: %s", resp.StatusCode, data)
	}
	ownerDesign := fetchRaw(t, urls[0]+"/v1/designs/"+key)
	otherDesign := fetchRaw(t, urls[1]+"/v1/designs/"+key)
	if !bytes.Equal(ownerDesign, otherDesign) {
		t.Error("peer-filled design differs between shards — byte identity broken")
	}

	// And cluster info is live on the shard API.
	var info map[string]any
	if err := json.Unmarshal(fetchRaw(t, urls[1]+"/v1/cluster"), &info); err != nil {
		t.Fatal(err)
	}
	if info["self"] != urls[1] {
		t.Errorf("cluster info self = %v, want %s", info["self"], urls[1])
	}
}

func fetchRaw(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, data)
	}
	return data
}

// The construct delegate forwards a ring construction to the floorplan
// owner and the answer matches a local solve exactly.
func TestDelegateMatchesLocalConstruct(t *testing.T) {
	_, ts := newShard(t, service.Config{})

	self := "http://self.invalid"
	peers, err := NewPeers(PeersConfig{Self: self, Members: []string{self, ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	peers.health.ProbeAll(context.Background())
	if !peers.health.Healthy(ts.URL) {
		t.Fatal("live shard probed unhealthy")
	}

	nw := &noc.Network{
		DieW: 4, DieH: 4,
		Nodes: []noc.Node{
			{ID: 0, Name: "n0", Pos: geom.Point{X: 0, Y: 0}},
			{ID: 1, Name: "n1", Pos: geom.Point{X: 2.5, Y: 0}},
			{ID: 2, Name: "n2", Pos: geom.Point{X: 0, Y: 2.5}},
			{ID: 3, Name: "n3", Pos: geom.Point{X: 2.75, Y: 2.5}},
		},
	}
	opt := ring.Options{}

	// Find a floorplan key the live shard owns; the delegate declines
	// self-owned keys by design.
	var fkey string
	for v := 0; v < 64; v++ {
		cand := fmt.Sprintf("fkey-%d", v)
		if peers.Ring().Owner("construct!"+cand) == ts.URL {
			fkey = cand
			break
		}
	}
	if fkey == "" {
		t.Fatal("no floorplan key hashed to the live shard")
	}

	got, ok := peers.Delegate(context.Background(), nw, opt, fkey)
	if !ok || got == nil {
		t.Fatal("delegate declined a remote-owned floorplan with a healthy owner")
	}
	want, err := ring.ConstructCtx(context.Background(), nw, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("delegated construct differs from local solve:\n got %+v\nwant %+v", got, want)
	}

	// A floorplan the shard itself owns is declined (solve locally).
	var selfKey string
	for v := 0; v < 64; v++ {
		cand := fmt.Sprintf("self-%d", v)
		if peers.Ring().Owner("construct!"+cand) == self {
			selfKey = cand
			break
		}
	}
	if selfKey == "" {
		t.Fatal("no floorplan key hashed to self")
	}
	if _, ok := peers.Delegate(context.Background(), nw, opt, selfKey); ok {
		t.Error("delegate forwarded a self-owned floorplan")
	}
}

// A ring-cache miss on shard A for a floorplan shard B owns travels
// through A's engine delegate to B's /v1/cluster/construct, and the
// design A serves is byte-identical to a single instance's. Each shard
// owns its engine, so B's solve cannot leak into A any other way.
func TestRingMissDelegatesToOwnerShard(t *testing.T) {
	prev := obs.MetricsEnabled()
	obs.EnableMetrics(true)
	t.Cleanup(func() { obs.EnableMetrics(prev) })

	var lns []net.Listener
	var urls []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	var (
		fleet   []*Peers
		servers []*service.Server
		lastKey atomic.Value // string: floorplan key of shard A's latest ring miss
	)
	for i, ln := range lns {
		peers, err := NewPeers(PeersConfig{Self: urls[i], Members: urls})
		if err != nil {
			t.Fatal(err)
		}
		delegate := peers.Delegate
		if i == 0 {
			delegate = func(ctx context.Context, nw *noc.Network, opt ring.Options, fkey string) (*ring.Result, bool) {
				lastKey.Store(fkey)
				return peers.Delegate(ctx, nw, opt, fkey)
			}
		}
		s, err := service.New(service.Config{Workers: 1, RingDelegate: delegate})
		if err != nil {
			t.Fatal(err)
		}
		ts := &httptest.Server{Listener: ln, Config: &http.Server{Handler: s.Handler()}}
		ts.Start()
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Drain(ctx); err != nil {
				t.Errorf("drain: %v", err)
			}
		})
		fleet = append(fleet, peers)
		servers = append(servers, s)
	}
	for _, p := range fleet {
		p.health.ProbeAll(context.Background())
	}

	// Synthesize variants on A until one's floorplan is owned by B.
	var req *service.Request
	var delegated int64
	for v := 0; v < 64 && req == nil; v++ {
		cand := quadReq(v)
		before := mConstructDelegated.Value()
		lastKey.Store("")
		if resp, data := postSynthesize(t, urls[0], cand); resp.StatusCode != http.StatusOK {
			t.Fatalf("synthesize on A: HTTP %d: %s", resp.StatusCode, data)
		}
		if fkey := lastKey.Load().(string); fkey != "" && fleet[0].Ring().Owner("construct!"+fkey) == urls[1] {
			req, delegated = cand, mConstructDelegated.Value()-before
		}
	}
	if req == nil {
		t.Fatal("no variant's floorplan hashed to shard B in 64 tries")
	}
	if got := servers[1].Stats().ClusterConstructs; got != 1 {
		t.Errorf("shard B served %d constructs, want 1", got)
	}
	if delegated != 1 {
		t.Errorf("cluster.construct.delegated rose by %d, want 1", delegated)
	}

	key, err := service.CanonicalKey(req)
	if err != nil {
		t.Fatal(err)
	}
	_, single := newShard(t, service.Config{})
	if resp, data := postSynthesize(t, single.URL, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("single-instance synthesize: HTTP %d: %s", resp.StatusCode, data)
	}
	if !bytes.Equal(fetchRaw(t, urls[0]+"/v1/designs/"+key), fetchRaw(t, single.URL+"/v1/designs/"+key)) {
		t.Error("design built on a delegated ring differs from the single-instance design")
	}
}

func TestPeersFetchAsksOwner(t *testing.T) {
	_, ts := newShard(t, service.Config{})
	self := "http://self.invalid"
	peers, err := NewPeers(PeersConfig{Self: self, Members: []string{self, ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	peers.health.ProbeAll(context.Background())

	// Solve a request the LIVE shard owns, then fetch its envelope.
	var key string
	var req *service.Request
	for v := 0; v < 64; v++ {
		cand := quadReq(v)
		k, err := service.CanonicalKey(cand)
		if err != nil {
			t.Fatal(err)
		}
		if peers.Ring().Owner(k) == ts.URL {
			req, key = cand, k
			break
		}
	}
	if req == nil {
		t.Fatal("no variant owned by the live shard")
	}
	if resp, data := postSynthesize(t, ts.URL, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize: HTTP %d: %s", resp.StatusCode, data)
	}

	data, err := peers.Fetch(context.Background(), key)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	var envelope struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(data, &envelope); err != nil || envelope.Key != key {
		t.Errorf("fetched envelope key %q (err %v), want %q", envelope.Key, err, key)
	}

	// A key owned by self has no one to ask.
	var selfOwned string
	for v := 0; v < 256; v++ {
		k := fmt.Sprintf("sha256:%064x", v)
		if peers.Ring().Owner(k) == self {
			selfOwned = k
			break
		}
	}
	if selfOwned == "" {
		t.Fatal("no key hashed to self")
	}
	if _, err := peers.Fetch(context.Background(), selfOwned); err == nil {
		t.Error("Fetch of a self-owned key should fail (nobody to ask)")
	}
}

// fleetShard is one persist-backed shard of an in-process cluster,
// wired the way xringd -cluster-self/-cluster-peers/-persist wires a
// process: peer-fill, cluster info and the ring delegate.
type fleetShard struct {
	peers *Peers
	svc   *service.Server
	ts    *httptest.Server
}

func startFleetShard(t *testing.T, ln net.Listener, self string, members []string, dir string) *fleetShard {
	t.Helper()
	peers, err := NewPeers(PeersConfig{Self: self, Members: members})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{
		Workers:      2,
		PersistDir:   dir,
		PeerFetch:    peers.Fetch,
		ClusterInfo:  peers.Info,
		RingDelegate: peers.Delegate,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := &httptest.Server{Listener: ln, Config: &http.Server{Handler: svc.Handler()}}
	ts.Start()
	sh := &fleetShard{peers: peers, svc: svc, ts: ts}
	t.Cleanup(func() { sh.close(t) })
	return sh
}

// close stops serving and drains; it is safe to call twice.
func (sh *fleetShard) close(t *testing.T) {
	if sh.ts == nil {
		return
	}
	sh.ts.Close()
	sh.ts = nil
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sh.svc.Drain(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
}

// listenAgain rebinds a just-closed address, polling until the kernel
// lets go of it.
func listenAgain(t *testing.T, addr string) net.Listener {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestThreeShardFleetBehindRouter drives a three-shard fleet, each
// shard with its own engine and persist dir, through one router: every
// shard serves the owner's exact bytes, the fleet solves the design
// once and peer-fills it twice, and a non-owner shard that restarts
// over a wiped persist dir gets the design back by peer-fill, not by
// solving it again.
func TestThreeShardFleetBehindRouter(t *testing.T) {
	var lns []net.Listener
	var urls []string
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	shards := make([]*fleetShard, 3)
	dirs := make([]string, 3)
	for i, ln := range lns {
		dirs[i] = t.TempDir()
		shards[i] = startFleetShard(t, ln, urls[i], urls, dirs[i])
	}
	// Probe once the whole fleet serves, so no shard sees a peer dead.
	for _, sh := range shards {
		sh.peers.health.ProbeAll(context.Background())
		if n := sh.peers.health.HealthyCount(); n != 2 {
			t.Fatalf("shard %s sees %d healthy peers, want 2", sh.peers.self, n)
		}
	}
	rt := startRouter(t, urls)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	var ready struct {
		HealthyPeers int `json:"healthyPeers"`
	}
	if err := json.Unmarshal(fetchRaw(t, front.URL+"/readyz"), &ready); err != nil || ready.HealthyPeers != 3 {
		t.Fatalf("router readyz healthyPeers = %d (err %v), want 3", ready.HealthyPeers, err)
	}

	req := &service.Request{Network: service.NetworkSpec{Standard: 16}, Options: service.OptionsSpec{MaxWL: 14}}
	resp, data := postSynthesize(t, front.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed synthesize: HTTP %d: %s", resp.StatusCode, data)
	}
	key := decodeSynth(t, data).Key
	owner := resp.Header.Get("X-Cluster-Shard")
	if owner != rt.ring.Owner(key) {
		t.Fatalf("X-Cluster-Shard = %q, ring owner %q", owner, rt.ring.Owner(key))
	}

	want := fetchRaw(t, front.URL+"/v1/designs/"+key)
	for _, u := range urls {
		if got := fetchRaw(t, u+"/v1/designs/"+key); !bytes.Equal(got, want) {
			t.Errorf("shard %s serves different design bytes than the router", u)
		}
	}
	var solves, fills int64
	for _, sh := range shards {
		st := sh.svc.Stats()
		solves += st.Synthesized
		fills += st.PeerFills
	}
	if solves != 1 || fills != 2 {
		t.Errorf("fleet synthesized %d and peer-filled %d, want 1 and 2", solves, fills)
	}

	// Restart a non-owner shard over a wiped persist dir, on its old
	// address so the membership still names it.
	victim := 0
	for urls[victim] == owner {
		victim++
	}
	addr := lns[victim].Addr().String()
	shards[victim].close(t)
	if err := os.RemoveAll(dirs[victim]); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dirs[victim], 0o755); err != nil {
		t.Fatal(err)
	}
	restarted := startFleetShard(t, listenAgain(t, addr), urls[victim], urls, dirs[victim])
	restarted.peers.health.ProbeAll(context.Background())
	if got := fetchRaw(t, urls[victim]+"/v1/designs/"+key); !bytes.Equal(got, want) {
		t.Error("restarted shard serves different design bytes")
	}
	if st := restarted.svc.Stats(); st.PeerFills != 1 || st.Synthesized != 0 {
		t.Errorf("restarted shard peerFills=%d synthesized=%d, want 1 and 0", st.PeerFills, st.Synthesized)
	}
}
