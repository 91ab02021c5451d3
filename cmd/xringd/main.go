// Command xringd serves the xring synthesis engine as a long-running
// daemon: an HTTP JSON API with admission control (bounded job queue,
// 429 + Retry-After under overload), content-addressed result caching,
// singleflight deduplication of identical concurrent requests, and
// per-job progress streaming over SSE. See SERVICE.md for the API
// contract and examples.
//
// Usage:
//
//	xringd                          # serve on :8418
//	xringd -addr :9000 -workers 4   # custom listen address and parallelism
//	xringd -queue 16 -cache 512     # admission queue depth, result cache size
//	xringd -deadline 2m             # default per-request synthesis deadline
//	xringd -persist /var/lib/xring  # crash-safe on-disk result cache
//	xringd -stage-timeout 30s       # per-stage progress watchdog (504 on stall)
//	xringd -fault 'core.ring=error:budget'  # deterministic fault injection
//	xringd -flight 512              # flight-recorder depth (last N job records)
//	xringd -flight-dir /var/log/xring  # auto-snapshot on panic / stage timeout
//	xringd -cluster-self http://10.0.0.1:8418 \
//	       -cluster-peers http://10.0.0.1:8418,http://10.0.0.2:8418,http://10.0.0.3:8418
//	                                # shard of a consistent-hash cluster: cache
//	                                # peer-fill + cross-instance ring batching
//	                                # (front with xringlb; see SERVICE.md)
//
// Observability: GET /metrics serves Prometheus text exposition (JSON
// via ?format=json), GET /debug/flightrecorder dumps the last N job
// records, and every request is correlated end to end by a W3C trace
// ID (traceparent in, X-Trace-Id out).
//
// Shutdown: SIGINT/SIGTERM starts a graceful drain — new submissions
// are rejected with 503 (and /readyz flips, so load balancers stop
// routing here) while every admitted job runs to completion, bounded
// by -drain-timeout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xring/internal/cluster"
	"xring/internal/obs"
	"xring/internal/service"
)

func main() {
	addr := flag.String("addr", ":8418", "listen address")
	queue := flag.Int("queue", 64, "admission queue depth (queued-not-running jobs; overflow gets 429)")
	workers := flag.Int("workers", 2, "concurrent synthesis jobs (each fans out on the shared worker pool)")
	cache := flag.Int("cache", 256, "result cache entries (0 default, negative disables)")
	deadline := flag.Duration("deadline", 0, "default per-request synthesis deadline (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "max time to finish admitted jobs at shutdown")
	persist := flag.String("persist", "", "directory for the crash-safe persistent result cache (empty disables)")
	persistEntries := flag.Int("persist-entries", 0, "max on-disk cache entries (0 = default 1024)")
	stageTimeout := flag.Duration("stage-timeout", 0, "fail a job if no synthesis stage completes within this long (0 = off)")
	fault := flag.String("fault", "", "fault-injection spec, e.g. 'core.ring=error:budget;seed=7' (testing)")
	flight := flag.Int("flight", 0, "flight-recorder depth: last N completed job records (0 = default 256)")
	flightDir := flag.String("flight-dir", "", "directory for automatic flight-recorder snapshots on panic/stage-timeout (empty disables)")
	clusterSelf := flag.String("cluster-self", "", "this shard's advertised base URL (e.g. http://10.0.0.1:8418); enables cluster mode")
	clusterPeers := flag.String("cluster-peers", "", "comma-separated shard base URLs — the full membership, including self")
	clusterPrev := flag.String("cluster-prev", "", "previous membership (comma-separated), so peer-fill survives a rebalance")
	clusterVnodes := flag.Int("cluster-vnodes", 0, "virtual nodes per member on the consistent-hash ring (0 = default 64; must match the fleet)")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()

	var peers *cluster.Peers
	if *clusterSelf != "" || *clusterPeers != "" {
		p, err := cluster.NewPeers(cluster.PeersConfig{
			Self:         *clusterSelf,
			Members:      cluster.SplitMembers(*clusterPeers),
			Previous:     cluster.SplitMembers(*clusterPrev),
			VirtualNodes: *clusterVnodes,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "xringd:", err)
			os.Exit(1)
		}
		peers = p
	}

	if err := run(*addr, peers, service.Config{
		QueueDepth:      *queue,
		Workers:         *workers,
		CacheEntries:    *cache,
		DefaultDeadline: *deadline,
		PersistDir:      *persist,
		PersistEntries:  *persistEntries,
		StageTimeout:    *stageTimeout,
		FaultSpec:       *fault,
		FlightRecords:   *flight,
		FlightDir:       *flightDir,
	}, *drainTimeout, obsFlags); err != nil {
		fmt.Fprintln(os.Stderr, "xringd:", err)
		os.Exit(1)
	}
}

func run(addr string, peers *cluster.Peers, cfg service.Config, drainTimeout time.Duration, obsFlags *obs.Flags) error {
	flushObs, err := obsFlags.Activate(os.Stderr)
	if err != nil {
		return err
	}
	defer func() {
		if ferr := flushObs(); ferr != nil {
			fmt.Fprintln(os.Stderr, "xringd:", ferr)
		}
	}()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "xringd: serving on %s\n", ln.Addr())
	if peers != nil {
		// Cluster mode: the service pulls cache misses from the key's
		// owner shard (peer-fill), the engine forwards ring-construction
		// misses to the floorplan's owner (cross-instance batching), and
		// GET /v1/cluster reports this shard's membership view.
		cfg.PeerFetch = peers.Fetch
		cfg.ClusterInfo = peers.Info
		cfg.RingDelegate = peers.Delegate
		peers.Start()
		defer peers.Stop()
		fmt.Fprintf(os.Stderr, "xringd: cluster mode, %d members\n", peers.Ring().Size())
	}
	return serve(ln, cfg, drainTimeout)
}

// serve runs the service on ln until SIGINT/SIGTERM, then drains:
// admitted jobs finish (bounded by drainTimeout) before the listener
// closes. Split from run so tests can drive it on an ephemeral port.
func serve(ln net.Listener, cfg service.Config, drainTimeout time.Duration) error {
	logger := obs.Logger("service")
	// The metrics registry always counts for a daemon: GET /metrics is
	// the point of running one, and telemetry is proven not to alter
	// synthesis results (obs determinism tests).
	obs.EnableMetrics(true)
	svc, err := service.New(cfg)
	if err != nil {
		return err
	}
	bi := service.ReadBuildInfo()
	logger.Info("build", "go", bi.GoVersion, "module", bi.Module,
		"version", bi.Version, "revision", bi.Revision, "modified", bi.Modified)
	fmt.Fprintf(os.Stderr, "xringd: build %s %s %s rev=%s modified=%v\n",
		bi.GoVersion, bi.Module, bi.Version, bi.Revision, bi.Modified)
	if cfg.PersistDir != "" {
		st := svc.Stats()
		logger.Info("persistent cache opened", "dir", cfg.PersistDir,
			"recovered", st.PersistRecovered, "discarded", st.PersistDiscarded)
		fmt.Fprintf(os.Stderr, "xringd: persistent cache %s (recovered %d, discarded %d)\n",
			cfg.PersistDir, st.PersistRecovered, st.PersistDiscarded)
	}
	httpServer := &http.Server{Handler: svc.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.Serve(ln) }()
	logger.Info("serving", "addr", ln.Addr().String(), "queue", cfg.QueueDepth, "workers", cfg.Workers)

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	// Drain first: /readyz flips and new submissions get 503 while the
	// admitted jobs finish, then stop the HTTP listener.
	fmt.Fprintln(os.Stderr, "xringd: draining...")
	logger.Info("draining", "timeout", drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := svc.Drain(drainCtx); err != nil {
		logger.Warn("drain incomplete", "err", err)
		fmt.Fprintln(os.Stderr, "xringd:", err)
	}
	if err := httpServer.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	st := svc.Stats()
	logger.Info("stopped", "requests", st.Requests, "synthesized", st.Synthesized,
		"cacheHits", st.CacheHits, "dedupHits", st.DedupHits)
	fmt.Fprintf(os.Stderr, "xringd: stopped (requests %d, synthesized %d, cache hits %d, dedup hits %d)\n",
		st.Requests, st.Synthesized, st.CacheHits, st.DedupHits)
	return nil
}
