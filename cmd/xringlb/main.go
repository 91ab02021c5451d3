// Command xringlb is the xring cluster router: a stateless HTTP tier
// that fronts a fleet of xringd shards, forwarding every key-addressed
// request (/v1/synthesize, /v1/designs/{key}, /v1/explore, /v1/whatif)
// to the shard owning its content key on a deterministic
// consistent-hash ring, and resolving ID-addressed reads (job status,
// SSE streams, frontiers) by asking shards healthiest-first. Peer
// health rides on each shard's /readyz load signal; forwards carry the
// client's traceparent across the hop, fail over with bounded retries,
// and one bad shard only trips its own circuit breaker.
//
// Usage:
//
//	xringlb -peers http://10.0.0.1:8418,http://10.0.0.2:8418,http://10.0.0.3:8418
//	xringlb -addr :8417 -retries 2 -probe-interval 2s
//
// The -vnodes setting must match the shards' -cluster-vnodes, or
// router and fleet disagree about key ownership. GET /v1/cluster shows
// membership, ownership shares and live peer health; GET /metrics
// serves the router's cluster.route.* counters.
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
)

func main() {
	addr := flag.String("addr", ":8417", "listen address")
	peers := flag.String("peers", "", "comma-separated shard base URLs (required)")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per member on the consistent-hash ring (0 = default 64; must match the fleet)")
	retries := flag.Int("retries", 0, "failover attempts after the first forward (0 = default 2, negative disables)")
	probeInterval := flag.Duration("probe-interval", 0, "peer health probe cadence (0 = default 2s)")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()

	if err := run(*addr, cluster.SplitMembers(*peers), *vnodes, *retries, *probeInterval, obsFlags); err != nil {
		fmt.Fprintln(os.Stderr, "xringlb:", err)
		os.Exit(1)
	}
}

func run(addr string, peers []string, vnodes, retries int, probeInterval time.Duration, obsFlags *obs.Flags) error {
	if len(peers) == 0 {
		return errors.New("no peers: pass -peers with the shard fleet")
	}
	flushObs, err := obsFlags.Activate(os.Stderr)
	if err != nil {
		return err
	}
	defer func() {
		if ferr := flushObs(); ferr != nil {
			fmt.Fprintln(os.Stderr, "xringlb:", ferr)
		}
	}()
	obs.EnableMetrics(true)

	router, err := cluster.NewRouter(cluster.RouterConfig{
		Members:       peers,
		VirtualNodes:  vnodes,
		MaxRetries:    retries,
		ProbeInterval: probeInterval,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	router.Start()
	defer router.Stop()
	fmt.Fprintf(os.Stderr, "xringlb: routing %d shards on %s\n", len(peers), ln.Addr())

	httpServer := &http.Server{Handler: router.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "xringlb: shutting down...")
	shCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpServer.Shutdown(shCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
