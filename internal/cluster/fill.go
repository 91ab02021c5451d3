package cluster

// Shard-side cluster client: what one xringd instance uses to talk to
// its peers. Peers bundles the consistent-hash view (current and,
// across a topology change, previous), per-peer health, and per-peer
// HTTP clients with endpoint-scoped circuit breakers, and exposes the
// two hooks the service and engine take:
//
//   - Fetch       -> service.Config.PeerFetch (cache peer-fill)
//   - Delegate    -> service.Config.RingDelegate (cross-instance
//                    batching of Step-1 ring constructions on the
//                    floorplan owner)
//   - Info        -> service.Config.ClusterInfo (GET /v1/cluster)

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"xring/internal/noc"
	"xring/internal/ring"
	"xring/internal/service"
	"xring/internal/service/client"
)

// fetchTimeout bounds one peer-fill fetch: an envelope is a cached
// read on the peer, so anything slow means we should just solve.
const fetchTimeout = 5 * time.Second

// PeersConfig wires one shard into the cluster.
type PeersConfig struct {
	// Self is this shard's own advertised base URL; keys it owns are
	// never fetched or delegated (it IS the owner).
	Self string
	// Members is the full membership, including Self.
	Members []string
	// Previous, when non-empty, is the membership before the last
	// topology change: peer-fill also asks a key's previous owner, so a
	// rebalance never triggers a re-solve storm for designs that moved.
	Previous []string
	// VirtualNodes <= 0 selects DefaultVirtualNodes.
	VirtualNodes int
	// HTTPClient overrides the transport (tests); nil gets a default.
	HTTPClient *http.Client
	// ProbeInterval tunes the health prober (<= 0: DefaultProbeInterval).
	ProbeInterval time.Duration
}

// Peers is a shard's view of its cluster.
type Peers struct {
	self    string
	vnodes  int
	ring    *Ring
	prev    *Ring // nil without a previous topology
	health  *Health
	clients map[string]*client.Client
}

// NewPeers builds the shard-side cluster view. Start launches health
// probing; the hooks work before Start too (peers just look unhealthy
// until the first probe, so fills fall back to solving).
func NewPeers(cfg PeersConfig) (*Peers, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: peers need a self URL")
	}
	r, err := NewRing(cfg.Members, cfg.VirtualNodes)
	if err != nil {
		return nil, err
	}
	found := false
	for _, m := range r.Members() {
		if m == cfg.Self {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: self %q is not in the member list", cfg.Self)
	}
	vnodes := cfg.VirtualNodes
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	p := &Peers{self: cfg.Self, vnodes: vnodes, ring: r, clients: map[string]*client.Client{}}
	if len(cfg.Previous) > 0 {
		if p.prev, err = NewRing(cfg.Previous, cfg.VirtualNodes); err != nil {
			return nil, fmt.Errorf("cluster: previous topology: %w", err)
		}
	}
	var others []string
	group := client.NewBreakerGroup()
	for _, m := range allMembers(p.ring, p.prev) {
		if m == cfg.Self {
			continue
		}
		others = append(others, m)
		p.clients[m] = client.NewWithBreakers(m, cfg.HTTPClient, group)
	}
	p.health = NewHealth(others, cfg.ProbeInterval, cfg.HTTPClient)
	return p, nil
}

// allMembers merges current and previous membership, current first.
func allMembers(cur, prev *Ring) []string {
	out := cur.Members()
	if prev == nil {
		return out
	}
	seen := map[string]bool{}
	for _, m := range out {
		seen[m] = true
	}
	for _, m := range prev.Members() {
		if !seen[m] {
			out = append(out, m)
		}
	}
	return out
}

// Start launches background health probing; Stop ends it.
func (p *Peers) Start() { p.health.Start() }
func (p *Peers) Stop()  { p.health.Stop() }

// Ring returns the current consistent-hash view.
func (p *Peers) Ring() *Ring { return p.ring }

// Health returns the peer health tracker.
func (p *Peers) Health() *Health { return p.health }

// Fetch is the service.Config.PeerFetch hook: it asks the key's owner
// (and, across a topology change, the previous owner) for the persist
// envelope. Any error means "solve locally"; validation of the bytes is
// entirely the service's job.
func (p *Peers) Fetch(ctx context.Context, key string) ([]byte, error) {
	var lastErr error
	tried := false
	for _, peer := range p.fillCandidates(key) {
		if !p.health.Healthy(peer) {
			continue
		}
		tried = true
		mFillFetches.Inc()
		fctx, cancel := context.WithTimeout(ctx, fetchTimeout)
		data, err := p.clients[peer].ClusterEntry(fctx, key)
		cancel()
		if err == nil {
			mFillServed.Inc()
			return data, nil
		}
		lastErr = err
	}
	if !tried {
		return nil, fmt.Errorf("cluster: no live peer owns %s", key)
	}
	return nil, lastErr
}

// fillCandidates returns the distinct peers worth asking for key: its
// current owner, then its owner under the previous topology.
func (p *Peers) fillCandidates(key string) []string {
	var out []string
	if owner := p.ring.Owner(key); owner != p.self {
		out = append(out, owner)
	}
	if p.prev != nil {
		if prevOwner := p.prev.Owner(key); prevOwner != p.self && (len(out) == 0 || out[0] != prevOwner) {
			out = append(out, prevOwner)
		}
	}
	return out
}

// Delegate is the service.Config.RingDelegate hook: a ring-cache miss
// for a floorplan another shard owns is forwarded there, so N shards
// racing on one floorplan produce one solve cluster-wide (the owner's
// ring cache + singleflight coalesce every forwarded call). Declines —
// self-owned floorplans, unhealthy owner, any RPC failure — mean
// "solve locally".
func (p *Peers) Delegate(ctx context.Context, net *noc.Network, opt ring.Options, fkey string) (*ring.Result, bool) {
	// Floorplan keys get their own placement domain so the construct
	// load spreads independently of the design-key placement.
	owner := p.ring.Owner("construct!" + fkey)
	if owner == p.self || !p.health.Healthy(owner) {
		return nil, false
	}
	req := &service.ConstructRequest{
		DieW:             net.DieW,
		DieH:             net.DieH,
		MaxNodes:         opt.MaxNodes,
		DisableConflicts: opt.DisableConflicts,
	}
	for _, n := range net.Nodes {
		req.Nodes = append(req.Nodes, service.NodeSpec{Name: n.Name, X: n.Pos.X, Y: n.Pos.Y})
	}
	resp, err := p.clients[owner].Construct(ctx, req)
	if err != nil || resp.Result == nil {
		mConstructFallback.Inc()
		return nil, false
	}
	mConstructDelegated.Inc()
	return resp.Result, true
}

// Info is the service.Config.ClusterInfo hook: this shard's membership
// and ownership view for GET /v1/cluster.
func (p *Peers) Info() any {
	info := map[string]any{
		"self":     p.self,
		"members":  p.ring.Members(),
		"vnodes":   p.vnodes,
		"shares":   p.ring.Shares(),
		"peers":    p.health.Snapshot(),
		"topology": "current",
	}
	if p.prev != nil {
		info["previousMembers"] = p.prev.Members()
	}
	return info
}
