package service

// Shard-side cluster surface. The service stays cluster-agnostic — it
// never imports internal/cluster — and instead exposes the pieces the
// cluster layer composes around it:
//
//   - /readyz answers a JSON readiness body (queue depth, in-flight
//     jobs, drain state) so a router can weigh shards, while keeping
//     the bare 200/503 contract for dumb probes;
//   - GET /v1/cluster/entry/{key} serves the persist envelope of a
//     cached design, the wire format of cache peer-fill;
//   - POST /v1/cluster/construct solves one Step-1 ring construction
//     on behalf of the fleet (cross-instance request batching);
//   - GET /v1/cluster reports whatever view Config.ClusterInfo wires
//     in (membership, ownership shares, peer health);
//   - Config.PeerFetch, consulted via peerFill on cache misses, pulls
//     a peer's envelope through the same validation as disk recovery.

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"xring/internal/ring"
)

// Readiness is the GET /readyz body: enough load signal for a cluster
// router (or an external LB) to weigh this shard. The HTTP status keeps
// the original bare contract — 200 while serving, 503 while draining —
// so probes that ignore the body keep working.
type Readiness struct {
	Ready    bool `json:"ready"`
	Draining bool `json:"draining"`
	// QueueDepth is the number of admitted-but-not-running jobs;
	// QueueCap the admission bound behind 429s.
	QueueDepth int `json:"queueDepth"`
	QueueCap   int `json:"queueCap"`
	// Inflight is the number of jobs currently executing on workers.
	Inflight int `json:"inflight"`
	Workers  int `json:"workers"`
}

// readiness snapshots the server's load signal.
func (s *Server) readiness() Readiness {
	rd := Readiness{
		Draining:   s.draining.Load(),
		QueueDepth: len(s.queue),
		QueueCap:   s.cfg.QueueDepth,
		Inflight:   int(s.running.Load()),
		Workers:    s.cfg.Workers,
	}
	rd.Ready = !rd.Draining
	return rd
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	rd := s.readiness()
	status := http.StatusOK
	if !rd.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, rd)
}

// tierPeer marks a design served by adopting a cluster peer's envelope
// (cacheGet's tierMemory/tierPersist siblings).
const tierPeer = "peer"

// peerFill asks the cluster (via Config.PeerFetch) for key's persist
// envelope and adopts it into the local cache tiers after full
// validation. Every failure path returns (nil, false) — peer-fill can
// only ever save a solve, never cause one to fail.
func (s *Server) peerFill(ctx context.Context, key string) (*cached, bool) {
	if s.cfg.PeerFetch == nil {
		return nil, false
	}
	// Only well-formed content keys go out on the wire; anything else
	// could not have a persist envelope anyway.
	if _, ok := fileForKey(key); !ok {
		return nil, false
	}
	data, err := s.cfg.PeerFetch(ctx, key)
	if err != nil || len(data) == 0 {
		mPeerFillMisses.Inc()
		return nil, false
	}
	c, reject := decodeEntry(data, key)
	if reject != "" {
		if reject == rejectStale {
			s.st.peerFillStale.Add(1)
		} else {
			s.st.peerFillCorrupt.Add(1)
		}
		return nil, false
	}
	s.st.peerFills.Add(1)
	s.cachePut(c)
	if s.persist != nil {
		// Adopted entries spill to the local disk tier too, so the next
		// restart does not re-fetch them; a failed spill costs nothing.
		if perr := s.persist.write(c); perr != nil {
			mPersistErrors.Inc()
		}
	}
	return c, true
}

// handleClusterEntry serves the persist envelope of a cached design to
// a fellow shard — the peer-fill wire format. Misses are a plain 404;
// the asking shard then solves locally.
func (s *Server) handleClusterEntry(w http.ResponseWriter, r *http.Request) {
	c, _, ok := s.cacheGet(r.PathValue("key"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("design not cached"))
		return
	}
	data, err := encodeEntry(c)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// Deliberately not counted as a cache hit: peer traffic would
	// otherwise inflate client-facing hit rates.
	s.st.clusterEntries.Add(1)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

// ConstructRequest is the POST /v1/cluster/construct body: one Step-1
// ring-construction problem, as shipped by a peer whose ring-cache miss
// delegated here. The floorplan decodes as a synthesize request's
// does (NetworkSpec.toNetwork): node IDs default to listed order.
type ConstructRequest struct {
	DieW  float64    `json:"dieW"`
	DieH  float64    `json:"dieH"`
	Nodes []NodeSpec `json:"nodes"`
	// MaxNodes and DisableConflicts mirror ring.Options — the only two
	// fields of the floorplan cache key beyond geometry.
	MaxNodes         int  `json:"maxNodes,omitempty"`
	DisableConflicts bool `json:"disableConflicts,omitempty"`
}

// ConstructResponse carries the solved (deterministic) ring result.
type ConstructResponse struct {
	Result *ring.Result `json:"result"`
}

// handleClusterConstruct solves one ring construction on behalf of the
// fleet: every shard forwards misses for floorplans this shard owns, so
// the server engine's ring cache plus singleflight here turn N
// concurrent cluster-wide misses into one solve. It answers 503 while
// draining (peers fall back to their local solver).
func (s *Server) handleClusterConstruct(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.rejectDraining(w, "")
		return
	}
	var req ConstructRequest
	if !decodeBody(w, r, "", &req) {
		return
	}
	net, err := (&NetworkSpec{DieW: req.DieW, DieH: req.DieH, Nodes: req.Nodes}).toNetwork()
	if err == nil && net.N() < 3 {
		err = fmt.Errorf("construct needs at least 3 nodes, got %d", net.N())
	}
	if err != nil {
		mRequestsInvalid.Inc()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.engine.ConstructRingShared(r.Context(), net,
		ring.Options{MaxNodes: req.MaxNodes, DisableConflicts: req.DisableConflicts})
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.st.clusterConstructs.Add(1)
	writeJSON(w, http.StatusOK, &ConstructResponse{Result: res})
}

// handleClusterInfo serves the wired-in cluster view; a shard started
// without cluster flags answers 404.
func (s *Server) handleClusterInfo(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.ClusterInfo == nil {
		writeError(w, http.StatusNotFound, errors.New("not clustered"))
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.ClusterInfo())
}
