// Package cluster is the distributed layer of xringd: a deterministic
// consistent-hash ring that maps content keys to owner shards, per-peer
// health tracking built on the /readyz readiness contract, an HTTP
// router that forwards key-addressed requests to their owners with
// bounded retries, a cache peer-fill client that lets a shard adopt a
// neighbor's persisted design instead of re-solving it, and a
// ring-construction delegate that coalesces Step-1 solves for one
// floorplan onto its owner cluster-wide.
//
// Every piece is deterministic given the membership list: the ring
// seeds virtual-node placement from the member names alone, so every
// router and every shard — across processes and restarts — agrees on
// who owns which key without any coordination service.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// DefaultVirtualNodes is the per-member virtual-node count. 64 vnodes
// keep the key-space share of a 3-16 member ring within a few percent
// of uniform while the ring stays small enough to rebuild on every
// membership change.
const DefaultVirtualNodes = 64

// Ring is a deterministic consistent-hash ring: Members are placed at
// VirtualNodes seeded positions each, and a key is owned by the first
// virtual node clockwise from the key's hash. Construction is pure —
// two Rings built from the same member list (in any order) are
// identical, which is what lets routers and shards agree on ownership
// without talking to each other.
type Ring struct {
	members []string // sorted, deduplicated
	points  []point  // sorted by hash
}

type point struct {
	hash   uint64
	member int // index into members
}

// SplitMembers parses a comma-separated membership list (the
// -cluster-peers and -peers flag syntax): items are trimmed of
// whitespace and trailing slashes, and empty items are dropped. An
// empty list yields nil.
func SplitMembers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimRight(strings.TrimSpace(p), "/"); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// NewRing builds a ring over the given members (base URLs or names —
// any non-empty strings; order and duplicates are irrelevant). vnodes
// <= 0 selects DefaultVirtualNodes.
func NewRing(members []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := map[string]bool{}
	var ms []string
	for _, m := range members {
		// Normalize so "http://s1" and "http://s1/" are one member no
		// matter which spelling each process was configured with.
		m = strings.TrimRight(strings.TrimSpace(m), "/")
		if m == "" {
			return nil, fmt.Errorf("cluster: empty member name")
		}
		if !seen[m] {
			seen[m] = true
			ms = append(ms, m)
		}
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	sort.Strings(ms)
	r := &Ring{members: ms}
	for i, m := range ms {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: placementHash(m, v), member: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash ties (astronomically unlikely) break by member name so
		// placement stays deterministic regardless of input order.
		return r.members[r.points[a].member] < r.members[r.points[b].member]
	})
	return r, nil
}

// placementHash seeds a member's virtual node v onto the ring. The
// seed is the member name plus the vnode ordinal — no process-local
// state — so placement is identical in every process.
func placementHash(member string, v int) uint64 {
	h := sha256.New()
	h.Write([]byte("xring-cluster-vnode"))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(member)))
	h.Write(b[:])
	h.Write([]byte(member))
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
	return binary.BigEndian.Uint64(h.Sum(nil)[:8])
}

// keyHash places a content key on the ring. Keys are hashed with a
// distinct domain prefix so a key can never collide with a vnode
// placement by construction.
func keyHash(key string) uint64 {
	h := sha256.New()
	h.Write([]byte("xring-cluster-key"))
	h.Write([]byte(key))
	return binary.BigEndian.Uint64(h.Sum(nil)[:8])
}

// Members returns the sorted member list.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Size returns the member count.
func (r *Ring) Size() int { return len(r.members) }

// Owner returns the member owning key: the first virtual node at or
// clockwise after the key's hash.
func (r *Ring) Owner(key string) string {
	return r.members[r.points[r.locate(keyHash(key))].member]
}

// Owners returns up to n distinct members in preference order for key:
// the owner first, then the distinct members of the following virtual
// nodes — the failover sequence a router walks when the owner is
// unhealthy.
func (r *Ring) Owners(key string, n int) []string {
	if n > len(r.members) {
		n = len(r.members)
	}
	if n <= 0 {
		return nil
	}
	out := make([]string, 0, n)
	seen := map[int]bool{}
	for i, start := 0, r.locate(keyHash(key)); len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
	}
	return out
}

// locate returns the index of the first point with hash >= h, wrapping
// to 0 past the end.
func (r *Ring) locate(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Shares returns each member's fraction of the key space — the sum of
// the arc lengths its virtual nodes own — primarily for /v1/cluster
// introspection and the balance test.
func (r *Ring) Shares() map[string]float64 {
	shares := map[string]float64{}
	if len(r.points) == 0 {
		return shares
	}
	const whole = float64(1<<63) * 2 // 2^64 as float
	for i, p := range r.points {
		prev := r.points[(i-1+len(r.points))%len(r.points)].hash
		arc := p.hash - prev // uint64 wraparound handles the seam point
		shares[r.members[p.member]] += float64(arc) / whole
	}
	return shares
}
