package service

import (
	"fmt"
	"sort"

	"xring/internal/core"
	"xring/internal/geom"
	"xring/internal/noc"
	"xring/internal/phys"
)

// NodeSpec is one node of a request floorplan. ID is optional: absent
// IDs are assigned by listing order, while explicit IDs let clients
// list nodes in any order (the canonical key sorts by ID, so the order
// never changes the key). Name defaults to "n<id>".
type NodeSpec struct {
	ID   *int    `json:"id,omitempty"`
	Name string  `json:"name,omitempty"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
}

// NetworkSpec is a request floorplan. Either Nodes or Standard must be
// set: Standard selects a built-in floorplan by node count (8/16/32).
type NetworkSpec struct {
	Standard int        `json:"standard,omitempty"`
	DieW     float64    `json:"dieW,omitempty"`
	DieH     float64    `json:"dieH,omitempty"`
	Nodes    []NodeSpec `json:"nodes,omitempty"`
}

// SignalSpec is one traffic demand.
type SignalSpec struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
}

// OptionsSpec mirrors core.Options over the wire, plus the sweep mode.
// MaxWL == 0 (or Sweep == true) runs a #wl sweep under Objective;
// otherwise a single synthesis at MaxWL.
type OptionsSpec struct {
	MaxWL            int          `json:"maxWL,omitempty"`
	WithPDN          bool         `json:"withPDN,omitempty"`
	ShareWavelengths bool         `json:"shareWavelengths,omitempty"`
	Params           string       `json:"params,omitempty"` // "default" (or empty) | "tableI"
	Traffic          []SignalSpec `json:"traffic,omitempty"`

	Sweep      bool   `json:"sweep,omitempty"`
	Objective  string `json:"objective,omitempty"` // min-il | min-power | max-snr
	Candidates []int  `json:"candidates,omitempty"`

	// Ablation switches, for parity with the library surface.
	DisableShortcuts bool `json:"disableShortcuts,omitempty"`
	NoCSE            bool `json:"noCSE,omitempty"`
	NoOpenings       bool `json:"noOpenings,omitempty"`
	DisableConflicts bool `json:"disableConflicts,omitempty"`

	// NoFallback disables degraded-mode synthesis: instead of falling
	// back to the heuristic ring constructor on solver budget
	// exhaustion, the request fails with the solver's error.
	NoFallback bool `json:"noFallback,omitempty"`

	// FaultTolerance requests k-fault-tolerant synthesis: the mapper adds
	// a spare-route protection layer so the design survives any single
	// MRR failure (only k=1 is supported). It is part of the content key:
	// protected and unprotected designs never alias.
	FaultTolerance *FaultToleranceSpec `json:"fault_tolerance,omitempty"`
}

// FaultToleranceSpec selects the synthesis protection level.
type FaultToleranceSpec struct {
	K int `json:"k"`
}

// Request is the POST /v1/synthesize body.
type Request struct {
	Network NetworkSpec `json:"network"`
	Options OptionsSpec `json:"options"`
	// DeadlineMS bounds the synthesis run; expiry cancels the engine
	// context and fails the job with 504. Zero uses the server default.
	DeadlineMS int64 `json:"deadlineMS,omitempty"`
	// Async returns 202 + job id immediately instead of waiting for the
	// result; poll GET /v1/jobs/{id} or stream /v1/jobs/{id}/events.
	Async bool `json:"async,omitempty"`
}

// resolved is a validated request in engine terms, ready to hash and
// run: node specs became a noc.Network (nodes sorted by ID), options
// became core.Options plus the sweep mode.
type resolved struct {
	net       *noc.Network
	opt       core.Options
	sweep     bool
	objective core.Objective
	cands     []int
}

// resolve validates the request and normalizes it into engine terms.
// All normalization that must not affect the cache key — node listing
// order, float formatting, duplicate traffic entries, candidate order —
// happens here, before the key is computed.
func (r *Request) resolve() (*resolved, error) {
	out := &resolved{}
	net, err := r.Network.toNetwork()
	if err != nil {
		return nil, err
	}
	out.net = net

	o := r.Options
	switch o.Params {
	case "", "default":
		// core defaults to phys.Default()
	case "tableI":
		p := phys.TableI()
		out.opt.Par = &p
	default:
		return nil, fmt.Errorf("unknown params preset %q (default or tableI)", o.Params)
	}
	if o.MaxWL < 0 || o.MaxWL > net.N() {
		return nil, fmt.Errorf("maxWL %d out of range [0, %d]", o.MaxWL, net.N())
	}
	out.opt.MaxWL = o.MaxWL
	out.opt.WithPDN = o.WithPDN
	out.opt.ShareWavelengths = o.ShareWavelengths
	out.opt.DisableShortcuts = o.DisableShortcuts
	out.opt.NoCSE = o.NoCSE
	out.opt.NoOpenings = o.NoOpenings
	out.opt.DisableConflicts = o.DisableConflicts
	out.opt.NoFallback = o.NoFallback
	if o.FaultTolerance != nil {
		if o.FaultTolerance.K < 0 || o.FaultTolerance.K > 1 {
			return nil, fmt.Errorf("fault_tolerance.k %d out of range [0, 1]", o.FaultTolerance.K)
		}
		out.opt.FaultTolerance = o.FaultTolerance.K
	}

	if len(o.Traffic) > 0 {
		seen := map[noc.Signal]bool{}
		for _, s := range o.Traffic {
			if s.Src < 0 || s.Src >= net.N() || s.Dst < 0 || s.Dst >= net.N() || s.Src == s.Dst {
				return nil, fmt.Errorf("invalid traffic signal %d->%d for %d nodes", s.Src, s.Dst, net.N())
			}
			sig := noc.Signal{Src: s.Src, Dst: s.Dst}
			if !seen[sig] {
				seen[sig] = true
				out.opt.Traffic = append(out.opt.Traffic, sig)
			}
		}
		noc.SortSignals(out.opt.Traffic)
	}

	out.sweep = o.Sweep || o.MaxWL == 0
	if out.sweep {
		switch o.Objective {
		case "min-il":
			out.objective = core.MinWorstIL
		case "", "min-power":
			out.objective = core.MinPower
		case "max-snr":
			out.objective = core.MaxSNR
		default:
			return nil, fmt.Errorf("unknown objective %q (min-il, min-power or max-snr)", o.Objective)
		}
		if len(o.Candidates) > 0 {
			cands := append([]int(nil), o.Candidates...)
			sort.Ints(cands)
			dedup := cands[:0]
			for i, wl := range cands {
				if wl < 1 || wl > net.N() {
					return nil, fmt.Errorf("candidate #wl %d out of range [1, %d]", wl, net.N())
				}
				if i > 0 && wl == cands[i-1] {
					continue
				}
				dedup = append(dedup, wl)
			}
			out.cands = dedup
		}
	}
	return out, nil
}

// maxRequestNodes bounds the floorplan size of every request, checked
// before any node is built: validation is O(N^2) and a Step-1 solve's
// conflict scan O(N^4), so the 8 MiB body limit alone would admit
// floorplans no worker could finish. It is twice the paper's largest
// floorplan (32 nodes).
const maxRequestNodes = 64

// toNetwork builds the validated floorplan. Nodes are sorted by ID, so
// listing order never matters.
func (ns *NetworkSpec) toNetwork() (*noc.Network, error) {
	if ns.Standard != 0 {
		if len(ns.Nodes) > 0 {
			return nil, fmt.Errorf("network: standard and nodes are mutually exclusive")
		}
		return noc.FloorplanFor(ns.Standard)
	}
	if len(ns.Nodes) == 0 {
		return nil, fmt.Errorf("network: no nodes (set standard or nodes)")
	}
	if len(ns.Nodes) > maxRequestNodes {
		return nil, fmt.Errorf("network: %d nodes exceeds the limit of %d", len(ns.Nodes), maxRequestNodes)
	}
	net := &noc.Network{DieW: ns.DieW, DieH: ns.DieH}
	for i, n := range ns.Nodes {
		id := i
		if n.ID != nil {
			id = *n.ID
		}
		name := n.Name
		if name == "" {
			name = fmt.Sprintf("n%d", id)
		}
		net.Nodes = append(net.Nodes, noc.Node{ID: id, Name: name, Pos: geom.Point{X: n.X, Y: n.Y}})
	}
	sort.Slice(net.Nodes, func(i, j int) bool { return net.Nodes[i].ID < net.Nodes[j].ID })
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}
