// Package explore is the design-space exploration engine: a Grid
// declares the axes of a study (floorplan variants, #wl budgets,
// objectives, shortcut/CSE policies, wavelength-packing on/off), a
// deterministic expansion turns it into Cells, RunCells fans cells
// over the shared worker pool, and a Frontier maintains the incremental
// Pareto frontier of the completed cells.
//
// The package deliberately knows nothing about the HTTP service: a
// cell's floorplan is an opaque JSON network spec and the service layer
// converts each cell into exactly the request it would have accepted on
// /v1/synthesize, so a cell's canonical content key is byte-identical
// to the equivalent standalone request and every cache tier (memory
// LRU, persisted designs, singleflight dedup, the engine's
// floorplan-keyed Step-1 ring cache) amplifies grid throughput for
// free.
package explore

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"strings"
)

// Floorplan is one floorplan axis value. Network is an opaque JSON
// network spec in the service's /v1/synthesize "network" schema
// ({"standard": 8|16|32} or explicit {"nodes": [...], "dieW", "dieH"});
// keeping it opaque here guarantees the service decodes it through the
// exact same path as a standalone request.
type Floorplan struct {
	Name    string          `json:"name,omitempty"`
	Network json.RawMessage `json:"network"`
}

// Policy is one shortcut/CSE policy axis value: a named bundle of the
// engine's ablation switches. Two policies may carry identical switches
// under different names — their cells then share one content key and
// the second is served from cache/dedup, which studies use on purpose
// to measure cache amplification.
type Policy struct {
	Name             string `json:"name,omitempty"`
	DisableShortcuts bool   `json:"disableShortcuts,omitempty"`
	NoCSE            bool   `json:"noCSE,omitempty"`
	NoOpenings       bool   `json:"noOpenings,omitempty"`
	DisableConflicts bool   `json:"disableConflicts,omitempty"`
}

// Grid declares a study: the cross product of every axis. Axes left
// empty default to a single neutral value (one default policy, packing
// off), except Floorplans and Budgets which must be given.
//
// A budget of 0 means "sweep": the cell runs a full #wl sweep under an
// objective instead of a single synthesis at a fixed budget, and the
// Objectives axis applies to exactly those cells (fixed-budget cells
// have no objective — a synthesis at a fixed #wl has nothing to
// optimize across, and multiplying them over objectives would mint
// duplicate cells with identical content keys).
type Grid struct {
	Floorplans []Floorplan `json:"floorplans"`
	// Budgets are maxWL values; 0 expands into sweep cells.
	Budgets []int `json:"budgets"`
	// Objectives for sweep cells: min-il, min-power, max-snr.
	// Defaults to [min-power] when any budget is 0.
	Objectives []string `json:"objectives,omitempty"`
	Policies   []Policy `json:"policies,omitempty"`
	// Share is the wavelength-packing axis (shareWavelengths on/off).
	// Defaults to [false].
	Share []bool `json:"share,omitempty"`
	// WithPDN and Params apply to every cell (they are technology
	// choices, not design axes).
	WithPDN bool   `json:"withPDN,omitempty"`
	Params  string `json:"params,omitempty"`
}

// Cell is one expanded grid point. ID is the human-readable coordinate
// ("<floorplan>/wl<budget>/<policy>/<fresh|share>[/<objective>]"),
// unique within the grid; Index is the deterministic expansion order.
type Cell struct {
	Index     int    `json:"index"`
	ID        string `json:"id"`
	Floorplan int    `json:"floorplan"` // index into Grid.Floorplans
	Budget    int    `json:"budget"`
	Sweep     bool   `json:"sweep,omitempty"`
	Objective string `json:"objective,omitempty"` // sweep cells only
	Policy    Policy `json:"policy"`
	Share     bool   `json:"share,omitempty"`
}

// nameRe restricts axis names to characters that survive cell IDs and
// CSV rows without quoting or escaping.
var nameRe = regexp.MustCompile(`^[A-Za-z0-9._-]+$`)

var knownObjectives = map[string]bool{"min-il": true, "min-power": true, "max-snr": true}

// normalized returns a copy of g with defaulted axes filled in, or an
// error describing the first invalid axis value.
func (g *Grid) normalized() (Grid, error) {
	out := *g
	if len(out.Floorplans) == 0 {
		return out, fmt.Errorf("explore: grid has no floorplans")
	}
	if len(out.Budgets) == 0 {
		return out, fmt.Errorf("explore: grid has no budgets")
	}
	out.Floorplans = append([]Floorplan(nil), g.Floorplans...)
	seenFP := map[string]bool{}
	sweeps := 0
	for i := range out.Floorplans {
		fp := &out.Floorplans[i]
		if fp.Name == "" {
			fp.Name = fmt.Sprintf("fp%d", i)
		}
		if !nameRe.MatchString(fp.Name) {
			return out, fmt.Errorf("explore: floorplan name %q: only [A-Za-z0-9._-] allowed", fp.Name)
		}
		if seenFP[fp.Name] {
			return out, fmt.Errorf("explore: duplicate floorplan name %q", fp.Name)
		}
		seenFP[fp.Name] = true
		if len(fp.Network) == 0 {
			return out, fmt.Errorf("explore: floorplan %q has no network", fp.Name)
		}
	}
	seenWL := map[int]bool{}
	for _, b := range out.Budgets {
		if b < 0 {
			return out, fmt.Errorf("explore: negative budget %d", b)
		}
		if seenWL[b] {
			return out, fmt.Errorf("explore: duplicate budget %d", b)
		}
		seenWL[b] = true
		if b == 0 {
			sweeps++
		}
	}
	if len(out.Objectives) > 0 && sweeps == 0 {
		return out, fmt.Errorf("explore: objectives given but no sweep budget (0) in budgets")
	}
	if len(out.Objectives) == 0 {
		out.Objectives = []string{"min-power"}
	}
	seenObj := map[string]bool{}
	for _, obj := range out.Objectives {
		if !knownObjectives[obj] {
			return out, fmt.Errorf("explore: unknown objective %q (min-il, min-power or max-snr)", obj)
		}
		if seenObj[obj] {
			return out, fmt.Errorf("explore: duplicate objective %q", obj)
		}
		seenObj[obj] = true
	}
	if len(out.Policies) == 0 {
		out.Policies = []Policy{{Name: "default"}}
	}
	out.Policies = append([]Policy(nil), out.Policies...)
	seenPol := map[string]bool{}
	for i := range out.Policies {
		p := &out.Policies[i]
		if p.Name == "" {
			p.Name = fmt.Sprintf("p%d", i)
		}
		if !nameRe.MatchString(p.Name) {
			return out, fmt.Errorf("explore: policy name %q: only [A-Za-z0-9._-] allowed", p.Name)
		}
		if seenPol[p.Name] {
			return out, fmt.Errorf("explore: duplicate policy name %q", p.Name)
		}
		seenPol[p.Name] = true
	}
	if len(out.Share) == 0 {
		out.Share = []bool{false}
	}
	if len(out.Share) > 2 || (len(out.Share) == 2 && out.Share[0] == out.Share[1]) {
		return out, fmt.Errorf("explore: share axis must be [v] or [false, true] variants, got %v", out.Share)
	}
	switch out.Params {
	case "", "default", "tableI":
	default:
		return out, fmt.Errorf("explore: unknown params preset %q (default or tableI)", out.Params)
	}
	return out, nil
}

// Validate checks the grid without expanding it.
func (g *Grid) Validate() error {
	_, err := g.normalized()
	return err
}

// Size validates the grid and returns how many cells Expand would
// return, without expanding it, so a caller can bound a grid before
// allocating its cells. The count saturates at math.MaxInt.
func (g *Grid) Size() (int, error) {
	n, err := g.normalized()
	if err != nil {
		return 0, err
	}
	sweeps := 0
	for _, b := range n.Budgets {
		if b == 0 {
			sweeps++
		}
	}
	size := 1
	for _, f := range []int{len(n.Floorplans), len(n.Policies), len(n.Share),
		len(n.Budgets) - sweeps + sweeps*len(n.Objectives)} {
		if f != 0 && size > math.MaxInt/f {
			return math.MaxInt, nil
		}
		size *= f
	}
	return size, nil
}

// Expand validates the grid and returns its cells in the deterministic
// axis order floorplan → budget → policy → share (→ objective for
// sweep cells). The same grid always expands to the same cell list —
// IDs, indices and all — which is what makes a study's identity and its
// frontier reproducible.
func (g *Grid) Expand() ([]Cell, error) {
	n, err := g.normalized()
	if err != nil {
		return nil, err
	}
	var cells []Cell
	add := func(c Cell) {
		c.Index = len(cells)
		cells = append(cells, c)
	}
	for fi, fp := range n.Floorplans {
		for _, wl := range n.Budgets {
			for _, pol := range n.Policies {
				for _, share := range n.Share {
					base := Cell{Floorplan: fi, Budget: wl, Policy: pol, Share: share}
					if wl == 0 {
						base.Sweep = true
						for _, obj := range n.Objectives {
							c := base
							c.Objective = obj
							c.ID = cellID(fp.Name, wl, pol.Name, share, obj)
							add(c)
						}
						continue
					}
					base.ID = cellID(fp.Name, wl, pol.Name, share, "")
					add(base)
				}
			}
		}
	}
	mGridExpansions.Inc()
	mGridCells.Add(int64(len(cells)))
	return cells, nil
}

func cellID(fp string, wl int, policy string, share bool, objective string) string {
	var b strings.Builder
	b.WriteString(fp)
	if wl == 0 {
		b.WriteString("/sweep/")
	} else {
		fmt.Fprintf(&b, "/wl%d/", wl)
	}
	b.WriteString(policy)
	if share {
		b.WriteString("/share")
	} else {
		b.WriteString("/fresh")
	}
	if objective != "" {
		b.WriteString("/")
		b.WriteString(objective)
	}
	return b.String()
}
