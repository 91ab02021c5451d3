// Package oring implements the paper's two ring-router baselines, which
// share one design and differ only in wavelength assignment:
//
//   - ORing [17] (Tables I and III): a well-designed manual ring router
//     with a per-waveguide wavelength budget and shortest-direction
//     mapping with wavelength reuse, but without XRing's shortcuts or
//     ring openings.
//   - ORNoC [10] (Tables I and II): as in the paper's own evaluation
//     (Sec. IV-B), ORNoC contributes only its wavelength-assignment
//     algorithm — aggressive reuse on as few ring waveguides as
//     possible, detouring signals through the longer ring direction
//     rather than adding waveguides. ORNoC never proposed a ring
//     construction or a PDN.
//
// Both build the ring with XRing's Step 1 and use ORing's comb PDN,
// whose feeds must cross ring waveguides to reach the senders — the
// property that costs both baselines crossing loss and first-order
// crosstalk.
package oring

import (
	"xring/internal/mapping"
	"xring/internal/noc"
	"xring/internal/pdn"
	"xring/internal/phys"
	"xring/internal/ring"
	"xring/internal/router"
)

// Result bundles the synthesized baseline.
type Result struct {
	Design   *router.Design
	Plan     *pdn.Plan // nil without a PDN
	Ring     *ring.Result
	MapStats *mapping.Stats
}

// Synthesize builds the ORing baseline for a network with the given
// per-ring wavelength budget. withPDN attaches the comb PDN
// (Table III); without it the router matches the Table I configuration.
func Synthesize(net *noc.Network, par phys.Params, maxWL int, withPDN bool) (*Result, error) {
	return synthesize(net, par, maxWL, withPDN, false)
}

// SynthesizeORNoC builds the ORNoC baseline for a network with the
// given per-ring wavelength budget. withPDN attaches the comb PDN
// (Table II); without it the router matches the Table I configuration.
func SynthesizeORNoC(net *noc.Network, par phys.Params, maxWL int, withPDN bool) (*Result, error) {
	return synthesize(net, par, maxWL, withPDN, true)
}

// synthesize is the shared body; detour selects ORNoC's assignment.
func synthesize(net *noc.Network, par phys.Params, maxWL int, withPDN, detour bool) (*Result, error) {
	rres, err := ring.Construct(net, ring.Options{})
	if err != nil {
		return nil, err
	}
	d, err := router.NewDesign(net, par, rres.Tour, rres.Orders)
	if err != nil {
		return nil, err
	}
	stats, err := mapping.Run(d, mapping.Options{
		MaxWL:         maxWL,
		NoOpenings:    true,
		MaxWaveguides: mapping.WaveguideCap(net, par),
		PreferSharing: true,
		AllowDetour:   detour,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Design: d, Ring: rres, MapStats: stats}
	if withPDN {
		plan, err := pdn.BuildComb(d)
		if err != nil {
			return nil, err
		}
		res.Plan = plan
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return res, nil
}
