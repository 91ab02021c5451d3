// Package verify is the signoff suite: it runs every independent check
// the repository can make against a synthesized design — the
// structural validator, the Held-Karp tour bound, the radial-geometry
// identity, channel-packing bounds, laser-power coverage, FSR capacity
// and the crossing-free PDN claims — and reports them DRC-style. It
// exists so that a design (fresh or reloaded from disk) can be audited
// without trusting the code that produced it.
package verify

import (
	"context"
	"fmt"
	"math"

	"xring/internal/geom"
	"xring/internal/loss"
	"xring/internal/pdn"
	"xring/internal/ring"
	"xring/internal/router"
	"xring/internal/spectral"
)

// Check is one verification outcome.
type Check struct {
	Name   string
	Passed bool
	// Skipped marks checks that do not apply to this design (their
	// Passed is true).
	Skipped bool
	Detail  string
}

// Report is the full signoff result.
type Report struct {
	Checks []Check
	// Failed counts non-skipped failures.
	Failed int
}

func (r *Report) add(name string, passed bool, detail string) {
	r.Checks = append(r.Checks, Check{Name: name, Passed: passed, Detail: detail})
	if !passed {
		r.Failed++
	}
}

func (r *Report) skip(name, detail string) {
	r.Checks = append(r.Checks, Check{Name: name, Passed: true, Skipped: true, Detail: detail})
}

// Options configures the optional physical checks.
type Options struct {
	// RingCircumferenceUM and GroupIndex parameterize the FSR capacity
	// check (zero values skip it).
	RingCircumferenceUM float64
	GroupIndex          float64
	// ChannelSpacingGHz for the FSR check (default 100).
	ChannelSpacingGHz float64
}

// Run audits a design. plan may be nil; lrep may be nil (it is then
// recomputed).
func Run(d *router.Design, plan *pdn.Plan, lrep *loss.Report, opt Options) (*Report, error) {
	rep := &Report{}

	// 1. Structural DRC: the validator.
	if err := d.Validate(); err != nil {
		rep.add("structure", false, err.Error())
		return rep, nil // everything else is meaningless on a broken design
	}
	rep.add("structure", true,
		fmt.Sprintf("%d waveguides, %d shortcuts, %d routes", len(d.Waveguides), len(d.Shortcuts), len(d.Routes)))

	// 2. Tour optimality bound (Held-Karp, small N only).
	if d.N() <= 16 {
		hk, err := ring.HeldKarp(d.Net)
		if err == nil {
			ok := d.Perimeter() >= hk-1e-9
			rep.add("tour-bound", ok,
				fmt.Sprintf("tour %.2f mm vs Held-Karp optimum %.2f mm (ratio %.3f)",
					d.Perimeter(), hk, d.Perimeter()/hk))
		} else {
			rep.skip("tour-bound", err.Error())
		}
	} else {
		rep.skip("tour-bound", fmt.Sprintf("N=%d above the Held-Karp limit", d.N()))
	}

	// 3. Radial-geometry identity: RadialScale equals the geometric
	// offset perimeter where the offset is constructible.
	ringPl := d.RingPolyline()
	cycle := geom.CompactRectilinear(ringPl[:len(ringPl)-1])
	spacing := d.Par.RingSpacingMM(d.N())
	maxPair := 0
	for _, w := range d.Waveguides {
		if w.Radial/2 > maxPair {
			maxPair = w.Radial / 2
		}
	}
	if maxPair == 0 {
		rep.skip("radial-geometry", "single ring pair")
	} else {
		checked, ok, detail := 0, true, ""
		for k := 1; k <= maxPair; k++ {
			off, err := geom.OffsetRectilinear(cycle, spacing*float64(k))
			if err != nil {
				detail = fmt.Sprintf("offset %d not constructible (%v); checked %d", k, err, checked)
				break
			}
			want := geom.PolygonPerimeter(off)
			got := d.Perimeter() + 8*spacing*float64(k)
			if math.Abs(got-want) > 1e-6 {
				ok = false
				detail = fmt.Sprintf("pair %d: model %.4f mm vs geometry %.4f mm", k, got, want)
				break
			}
			checked++
		}
		if detail == "" {
			detail = fmt.Sprintf("%d offset pairs match the +8d identity", checked)
		}
		rep.add("radial-geometry", ok, detail)
	}

	// 4. Channel-packing bound: consumed slots cannot be below the
	// max-cut load.
	bound := maxCutLoad(d)
	slots := len(d.Waveguides) * d.MaxWL
	if d.MaxWL == 0 {
		rep.skip("channel-bound", "design has no #wl budget recorded")
	} else {
		ok := slots >= bound
		rep.add("channel-bound", ok,
			fmt.Sprintf("max-cut load %d vs %d slots (%d waveguides x #wl %d)",
				bound, slots, len(d.Waveguides), d.MaxWL))
	}

	// 5. Laser-power coverage.
	if lrep == nil {
		var err error
		lrep, err = loss.AnalyzeCtx(context.Background(), d, plan)
		if err != nil {
			return nil, err
		}
	}
	under := 0
	for _, sl := range lrep.Signals {
		req := math.Pow(10, (sl.IL+sl.PDNLoss+d.Par.ReceiverSensitivityDBm)/10)
		if req > lrep.WavelengthPower[sl.WL]+1e-12 {
			under++
		}
	}
	rep.add("laser-coverage", under == 0,
		fmt.Sprintf("%d of %d signals underpowered", under, len(lrep.Signals)))

	// 6. Crossing-free claims for tree-PDN designs.
	if plan != nil && plan.Kind == pdn.Tree {
		ok := plan.CrossingsAdded == 0 && d.TotalCrossings() == countCSE(d)
		rep.add("crossing-free-pdn", ok,
			fmt.Sprintf("PDN crossings %d, design crossings %d (CSE %d)",
				plan.CrossingsAdded, d.TotalCrossings(), countCSE(d)))
		allOpen := true
		for _, w := range d.Waveguides {
			if w.Opening < 0 {
				allOpen = false
			}
		}
		rep.add("openings", allOpen, "every ring waveguide opened for the PDN")
	} else {
		rep.skip("crossing-free-pdn", "no tree PDN attached")
	}

	// 7. FSR capacity.
	if opt.RingCircumferenceUM > 0 && opt.GroupIndex > 0 {
		sp := opt.ChannelSpacingGHz
		if sp == 0 {
			sp = 100
		}
		p := spectral.Params{Q: 9000, Grid: spectral.Grid{CenterTHz: 193.4, SpacingGHz: sp}}
		capacity, err := spectral.CheckWavelengthCapacity(d, p, opt.RingCircumferenceUM, opt.GroupIndex)
		detail := fmt.Sprintf("%d wavelengths in a %d-channel FSR", d.WavelengthsUsed(), capacity)
		if err != nil {
			detail = err.Error()
		}
		rep.add("fsr-capacity", err == nil, detail)
	} else {
		rep.skip("fsr-capacity", "no ring circumference supplied")
	}

	return rep, nil
}

func countCSE(d *router.Design) int {
	n := 0
	for i, s := range d.Shortcuts {
		if s.Partner > i {
			n++
		}
	}
	return n
}

// maxCutLoad mirrors the mapping package's channel lower bound without
// importing it (verify must stay independent of the synthesis path).
func maxCutLoad(d *router.Design) int {
	n := d.N()
	best := 0
	for _, dir := range [2]router.Direction{router.CW, router.CCW} {
		load := make([]int, n)
		for _, w := range d.Waveguides {
			if w.Dir != dir {
				continue
			}
			for _, c := range w.Channels {
				si := d.TourPos(c.Sig.Src)
				di := d.TourPos(c.Sig.Dst)
				step := 1
				if dir == router.CCW {
					step = n - 1
				}
				for i := si; i != di; i = (i + step) % n {
					e := i
					if dir == router.CCW {
						e = (i + n - 1) % n
					}
					load[e]++
				}
			}
		}
		for _, l := range load {
			if l > best {
				best = l
			}
		}
	}
	return best
}
