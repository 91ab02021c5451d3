// Package perf derives the network-performance figures that motivate
// WRONoCs in the paper's introduction: contention-free links whose
// latency is pure time-of-flight plus conversion overhead, and whose
// aggregate bandwidth is #wavelengths x line rate per concurrent link.
//
// Latency model: light in a silicon waveguide travels at c/n_g with
// group index n_g ≈ 4.2, i.e. ~14 ps/mm; serialization and O/E/O
// conversion add a fixed overhead per hop. WRONoC paths have no
// arbitration and no buffering, so per-signal latency is deterministic.
package perf

import (
	"fmt"
	"math"

	"xring/internal/loss"
	"xring/internal/noc"
	"xring/internal/router"
)

// Params configures the performance model.
type Params struct {
	// GroupIndex of the waveguide mode (silicon strip ≈ 4.2).
	GroupIndex float64
	// LineRateGbps is the per-wavelength modulation rate.
	LineRateGbps float64
	// ConversionPS is the fixed electrical/optical conversion and
	// serialization overhead per signal, in picoseconds.
	ConversionPS float64
}

// DefaultParams returns a 10 Gb/s per wavelength operating point.
func DefaultParams() Params {
	return Params{GroupIndex: 4.2, LineRateGbps: 10, ConversionPS: 100}
}

// speedPSPerMM returns the propagation delay per millimetre.
func (p Params) speedPSPerMM() float64 {
	const cMMPerPS = 0.299792458 // mm per picosecond in vacuum
	return p.GroupIndex / cMMPerPS
}

// Link is one signal's performance figures.
type Link struct {
	Sig noc.Signal
	// LatencyPS is the end-to-end latency in picoseconds.
	LatencyPS float64
	// PathMM is the travelled length.
	PathMM float64
}

// Report is the performance analysis result.
type Report struct {
	Links map[noc.Signal]*Link
	// WorstLatencyPS and MeanLatencyPS summarize the latency
	// distribution; Worst identifies the slowest signal.
	WorstLatencyPS float64
	MeanLatencyPS  float64
	Worst          noc.Signal
	// AggregateGbps is the total concurrent bandwidth: every signal owns
	// its wavelength channel, so all links run at line rate at once.
	AggregateGbps float64
	// BisectionGbps is the bandwidth crossing the tour's best bisection
	// cut (signals whose source and destination fall on opposite sides).
	BisectionGbps float64
}

// Analyze computes per-signal latency and aggregate bandwidth for a
// mapped design, reusing the loss report's exact per-signal path
// lengths.
func Analyze(d *router.Design, lrep *loss.Report, p Params) (*Report, error) {
	if lrep == nil || len(lrep.Sigs) == 0 {
		return nil, fmt.Errorf("perf: loss report required")
	}
	if p.GroupIndex <= 0 || p.LineRateGbps <= 0 {
		return nil, fmt.Errorf("perf: invalid params %+v", p)
	}
	rep := &Report{Links: map[noc.Signal]*Link{}}
	sum := 0.0
	// Canonical signal order: the mean sums in a fixed order and ties for
	// the worst latency go to the first signal.
	for i, sl := range lrep.Losses {
		sig := lrep.Sigs[i]
		l := &Link{
			Sig:       sig,
			PathMM:    sl.PathLen,
			LatencyPS: sl.PathLen*p.speedPSPerMM() + p.ConversionPS,
		}
		rep.Links[sig] = l
		sum += l.LatencyPS
		if l.LatencyPS > rep.WorstLatencyPS {
			rep.WorstLatencyPS = l.LatencyPS
			rep.Worst = sig
		}
	}
	rep.MeanLatencyPS = sum / float64(len(rep.Links))
	rep.AggregateGbps = float64(len(rep.Links)) * p.LineRateGbps

	// Bisection: split the tour into two contiguous halves at the cut
	// minimizing... for bandwidth we take the standard definition with
	// the WORST contiguous halving (min crossing capacity); with
	// all-to-all traffic all cuts are equivalent, with custom traffic
	// they are not.
	n := d.N()
	half := n / 2
	minCross := math.MaxInt
	for start := 0; start < n; start++ {
		inA := map[int]bool{}
		for k := 0; k < half; k++ {
			inA[d.Tour[(start+k)%n]] = true
		}
		cross := 0
		for sig := range rep.Links {
			if inA[sig.Src] != inA[sig.Dst] {
				cross++
			}
		}
		if cross < minCross {
			minCross = cross
		}
	}
	rep.BisectionGbps = float64(minCross) * p.LineRateGbps
	return rep, nil
}
