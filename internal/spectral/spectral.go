// Package spectral extends the paper's first-order crosstalk model with
// the wavelength-resolved (inter-channel) analysis of its reference
// [14] (Nikdast et al.): microring resonators are not ideal filters —
// they are Lorentzian — so a signal on wavelength λj passing a receiver
// MRR tuned to the *adjacent* channel λi partially couples into that
// receiver's photodetector. Photodetectors are broadband, so this
// incoherent leakage degrades the received signal even though it lives
// on a different wavelength. The paper's SNR definition deliberately
// excludes it (only same-wavelength noise is counted); this package
// quantifies how much margin that exclusion hides, and lets users pick
// a channel spacing and ring quality factor where it is justified.
//
// Model: an add-drop MRR with quality factor Q at centre frequency f0
// has a full-width-half-maximum FWHM = f0/Q and a Lorentzian drop-port
// power response
//
//	D(δ) = (FWHM/2)² / (δ² + (FWHM/2)²)
//
// for detuning δ from resonance; the through port carries 1 − D(δ)
// (loss handled separately by the loss engine). Channels sit on a
// regular grid around 193.4 THz (1550 nm).
package spectral

import (
	"fmt"
	"math"

	"xring/internal/loss"
	"xring/internal/noc"
	"xring/internal/phys"
	"xring/internal/router"
)

// Grid is a regular wavelength (frequency) grid.
type Grid struct {
	// CenterTHz is the grid centre frequency (1550 nm band ≈ 193.4).
	CenterTHz float64
	// SpacingGHz is the channel spacing (DWDM standard: 100 or 50).
	SpacingGHz float64
}

// DetuningGHz returns the frequency distance between channels i and j.
func (g Grid) DetuningGHz(i, j int) float64 {
	return math.Abs(float64(i-j)) * g.SpacingGHz
}

// MRR is a microring resonator filter.
type MRR struct {
	// FWHMGHz is the full-width-half-maximum of the Lorentzian.
	FWHMGHz float64
}

// MRRForQ builds the filter for a ring with quality factor q on grid g.
func MRRForQ(q float64, g Grid) MRR {
	return MRR{FWHMGHz: g.CenterTHz * 1000 / q}
}

// Drop returns the power fraction coupled to the drop port at the given
// detuning.
func (m MRR) Drop(detuningGHz float64) float64 {
	h := m.FWHMGHz / 2
	return h * h / (detuningGHz*detuningGHz + h*h)
}

// Through returns the power fraction continuing on the bus waveguide.
func (m MRR) Through(detuningGHz float64) float64 {
	return 1 - m.Drop(detuningGHz)
}

// Params configures the spectral analysis.
type Params struct {
	// Q is the loaded quality factor of the receiver rings.
	Q float64
	// Grid is the channel grid.
	Grid Grid
}

// DefaultParams returns a typical silicon-photonics operating point:
// Q = 9000 rings on a 100 GHz DWDM grid.
func DefaultParams() Params {
	return Params{
		Q:    9000,
		Grid: Grid{CenterTHz: 193.4, SpacingGHz: 100},
	}
}

// SignalNoise is the spectral-noise breakdown for one signal.
type SignalNoise struct {
	Sig noc.Signal
	// InterChannelMW is the incoherent power from OTHER channels
	// coupled into this signal's photodetector (mW).
	InterChannelMW float64
	// SelfMW is this signal's received power (mW), after its own MRR's
	// finite drop efficiency at zero detuning (= 1 for a Lorentzian).
	SelfMW float64
	// SNRdB = 10 log10(SelfMW / InterChannelMW).
	SNRdB float64
	// Contributors counts the channels that leak into this detector.
	Contributors int
}

// Report is the spectral crosstalk analysis result.
type Report struct {
	Signals map[noc.Signal]*SignalNoise
	// WorstSNR is the minimum spectral SNR across all signals (dB).
	WorstSNR float64
	Worst    noc.Signal
	// MeanSNR averages the per-signal SNRs (dB) for signals with any
	// contributor.
	MeanSNR float64
	// FWHMGHz echoes the ring linewidth used.
	FWHMGHz float64
	// AdjacentIsolationDB is the drop-port suppression of the nearest
	// neighbouring channel: 10 log10 D(spacing).
	AdjacentIsolationDB float64
}

// Analyze computes inter-channel crosstalk for every ring signal of a
// design. lrep must come from loss.AnalyzeCtx on the same design. Shortcut
// channels have dedicated waveguides with at most a handful of
// wavelengths and are treated the same way.
func Analyze(d *router.Design, lrep *loss.Report, p Params) (*Report, error) {
	return AnalyzeWithDrift(d, lrep, p, 0)
}

// AnalyzeWithDrift evaluates the design under a worst-case thermal
// detuning between every receiver ring and its channel: silicon rings
// red-shift by roughly 10 GHz/K, so uncompensated temperature gradients
// detune receivers from their own channel (reducing received power by
// D(drift)) and toward neighbouring channels (raising their leakage,
// modelled worst-case as |k·spacing| − drift). driftGHz = 0 reduces to
// Analyze.
func AnalyzeWithDrift(d *router.Design, lrep *loss.Report, p Params, driftGHz float64) (*Report, error) {
	if driftGHz < 0 {
		return nil, fmt.Errorf("spectral: negative drift %v", driftGHz)
	}
	if lrep == nil || len(lrep.Sigs) == 0 {
		return nil, fmt.Errorf("spectral: loss report required")
	}
	if p.Q <= 0 || p.Grid.SpacingGHz <= 0 || p.Grid.CenterTHz <= 0 {
		return nil, fmt.Errorf("spectral: invalid parameters %+v", p)
	}
	mrr := MRRForQ(p.Q, p.Grid)
	rep := &Report{
		Signals:             map[noc.Signal]*SignalNoise{},
		WorstSNR:            math.Inf(1),
		FWHMGHz:             mrr.FWHMGHz,
		AdjacentIsolationDB: phys.LinearToDB(mrr.Drop(p.Grid.SpacingGHz)),
	}

	// Arrival power of a channel at any point near the end of its path:
	// conservatively its power just before the final drop.
	arrival := func(sig noc.Signal) float64 {
		sl := lrep.Signal(sig)
		return lrep.WavelengthPower[sl.WL] * phys.DBToLinear(-(sl.PDNLoss + sl.ILBeforeDrop))
	}
	// Worst-case thermal shift: the receiver moves toward the
	// interferer (and away from its own channel).
	effDet := func(det float64) float64 {
		e := det - driftGHz
		if e < 0 {
			e = -e
		}
		return e
	}

	// Ring waveguides: every channel whose arc passes (or ends at) a
	// node traverses that node's receiver bank.
	for _, w := range d.Waveguides {
		for _, rc := range w.Channels { // rc: the receiving channel
			sn := rep.Signals[rc.Sig]
			if sn == nil {
				sn = &SignalNoise{Sig: rc.Sig, SelfMW: arrival(rc.Sig) * mrr.Drop(driftGHz)}
				rep.Signals[rc.Sig] = sn
			}
			for _, oc := range w.Channels { // oc: a passing channel
				if oc.Sig == rc.Sig {
					continue
				}
				passes := d.PassesNode(oc.Sig.Src, oc.Sig.Dst, rc.Sig.Dst, w.Dir) ||
					oc.Sig.Dst == rc.Sig.Dst
				if !passes {
					continue
				}
				det := p.Grid.DetuningGHz(rc.WL, oc.WL)
				if det == 0 {
					// Same wavelength: the paper's first-order engine
					// (package xtalk) owns this case.
					continue
				}
				sn.InterChannelMW += arrival(oc.Sig) * mrr.Drop(effDet(det))
				sn.Contributors++
			}
		}
	}
	// Shortcut channels: all channels of a shortcut pair share two
	// waveguide ends; receivers see the other channels' leakage.
	for si, s := range d.Shortcuts {
		group := s.Channels
		if s.Partner > si {
			group = append(append([]router.ShortcutChannel{}, group...),
				d.Shortcuts[s.Partner].Channels...)
		}
		for _, rc := range s.Channels {
			sn := rep.Signals[rc.Sig]
			if sn == nil {
				sn = &SignalNoise{Sig: rc.Sig, SelfMW: arrival(rc.Sig) * mrr.Drop(driftGHz)}
				rep.Signals[rc.Sig] = sn
			}
			for _, oc := range group {
				if oc.Sig == rc.Sig {
					continue
				}
				det := p.Grid.DetuningGHz(rc.WL, oc.WL)
				if det == 0 {
					continue
				}
				sn.InterChannelMW += arrival(oc.Sig) * mrr.Drop(effDet(det))
				sn.Contributors++
			}
		}
	}

	// Summaries, in signal order: the float sum and the first of tied
	// worst signals must not depend on map iteration order.
	sigs := make([]noc.Signal, 0, len(rep.Signals))
	for sig := range rep.Signals {
		sigs = append(sigs, sig)
	}
	noc.SortSignals(sigs)
	sum, cnt := 0.0, 0
	for _, sig := range sigs {
		sn := rep.Signals[sig]
		sn.SNRdB = phys.SNRdB(sn.SelfMW, sn.InterChannelMW)
		if sn.Contributors > 0 {
			sum += sn.SNRdB
			cnt++
		}
		if sn.SNRdB < rep.WorstSNR {
			rep.WorstSNR = sn.SNRdB
			rep.Worst = sig
		}
	}
	if cnt > 0 {
		rep.MeanSNR = sum / float64(cnt)
	} else {
		rep.MeanSNR = math.Inf(1)
	}
	return rep, nil
}

// MinSpacingForSNR returns the smallest channel spacing (GHz, in whole
// grid steps of `stepGHz`) at which the design achieves the target
// worst-case spectral SNR, or an error when even `maxGHz` is not
// enough. It re-runs Analyze over a spacing sweep — a design-space
// exploration helper for choosing the DWDM grid.
func MinSpacingForSNR(d *router.Design, lrep *loss.Report, q, targetDB, stepGHz, maxGHz float64) (float64, error) {
	for spacing := stepGHz; spacing <= maxGHz+1e-9; spacing += stepGHz {
		p := Params{Q: q, Grid: Grid{CenterTHz: 193.4, SpacingGHz: spacing}}
		rep, err := Analyze(d, lrep, p)
		if err != nil {
			return 0, err
		}
		if rep.WorstSNR >= targetDB {
			return spacing, nil
		}
	}
	return 0, fmt.Errorf("spectral: target %0.1f dB unreachable within %.0f GHz spacing", targetDB, maxGHz)
}

// FSRGHz returns the free spectral range of a ring resonator with the
// given circumference (µm): FSR = c / (n_g · L). All wavelength
// channels routed by one physical ring must fit inside one FSR, or the
// ring resonates with more than one of them.
func FSRGHz(circumferenceUM, groupIndex float64) float64 {
	if circumferenceUM <= 0 || groupIndex <= 0 {
		return 0
	}
	const cUMGHz = 299792458e-3 // speed of light in µm·GHz
	return cUMGHz / (groupIndex * circumferenceUM)
}

// MaxChannels returns how many grid channels fit in one FSR.
func MaxChannels(fsrGHz, spacingGHz float64) int {
	if spacingGHz <= 0 {
		return 0
	}
	return int(fsrGHz / spacingGHz)
}

// CheckWavelengthCapacity verifies that the design's wavelength count
// fits inside the FSR of rings with the given circumference (µm) and
// group index. It returns the capacity and an error when the design
// exceeds it — the physical feasibility check for the #wl setting.
func CheckWavelengthCapacity(d *router.Design, p Params, circumferenceUM, groupIndex float64) (int, error) {
	capacity := MaxChannels(FSRGHz(circumferenceUM, groupIndex), p.Grid.SpacingGHz)
	used := d.WavelengthsUsed()
	if used > capacity {
		return capacity, fmt.Errorf("spectral: %d wavelengths used but only %d fit in the %.0f GHz FSR of a %.0f µm ring",
			used, capacity, FSRGHz(circumferenceUM, groupIndex), circumferenceUM)
	}
	return capacity, nil
}

// MaxDriftForSNR returns the largest thermal detuning (GHz, in steps of
// stepGHz) the design tolerates while keeping the target worst-case
// spectral SNR — its thermal budget. Divide by ~10 GHz/K for a
// temperature budget.
func MaxDriftForSNR(d *router.Design, lrep *loss.Report, p Params, targetDB, stepGHz, maxGHz float64) (float64, error) {
	ok := -1.0
	for drift := 0.0; drift <= maxGHz+1e-9; drift += stepGHz {
		rep, err := AnalyzeWithDrift(d, lrep, p, drift)
		if err != nil {
			return 0, err
		}
		if rep.WorstSNR < targetDB {
			break
		}
		ok = drift
	}
	if ok < 0 {
		return 0, fmt.Errorf("spectral: target %.1f dB unmet even without drift", targetDB)
	}
	return ok, nil
}
