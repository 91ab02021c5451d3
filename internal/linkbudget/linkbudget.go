// Package linkbudget closes the loop from the synthesized router to
// link-level quality: per-signal power margin, Q-factor and bit error
// rate. It combines the loss analysis (received power vs. receiver
// sensitivity), the paper's first-order same-wavelength crosstalk and,
// optionally, the spectral inter-channel crosstalk extension.
//
// Model: on-off-keyed links dominated by incoherent crosstalk have
// Q ≈ sqrt(SNR_linear) (signal-spontaneous-like beat), and
// BER = erfc(Q/√2)/2. A noise-free link's BER is limited only by its
// power margin against the receiver sensitivity; with the laser sized
// exactly for the worst signal (the paper's power rule), the worst
// signal's margin is 0 dB by construction.
package linkbudget

import (
	"fmt"
	"math"

	"xring/internal/loss"
	"xring/internal/noc"
	"xring/internal/phys"
	"xring/internal/router"
	"xring/internal/spectral"
	"xring/internal/xtalk"
)

// Link is the per-signal budget.
type Link struct {
	Sig noc.Signal
	// ReceivedDBm is the optical power at the photodetector.
	ReceivedDBm float64
	// MarginDB is ReceivedDBm minus the receiver sensitivity.
	MarginDB float64
	// NoiseMW sums first-order and (if supplied) inter-channel noise.
	NoiseMW float64
	// SNRdB combines all noise terms (+Inf when noise-free).
	SNRdB float64
	// QFactor = sqrt(linear SNR); +Inf when noise-free.
	QFactor float64
	// BER = erfc(Q/sqrt 2)/2; 0 when noise-free.
	BER float64
}

// Report is the link-budget analysis result.
type Report struct {
	Links map[noc.Signal]*Link
	// WorstMarginDB is the minimum power margin (0 for the laser-sizing
	// signal, by construction).
	WorstMarginDB float64
	// WorstBER and WorstBERSignal identify the most error-prone link.
	WorstBER       float64
	WorstBERSignal noc.Signal
	// LinksBelow counts links with BER above the target.
	TargetBER  float64
	LinksBelow int
}

// Analyze computes the link budget. xrep is required; srep may be nil
// to exclude inter-channel crosstalk. targetBER sets the LinksBelow
// accounting (e.g. 1e-12).
func Analyze(d *router.Design, lrep *loss.Report, xrep *xtalk.Report, srep *spectral.Report, targetBER float64) (*Report, error) {
	if lrep == nil || xrep == nil {
		return nil, fmt.Errorf("linkbudget: loss and crosstalk reports required")
	}
	if targetBER <= 0 || targetBER >= 1 {
		return nil, fmt.Errorf("linkbudget: target BER %v out of (0,1)", targetBER)
	}
	rep := &Report{
		Links:         map[noc.Signal]*Link{},
		WorstMarginDB: math.Inf(1),
		TargetBER:     targetBER,
	}
	// Canonical signal order: ties for the worst BER go to the first
	// signal.
	for i, sig := range lrep.Sigs {
		sigMW := xrep.SignalMW[i]
		if sigMW <= 0 {
			return nil, fmt.Errorf("linkbudget: no detector power for %v", sig)
		}
		noise := xrep.NoiseMW[i]
		if srep != nil {
			if sn := srep.Signals[sig]; sn != nil {
				noise += sn.InterChannelMW
			}
		}
		l := &Link{
			Sig:         sig,
			ReceivedDBm: phys.LinearToDB(sigMW),
			NoiseMW:     noise,
		}
		l.MarginDB = l.ReceivedDBm - d.Par.ReceiverSensitivityDBm
		l.SNRdB = phys.SNRdB(sigMW, noise)
		if noise <= 0 {
			l.QFactor = math.Inf(1)
			l.BER = 0
		} else {
			l.QFactor = math.Sqrt(sigMW / noise)
			l.BER = 0.5 * math.Erfc(l.QFactor/math.Sqrt2)
		}
		rep.Links[sig] = l
		if l.MarginDB < rep.WorstMarginDB {
			rep.WorstMarginDB = l.MarginDB
		}
		if l.BER > rep.WorstBER {
			rep.WorstBER = l.BER
			rep.WorstBERSignal = sig
		}
		if l.BER > targetBER {
			rep.LinksBelow++
		}
	}
	return rep, nil
}
