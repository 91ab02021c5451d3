// Package sim is a discrete-event transmission simulator for
// synthesized routers. It quantifies the paper's core motivation
// (Sec. I): WRONoCs reserve collision-free wavelength channels at
// design time, so "communications between different network nodes can
// happen simultaneously without wasting energy and time on
// arbitration".
//
// Two service models share one traffic generator:
//
//   - ModeWRONoC: every signal owns its (waveguide, wavelength) channel.
//     Packets queue only behind their own flow's modulator (an M/D/1
//     queue per flow) and then fly to the receiver at the speed of
//     light in the waveguide. No arbitration, no interaction between
//     flows — which is exactly what the synthesized design guarantees
//     (the router validator proves the static channel exclusivity).
//
//   - ModeArbitrated: the same traffic contends for a pool of K shared
//     channels (an electrical-NoC-like arbitrated fabric, or an optical
//     bus with K wavelengths and central arbitration). Packets wait in
//     a global FIFO for a free channel; per-grant arbitration overhead
//     applies. This is the baseline the paper's introduction argues
//     against.
//
// Traffic is Poisson per flow with deterministic packet service times,
// so the WRONoC mode can be validated against the closed-form M/D/1
// waiting time Wq = ρ·S / (2(1−ρ)).
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"xring/internal/loss"
	"xring/internal/noc"
	"xring/internal/perf"
	"xring/internal/router"
)

// Mode selects the service model.
type Mode int

const (
	// ModeWRONoC uses the design's dedicated wavelength channels.
	ModeWRONoC Mode = iota
	// ModeArbitrated contends for a shared channel pool.
	ModeArbitrated
)

func (m Mode) String() string {
	if m == ModeWRONoC {
		return "wronoc"
	}
	return "arbitrated"
}

// Config parameterizes a simulation run.
type Config struct {
	Mode Mode
	// Seed drives the traffic generator (deterministic runs).
	Seed int64
	// LineRateGbps is the per-channel modulation rate.
	LineRateGbps float64
	// PacketBits is the fixed packet size.
	PacketBits int
	// Load is the offered load per flow as a fraction of one channel's
	// line rate (0, 1).
	Load float64
	// SimNS is the simulated time horizon in nanoseconds.
	SimNS float64
	// WarmupNS discards the initial transient from the statistics.
	WarmupNS float64
	// SharedChannels is the channel-pool size for ModeArbitrated
	// (default: the design's wavelength count).
	SharedChannels int
	// ArbitrationNS is the per-grant arbitration overhead for
	// ModeArbitrated.
	ArbitrationNS float64
	// Perf supplies the flight-latency model.
	Perf perf.Params
}

// DefaultConfig returns a 10 Gb/s, 512-bit-packet configuration at the
// given per-flow load.
func DefaultConfig(load float64) Config {
	return Config{
		Seed:          1,
		LineRateGbps:  10,
		PacketBits:    512,
		Load:          load,
		SimNS:         200_000,
		WarmupNS:      20_000,
		ArbitrationNS: 5,
		Perf:          perf.DefaultParams(),
	}
}

// FlowStats aggregates one flow's results.
type FlowStats struct {
	Sig       noc.Signal
	Sent      int
	Delivered int
	// MeanQueueNS is the average wait before the modulator (or the
	// shared-channel grant), MeanTotalNS the full packet latency
	// (queue + serialization + flight).
	MeanQueueNS float64
	MeanTotalNS float64
	// P99TotalNS is the 99th-percentile total latency.
	P99TotalNS float64
	// ThroughputGbps is the delivered goodput after warmup.
	ThroughputGbps float64
}

// Result is a simulation outcome.
type Result struct {
	Mode  Mode
	Flows map[noc.Signal]*FlowStats
	// MeanTotalNS / P99TotalNS aggregate over all delivered packets.
	MeanTotalNS float64
	P99TotalNS  float64
	// DeliveredGbps is the network goodput after warmup.
	DeliveredGbps float64
	// OfferedGbps is the total offered load.
	OfferedGbps float64
	// Saturated reports whether any queue was still growing at the end
	// (offered load above capacity).
	Saturated bool
}

// Run simulates the design under the configuration.
func Run(d *router.Design, lrep *loss.Report, cfg Config) (*Result, error) {
	if lrep == nil || len(lrep.Sigs) == 0 {
		return nil, fmt.Errorf("sim: loss report required (run the analyses first)")
	}
	if cfg.Load <= 0 || cfg.Load >= 1 {
		return nil, fmt.Errorf("sim: load %v out of (0,1)", cfg.Load)
	}
	if cfg.LineRateGbps <= 0 || cfg.PacketBits <= 0 || cfg.SimNS <= 0 {
		return nil, fmt.Errorf("sim: invalid config %+v", cfg)
	}
	if cfg.WarmupNS >= cfg.SimNS {
		return nil, fmt.Errorf("sim: warmup %v >= horizon %v", cfg.WarmupNS, cfg.SimNS)
	}

	serviceNS := float64(cfg.PacketBits) / cfg.LineRateGbps // bits / (bits/ns)
	meanInterNS := serviceNS / cfg.Load
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Flight latency per flow from the loss report's exact path lengths.
	flight := map[noc.Signal]float64{}
	speedPSPerMM := cfg.Perf.GroupIndex / 0.299792458
	for i, sl := range lrep.Losses {
		flight[lrep.Sigs[i]] = (sl.PathLen*speedPSPerMM + cfg.Perf.ConversionPS) / 1000 // ps -> ns
	}
	flows := lrep.Sigs

	switch cfg.Mode {
	case ModeWRONoC:
		return runDedicated(flows, flight, serviceNS, meanInterNS, rng, cfg)
	case ModeArbitrated:
		return runArbitrated(d, flows, flight, serviceNS, meanInterNS, rng, cfg)
	default:
		return nil, fmt.Errorf("sim: unknown mode %d", cfg.Mode)
	}
}

// runDedicated simulates independent M/D/1 queues: WRONoC's dedicated
// channels decouple every flow.
func runDedicated(flows []noc.Signal, flight map[noc.Signal]float64,
	serviceNS, meanInterNS float64, rng *rand.Rand, cfg Config) (*Result, error) {
	res := &Result{Mode: ModeWRONoC, Flows: map[noc.Signal]*FlowStats{}}
	var allTotals []float64
	deliveredBits := 0.0
	for _, sig := range flows {
		fs := &FlowStats{Sig: sig}
		res.Flows[sig] = fs
		var totals []float64
		queueSum := 0.0
		t := 0.0          // arrival clock
		serverFree := 0.0 // modulator free time
		for {
			t += rng.ExpFloat64() * meanInterNS
			if t > cfg.SimNS {
				break
			}
			fs.Sent++
			start := math.Max(t, serverFree)
			serverFree = start + serviceNS
			done := serverFree + flight[sig]
			if t >= cfg.WarmupNS && done <= cfg.SimNS {
				fs.Delivered++
				queueSum += start - t
				totals = append(totals, done-t)
				deliveredBits += float64(cfg.PacketBits)
			}
		}
		if serverFree > cfg.SimNS+10*serviceNS {
			res.Saturated = true
		}
		finalize(fs, totals, queueSum, cfg)
		allTotals = append(allTotals, totals...)
	}
	summarize(res, allTotals, deliveredBits, float64(len(flows)), cfg)
	return res, nil
}

// grantHeap orders pending shared-channel grants by request time.
type event struct {
	at  float64
	idx int // flow index
}
type eventHeap []event

func (h eventHeap) Len() int            { return len(h) }
func (h eventHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// runArbitrated simulates the shared-channel baseline: all arrivals
// join one FIFO served by K channels with per-grant arbitration
// overhead.
func runArbitrated(d *router.Design, flows []noc.Signal, flight map[noc.Signal]float64,
	serviceNS, meanInterNS float64, rng *rand.Rand, cfg Config) (*Result, error) {
	k := cfg.SharedChannels
	if k <= 0 {
		k = d.WavelengthsUsed()
	}
	if k <= 0 {
		return nil, fmt.Errorf("sim: no shared channels")
	}

	// Generate all arrivals up front (per-flow Poisson), then merge.
	arrivals := &eventHeap{}
	heap.Init(arrivals)
	for i := range flows {
		t := rng.ExpFloat64() * meanInterNS
		for t <= cfg.SimNS {
			heap.Push(arrivals, event{at: t, idx: i})
			t += rng.ExpFloat64() * meanInterNS
		}
	}

	res := &Result{Mode: ModeArbitrated, Flows: map[noc.Signal]*FlowStats{}}
	perFlowTotals := make([][]float64, len(flows))
	perFlowQueue := make([]float64, len(flows))
	for i, sig := range flows {
		res.Flows[sig] = &FlowStats{Sig: sig}
		_ = i
	}

	channelFree := make([]float64, k) // next-free time per channel
	var allTotals []float64
	deliveredBits := 0.0
	for arrivals.Len() > 0 {
		ev := heap.Pop(arrivals).(event)
		sig := flows[ev.idx]
		fs := res.Flows[sig]
		fs.Sent++
		// Earliest-free channel.
		ch := 0
		for c := 1; c < k; c++ {
			if channelFree[c] < channelFree[ch] {
				ch = c
			}
		}
		start := math.Max(ev.at, channelFree[ch]) + cfg.ArbitrationNS
		channelFree[ch] = start + serviceNS
		done := channelFree[ch] + flight[sig]
		if ev.at >= cfg.WarmupNS && done <= cfg.SimNS {
			fs.Delivered++
			perFlowQueue[ev.idx] += start - ev.at
			perFlowTotals[ev.idx] = append(perFlowTotals[ev.idx], done-ev.at)
			allTotals = append(allTotals, done-ev.at)
			deliveredBits += float64(cfg.PacketBits)
		}
	}
	for c := 0; c < k; c++ {
		if channelFree[c] > cfg.SimNS+10*serviceNS {
			res.Saturated = true
		}
	}
	for i, sig := range flows {
		finalize(res.Flows[sig], perFlowTotals[i], perFlowQueue[i], cfg)
	}
	summarize(res, allTotals, deliveredBits, float64(len(flows)), cfg)
	return res, nil
}

func finalize(fs *FlowStats, totals []float64, queueSum float64, cfg Config) {
	if fs.Delivered == 0 {
		return
	}
	sum := 0.0
	for _, v := range totals {
		sum += v
	}
	fs.MeanTotalNS = sum / float64(len(totals))
	fs.MeanQueueNS = queueSum / float64(fs.Delivered)
	fs.P99TotalNS = percentile(totals, 0.99)
	window := cfg.SimNS - cfg.WarmupNS
	fs.ThroughputGbps = float64(fs.Delivered) * float64(cfg.PacketBits) / window
}

func summarize(res *Result, allTotals []float64, deliveredBits, nFlows float64, cfg Config) {
	if len(allTotals) > 0 {
		sum := 0.0
		for _, v := range allTotals {
			sum += v
		}
		res.MeanTotalNS = sum / float64(len(allTotals))
		res.P99TotalNS = percentile(allTotals, 0.99)
	}
	window := cfg.SimNS - cfg.WarmupNS
	res.DeliveredGbps = deliveredBits / window
	res.OfferedGbps = nFlows * cfg.Load * cfg.LineRateGbps
}

func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	idx := int(p * float64(len(s)-1))
	return s[idx]
}

// TheoreticalMD1WaitNS returns the closed-form M/D/1 mean waiting time
// for the configuration: Wq = ρ·S / (2(1−ρ)).
func TheoreticalMD1WaitNS(cfg Config) float64 {
	s := float64(cfg.PacketBits) / cfg.LineRateGbps
	return cfg.Load * s / (2 * (1 - cfg.Load))
}
