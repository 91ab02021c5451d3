package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is the number of samples a reported tail percentile must
// leave above it.
const minBeyond = 10

// tailLadder lists the percentiles a tail may fall back to, highest
// first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// rankIndex is the nearest-rank index of the p-quantile among n sorted
// samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond is the number of samples above the p-quantile of n samples.
func beyond(n int, p float64) int { return n - rankIndex(n, p) - 1 }

// tailPercentile returns the highest percentile at or below want that
// leaves at least minBeyond of n samples above it, or 0 when even the
// median does not.
func tailPercentile(n int, want float64) float64 {
	for _, p := range tailLadder {
		if p <= want+1e-12 && beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// quantile returns the nearest-rank p-quantile of vals (sorted in place).
func quantile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	return vals[rankIndex(len(vals), p)]
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies collects op latencies and the tail statistics of a run.
type latencies struct {
	ms []float64
}

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, ms(d)) }

// summarize sets p50_ms and tail_ms, and records the tail percentile
// and its sample count in info.
func (l *latencies) summarize(want float64, m map[string]float64, info map[string]any) {
	vals := append([]float64(nil), l.ms...)
	m["p50_ms"] = median(vals)
	p := tailPercentile(len(vals), want)
	if p == 0 {
		p = 0.5
	}
	m["tail_ms"] = quantile(vals, p)
	m["tail.beyond"] = float64(beyond(len(vals), p))
	info["tail_pct"] = p * 100
	info["tail_samples"] = len(vals)
	info["tail_beyond"] = beyond(len(vals), p)
}

// sloFrac is the share of attempted ops that completed OK within limit.
func sloFrac(okLatMS []float64, attempted int, limit time.Duration) float64 {
	if attempted == 0 {
		return 0
	}
	in := 0
	for _, v := range okLatMS {
		if v <= ms(limit) {
			in++
		}
	}
	return float64(in) / float64(attempted)
}

// snrCap is the SNR a noise-free design counts with: XRing designs are
// usually free of first-order crosstalk noise (infinite SNR), and the
// cap keeps the metric finite while any noisy design pulls it down.
const snrCap = 100.0

// quality accumulates the result-quality metrics over a fixed prefix of
// a run's outputs: geometric means of laser power and worst-case
// insertion loss, and the lowest worst-case SNR.
type quality struct {
	logPower, logIL float64
	n               int
	minSNR          float64
}

func newQuality() *quality { return &quality{minSNR: snrCap} }

func (q *quality) add(powerMW, ilDB, snrDB float64) {
	q.logPower += math.Log(powerMW)
	q.logIL += math.Log(ilDB)
	q.n++
	if !math.IsNaN(snrDB) && snrDB < q.minSNR {
		q.minSNR = snrDB
	}
}

func (q *quality) set(m map[string]float64) {
	if q.n == 0 {
		return
	}
	m["power_mw"] = math.Exp(q.logPower / float64(q.n))
	m["il_db"] = math.Exp(q.logIL / float64(q.n))
	m["snr_db"] = q.minSNR
}

// goStats samples the Go runtime's allocation and GC CPU counters so a
// phase's allocation per op and GC CPU share can be reported.
type goStats struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

var goStatNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var g goStats
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = s[2].Value.Float64()
	}
	return g
}

// goDelta sums the Go runtime counters over chosen stretches of a run
// and the ops run in them, so the checks between ops can stay out of the
// per-layer allocation and GC figures.
type goDelta struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
	ops             int
}

func (d *goDelta) add(from, to goStats, ops int) {
	d.allocBytes += to.allocBytes - from.allocBytes
	d.gcCPU += to.gcCPU - from.gcCPU
	d.totalCPU += to.totalCPU - from.totalCPU
	d.ops += ops
}

// set reports go.alloc_mb_per_op and go.gc_cpu_frac.
func (d *goDelta) set(m map[string]float64) {
	if d.ops > 0 {
		m["go.alloc_mb_per_op"] = float64(d.allocBytes) / 1e6 / float64(d.ops)
	}
	if d.totalCPU > 0 {
		m["go.gc_cpu_frac"] = d.gcCPU / d.totalCPU
	}
}

// peakRSSMB reads a process's peak resident set size (VmHWM) from
// /proc; pid "self" names the benchmark process.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// rssSampler samples the benchmark process's resident set size while a
// phase runs. A process's single highest RSS swings from run to run with
// where the garbage collector happens to run against the heap's peaks;
// the median over one-second windows of each window's highest sample is
// the peak the run keeps returning to.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	windows []float64 // highest sample of each whole window, MB
}

const (
	rssEvery  = 10 * time.Millisecond
	rssWindow = time.Second
)

func startRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		start, peak := time.Now(), 0.0
		for {
			select {
			case <-r.stop:
				return
			case now := <-tick.C:
				if v, err := rssMB(); err == nil {
					peak = max(peak, v)
				}
				if now.Sub(start) >= rssWindow {
					r.windows = append(r.windows, peak)
					start, peak = now, 0
				}
			}
		}
	}()
	return r
}

// finish stops the sampler and returns the median windowed peak, or the
// process's lifetime peak when the phase was shorter than a window.
func (r *rssSampler) finish() (float64, error) {
	close(r.stop)
	<-r.done
	if len(r.windows) == 0 {
		return peakRSSMB("self")
	}
	return median(r.windows), nil
}

// rssMB reads the benchmark process's current resident set size.
func rssMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("short /proc/self/statm")
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// commitFingerprint identifies the code under test: the VCS revision
// when the binary was built inside a git checkout, and always a digest
// of the module's Go sources and go.mod under the working directory
// (the benchmark runs from the repository root).
func commitFingerprint() map[string]string {
	out := map[string]string{}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				out["revision"] = s.Value
			case "vcs.modified":
				out["modified"] = s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		out["source"] = "unavailable: " + err.Error()
	} else {
		out["source"] = "sha256:" + hex.EncodeToString(h.Sum(nil))
	}
	return out
}
