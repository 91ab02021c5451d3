package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Root spans
// (Parent -1) are whole ops; every span of an op carries the op's id.
type span struct {
	Name    string  `json:"name"`
	Op      int     `json:"op"`
	Parent  int     `json:"parent"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory for the length of a run. A nil *tracer
// records nothing, so untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) float64 {
	return float64(at.Sub(t.epoch)) / float64(time.Microsecond)
}

// root opens the root span of op and returns its id.
func (t *tracer) root(op int, name string) int {
	if t == nil {
		return -1
	}
	return t.open(op, -1, name, time.Now())
}

// rootAt opens a root span that started at a given time (an open-loop
// request is timed from its scheduled send time).
func (t *tracer) rootAt(op int, name string, at time.Time) int {
	if t == nil {
		return -1
	}
	return t.open(op, -1, name, at)
}

// begin opens a child span of parent and returns its id.
func (t *tracer) begin(parent int, name string) int {
	if t == nil || parent < 0 {
		return -1
	}
	now := time.Now()
	t.mu.Lock()
	op := t.spans[parent].Op
	t.mu.Unlock()
	return t.open(op, parent, name, now)
}

// beginAt is begin with an explicit start time.
func (t *tracer) beginAt(parent int, name string, at time.Time) int {
	if t == nil || parent < 0 {
		return -1
	}
	t.mu.Lock()
	op := t.spans[parent].Op
	t.mu.Unlock()
	return t.open(op, parent, name, at)
}

func (t *tracer) open(op, parent int, name string, at time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, StartUS: t.since(at)})
	return len(t.spans) - 1
}

// end closes span id now.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.endAt(id, time.Now())
}

func (t *tracer) endAt(id int, at time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].EndUS = t.since(at)
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStats is the per-name aggregate of a trace.
type layerStats struct {
	calls  int
	selfUS float64 // summed self time
	durUS  float64 // summed duration
}

// traceSummary is what the per-layer metrics are computed from.
type traceSummary struct {
	layers map[string]*layerStats
	// rootUS and residualUS sum over the root spans named "op": the ops'
	// durations and the part of them no child span covers.
	rootUS, residualUS float64
	roots              int
}

// covered returns the length of the union of intervals, clipped to
// [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curLo, curHi := 0.0, 0.0, 0.0
	open := false
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// summarize computes each span name's self time (its duration minus the
// part of it its children cover) and each op's residual (the part of
// the root span that no named stage accounts for).
func (t *tracer) summarize() *traceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][][2]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.StartUS, s.EndUS})
		}
	}
	sum := &traceSummary{layers: map[string]*layerStats{}}
	for i, s := range t.spans {
		dur := s.EndUS - s.StartUS
		self := dur - covered(children[i], s.StartUS, s.EndUS)
		ls := sum.layers[s.Name]
		if ls == nil {
			ls = &layerStats{}
			sum.layers[s.Name] = ls
		}
		ls.calls++
		ls.selfUS += self
		ls.durUS += dur
		if s.Parent < 0 && s.Name == "op" {
			sum.roots++
			sum.rootUS += dur
			sum.residualUS += self
		}
	}
	return sum
}

// meanSelfMS is the mean self time per call of the named spans, in ms.
func (s *traceSummary) meanSelfMS(name string) float64 {
	ls := s.layers[name]
	if ls == nil || ls.calls == 0 {
		return 0
	}
	return ls.selfUS / 1000 / float64(ls.calls)
}

func (s *traceSummary) calls(name string) int {
	if ls := s.layers[name]; ls != nil {
		return ls.calls
	}
	return 0
}

func (s *traceSummary) totalMS(name string) float64 {
	if ls := s.layers[name]; ls != nil {
		return ls.durUS / 1000
	}
	return 0
}

// stagedMS is the time the named stages account for, summed over the
// ops: each op's duration minus the part no child span covers.
func (s *traceSummary) stagedMS() float64 { return (s.rootUS - s.residualUS) / 1000 }
