package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for n := 1; n <= 5000; n++ {
		for _, want := range []float64{0.99, 0.9} {
			p := tailPercentile(n, want)
			if p == 0 {
				if beyond(n, 0.5) >= minBeyond {
					t.Fatalf("n=%d want p%v: no percentile chosen although the median leaves %d beyond", n, want*100, beyond(n, 0.5))
				}
				continue
			}
			if p > want {
				t.Fatalf("n=%d: chose p%v above the requested p%v", n, p*100, want*100)
			}
			if b := beyond(n, p); b < minBeyond {
				t.Fatalf("n=%d: p%v leaves %d samples beyond, want >= %d", n, p*100, b, minBeyond)
			}
			// It is the highest such percentile.
			for _, q := range tailLadder {
				if q > p && q <= want && beyond(n, q) >= minBeyond {
					t.Fatalf("n=%d: chose p%v but p%v also leaves %d beyond", n, p*100, q*100, beyond(n, q))
				}
			}
		}
	}
	if p := tailPercentile(100, 0.9); p != 0.9 {
		t.Errorf("100 samples: p%v, want p90", p*100)
	}
	if p := tailPercentile(1000, 0.99); p != 0.99 {
		t.Errorf("1000 samples: p%v, want p99", p*100)
	}
	if p := tailPercentile(999, 0.99); p != 0.95 {
		t.Errorf("999 samples: p%v, want p95", p*100)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	ctx := context.Background()
	gen := func(seed int64) ([]*warmKey, []svcReq, []float64) {
		warm, err := warmSet(ctx, seed)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := genRequests(ctx, seed, "svc-open", 100, warm)
		if err != nil {
			t.Fatal(err)
		}
		return warm, reqs, slottedSchedule(rngFor(seed, "svc-schedule", 0), serviceRate, 2)
	}
	w1, r1, s1 := gen(7)
	w2, r2, s2 := gen(7)
	for i := range w1 {
		if w1[i].key != w2[i].key || !reflect.DeepEqual(w1[i].bodies, w2[i].bodies) {
			t.Fatalf("warm key %d differs between two draws of seed 7", i)
		}
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("open-loop schedules differ between two draws of seed 7")
	}
	kinds := map[reqKind]int{}
	for i := range r1 {
		a, b := r1[i], r2[i]
		if a.kind != b.kind || a.path != b.path || a.key != b.key || !bytes.Equal(a.body, b.body) || a.inject != b.inject {
			t.Fatalf("request %d differs between two draws of seed 7", i)
		}
		kinds[a.kind]++
	}
	// The shares hold exactly over whole blocks of the mix.
	for _, m := range requestMix {
		if want := int(math.Round(m.share * 100)); kinds[m.kind] != want {
			t.Errorf("100 requests hold %d %s requests, want %d", kinds[m.kind], kindNames[m.kind], want)
		}
	}
	for i := 0; i < 3; i++ {
		a, b := irregular(21, subSeed(7, "synth-cold", i)), irregular(21, subSeed(7, "synth-cold", i))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("floorplan %d differs between two draws of seed 7", i)
		}
	}
	w3, r3, s3 := gen(8)
	sameRequests := true
	for i := range r1 {
		if r1[i].kind != r3[i].kind || !bytes.Equal(r1[i].body, r3[i].body) {
			sameRequests = false
		}
	}
	if bytes.Equal(w3[0].bodies[1], w1[0].bodies[1]) || sameRequests || reflect.DeepEqual(s3, s1) {
		t.Error("seeds 7 and 8 draw the same inputs")
	}
}

func TestRespelledRequestsShareCanonicalKey(t *testing.T) {
	net := irregular(16, subSeed(3, "respell", 0))
	want, err := keyOf(synthBody(net, 4, spelling{}))
	if err != nil {
		t.Fatal(err)
	}
	rng := rngFor(3, "respell", 1)
	for i := 0; i < 20; i++ {
		sp := respelling(rng, net.N())
		body := synthBody(net, 4, sp)
		if bytes.Equal(body, synthBody(net, 4, spelling{})) {
			t.Fatalf("respelling %d is the canonical body", i)
		}
		got, err := keyOf(body)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("respelling %d maps to %s, canonical body to %s", i, got, want)
		}
	}
	other, err := keyOf(synthBody(net, 8, spelling{}))
	if err != nil {
		t.Fatal(err)
	}
	if other == want {
		t.Error("different #wl budgets share a key")
	}
}

func TestDigestComparatorFlagsOneByteChange(t *testing.T) {
	outputs := [][]byte{[]byte(`{"design":1}`), bytes.Repeat([]byte("x"), 4096), []byte("report")}
	var want, got []opDigest
	for _, o := range outputs {
		want = append(want, digestOf(o))
	}
	for _, o := range outputs {
		got = append(got, digestOf(append([]byte(nil), o...)))
	}
	// The checked ops need not be contiguous: an op that failed is left
	// out, and the comparator names ops by their index in the run.
	ops := []int{0, 2, 5}
	if err := compareDigests(ops, got, want); err != nil {
		t.Fatalf("identical outputs: %v", err)
	}
	for op := range outputs {
		for _, at := range []int{0, len(outputs[op]) - 1} {
			changed := append([]byte(nil), outputs[op]...)
			changed[at] ^= 1
			got := append([]opDigest(nil), want...)
			got[op] = digestOf(changed)
			err := compareDigests(ops, got, want)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("op %d ", ops[op])) {
				t.Fatalf("byte %d of op %d changed: comparator says %v", at, ops[op], err)
			}
			if orderedDigest(got) == orderedDigest(want) {
				t.Fatalf("byte %d of op %d changed: ordered digest unchanged", at, op)
			}
		}
	}
	swapped := []opDigest{want[1], want[0], want[2]}
	if orderedDigest(swapped) == orderedDigest(want) {
		t.Error("reordered outputs keep the ordered digest")
	}
	if compareDigests(ops, want[:2], want) == nil {
		t.Error("a missing op passes the comparator")
	}
}

// An op that errors or fails its output check counts as failed, and the
// ops checked after it are recomputed under their own indices.
func TestFailedOpsAndDigestIndices(t *testing.T) {
	out := func(i int) *libOut { return &libOut{digest: digestOf([]byte{byte(i)}), power: 1, il: 1, snr: 1} }
	c := &libCase{
		qualityOps: 4,
		run: func(ctx context.Context, i int, tr *tracer, alt bool) (any, time.Duration, error) {
			if i == 2 && !alt {
				return nil, 0, fmt.Errorf("op 2 errors")
			}
			return i, time.Millisecond, nil
		},
		post: func(ctx context.Context, i int, v any, tr *tracer) (*libOut, error) {
			if i == 1 {
				return nil, fmt.Errorf("op 1 fails its check")
			}
			return out(v.(int)), nil
		},
	}
	rep := &report{metrics: map[string]float64{}, info: map[string]any{}}
	ph := c.measure(context.Background(), 0, 4, rep)
	if ph.attempted != 4 || ph.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 4 and 2", ph.attempted, ph.failed)
	}
	if !reflect.DeepEqual(ph.digestOps, []int{0, 3}) {
		t.Fatalf("checked ops %v, want [0 3]", ph.digestOps)
	}
	if len(rep.problems) != 1 {
		t.Fatalf("problems %v, want the one failed check", rep.problems)
	}
	c.reference(context.Background(), ph, true, rep)
	if len(rep.problems) != 1 {
		t.Fatalf("reference of ops 0 and 3 reports %v", rep.problems[1:])
	}
}

func TestSelfTimeAndResidual(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.rootAt(0, "op", at(0))
	a := tr.beginAt(root, "ring", at(0))
	tr.endAt(a, at(40))
	fan := tr.beginAt(root, "sweep.fanout", at(40))
	// Two candidates in parallel, overlapping from 50 to 60.
	c1 := tr.beginAt(fan, "sweep.candidate", at(40))
	tr.endAt(c1, at(60))
	c2 := tr.beginAt(fan, "sweep.candidate", at(50))
	tr.endAt(c2, at(80))
	tr.endAt(fan, at(90))
	tr.endAt(root, at(100))
	s := tr.summarize()
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-6 }
	if got := s.meanSelfMS("sweep.fanout"); !near(got, 10) {
		t.Errorf("fanout self time %v ms, want 10 (50 ms span, 40 ms covered by its children)", got)
	}
	if got := s.meanSelfMS("sweep.candidate"); !near(got, 25) {
		t.Errorf("candidate mean self time %v ms, want 25", got)
	}
	if got := s.stagedMS(); !near(got, 90) {
		t.Errorf("staged time %v ms, want 90 (10 of 100 ms outside the named stages)", got)
	}
}

// BENCHMARK.json at the repository root names the metrics this program
// prints; the two must not drift apart.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to this directory:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }) {
		if len(defs) != len(listed) {
			t.Errorf("%s: program prints %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(listed))
		}
		for i := range min(len(defs), len(listed)) {
			if defs[i].name != listed[i].Name || defs[i].unit != listed[i].Unit {
				t.Errorf("%s %d: program %s [%s], BENCHMARK.json %s [%s]",
					kind, i, defs[i].name, defs[i].unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	var names, want []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
}
