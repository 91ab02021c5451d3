// Command perfbench is the repository benchmark. One invocation runs
// one named workload in a fresh process, measures it for a fixed number
// of seconds, checks every output, and prints one JSON result line:
//
//	perfbench -workload synth-cold -seed 1 -seconds 15 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with
// -trace 1 the run times the same ops untraced and traced and the result
// carries the per-layer metrics computed from the spans the benchmark
// records around its calls into each layer. README.md in this
// directory documents the workloads and metrics; run.sh builds the
// benchmark and the daemon and runs it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// processStart approximates the process start time: package variables
// are initialized before main runs, right after the runtime starts.
var processStart = time.Now()

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a -trace 0 run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"slo_frac", "fraction"},
	{"power_mw", "mW"},
	{"il_db", "dB"},
	{"snr_db", "dB"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a -trace 1 run reports, on every workload;
// a layer the workload does not exercise reports 0.
var perLayer = []metricDef{
	{"ring.ms", "ms"},
	{"ring.bb_nodes", "count"},
	{"ring.optimal_frac", "fraction"},
	{"shortcut.ms", "ms"},
	{"mapping.ms", "ms"},
	{"mapping.waveguides", "count"},
	{"pdn.ms", "ms"},
	{"validate.ms", "ms"},
	{"loss.ms", "ms"},
	{"xtalk.ms", "ms"},
	{"sweep.candidates", "count"},
	{"sweep.infeasible", "count"},
	{"sweep.par_eff", "fraction"},
	{"faults.scenario_us", "us"},
	{"delta.move_us", "us"},
	{"delta.commit_us", "us"},
	{"designio.save_ms", "ms"},
	{"designio.bytes", "bytes"},
	{"svc.decode_us", "us"},
	{"svc.key_us", "us"},
	{"svc.encode_us", "us"},
	{"svc.hit_ms", "ms"},
	{"svc.miss_ms", "ms"},
	{"svc.design_get_ms", "ms"},
	{"svc.whatif_ms", "ms"},
	{"svc.explore_ms", "ms"},
	{"svc.queue_wait_ms", "ms"},
	{"svc.engine_ms", "ms"},
	{"svc.hit_frac", "fraction"},
	{"svc.persist_hits", "count"},
	{"svc.dedup_hits", "count"},
	{"svc.rejected", "count"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_cpu_frac", "fraction"},
	{"residual_frac", "fraction"},
	{"gen.late_p99_ms", "ms"},
	{"trace.overhead_frac", "fraction"},
	{"fail_frac", "fraction"},
	{"degraded_frac", "fraction"},
	{"tail.beyond", "count"},
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	xringd   string // daemon binary, for service-mix
	workdir  string // scratch directory: daemon persist dirs, span files
}

// report is what a workload run hands back to main.
type report struct {
	attempted, failed int
	// problems lists failed output checks; any entry makes the run
	// incorrect.
	problems []string
	metrics  map[string]float64
	// info is printed in the fingerprint line: digests, tail
	// percentile and sample count, offered rate, span file.
	info map[string]any
}

// failure records the first few reasons ops failed, for the
// fingerprint line.
func (r *report) failure(reason string) {
	f, _ := r.info["failures"].([]string)
	if len(f) < 5 {
		r.info["failures"] = append(f, reason)
	}
}

func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, cfg config) (*report, error){
	"synth-cold":  runSynthCold,
	"sweep-warm":  runSweepWarm,
	"replay":      runReplay,
	"service-mix": runServiceMix,
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: synth-cold, sweep-warm, replay or service-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measurement time")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.StringVar(&cfg.xringd, "xringd", "", "xringd binary (service-mix)")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/run", "scratch directory")
	flag.Parse()
	cfg.trace = trace == 1

	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n",
			cfg.workload, cfg.seconds, trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// A run that cannot finish in time is a failed run: the deadline
	// cancels the workload, which stops any daemon it started.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	rep, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		cancel()
		os.Exit(1)
	}
	res, fp := assemble(cfg, rep)
	line, err := json.Marshal(fp)
	if err == nil {
		fmt.Println(string(line))
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		cancel()
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		cancel()
		os.Exit(1)
	}
}

// assemble turns a workload report into the result line and the
// fingerprint line printed before it.
func assemble(cfg config, rep *report) (result, map[string]any) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{
		Correct:   len(rep.problems) == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]resultMetric{},
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if !cfg.trace {
				rep.problem("end-to-end metric %s missing or not finite (%v)", d.name, v)
				res.Correct = false
			}
			v = 0
		}
		res.Metrics[d.name] = resultMetric{Value: v, Unit: d.unit}
	}
	fp := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commitFingerprint(),
	}
	keys := make([]string, 0, len(rep.info))
	for k := range rep.info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fp[k] = rep.info[k]
	}
	return res, map[string]any{"fingerprint": fp}
}
