// Command perfbench is the repository benchmark. It drives the Pascal
// compiler, the parallel pool, the worker fleet and a real pagd
// process only through their public entry points, times those calls
// from outside, checks every compiled program byte for byte against a
// reference computed in setup by the simulated cluster, and prints one
// JSON result line.
//
// Run it from the repository root through run.sh, which builds this
// package and cmd/pagd first:
//
//	sh perfbench/run.sh --workload cold-course --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, their
// timings scaled to the design machine's speed by a calibration the
// benchmark runs in a child process between jobs (see calib.go); with
// --trace 1 every other job runs with the benchmark's own span recorder
// on, and the result holds the per-layer metrics. A report line with
// every metric, its unit and its sample count precedes the result line.
// provenance.json records why each workload exists and how it is run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	pagd     string // pagd binary, for service-mix
	workdir  string // scratch directory inside the checkout
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config) (*outcome, error){
	"cold-course": runCold,
	"edit-loop":   runEdit,
	"service-mix": runMix,
	"fleet-http":  runFleet,
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports with --trace 0; the
// same list, with bounds, is BENCHMARK.json's end_to_end.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_jobs_s", "jobs/s"},
	{"peak_rss_mb", "MiB"},
	{"code_bytes", "bytes"},
}

// perLayer are the metrics every workload reports with --trace 1
// (BENCHMARK.json's per_layer). A layer a workload bypasses reads 0.
// The last group holds the end-to-end figures that only some
// workloads define, taken from the untraced half of the traced run.
var perLayer = []metricDef{
	{"pascal.parse_ms", "ms"},
	{"pascal.parse_mb_s", "MB/s"},
	{"pascal.tree_kb", "KiB"},
	{"ag.analyze_ms", "ms"},
	{"tree.clone_ms", "ms"},
	{"tree.decompose_ms", "ms"},
	{"tree.digests_ms", "ms"},
	{"tree.balance", "ratio"},
	{"eval.static_ms", "ms"},
	{"eval.instances", "count"},
	{"eval.dynamic_frac", "fraction"},
	{"eval.graph_nodes", "count"},
	{"parallel.queue_ms", "ms"},
	{"parallel.split_ms", "ms"},
	{"parallel.plan_ms", "ms"},
	{"parallel.eval_ms", "ms"},
	{"parallel.splice_ms", "ms"},
	{"parallel.eval_speedup_2w", "x"},
	{"parallel.serial_frac", "fraction"},
	{"parallel.messages", "count"},
	{"parallel.frags", "count"},
	{"rope.stored_strings", "count"},
	{"rope.stored_kb", "KiB"},
	{"cache.hit_ratio", "fraction"},
	{"cache.partial_hit_ratio", "fraction"},
	{"cache.demotions_per_job", "count"},
	{"cache.evictions", "count"},
	{"cache.kb", "KiB"},
	{"cas.disk_hits", "count"},
	{"cas.disk_writes", "count"},
	{"cas.disk_errors", "count"},
	{"fleet.overhead_ms", "ms"},
	{"fleet.remote_frags_per_job", "count"},
	{"fleet.retries", "count"},
	{"fleet.requeues", "count"},
	{"fleet.degraded_jobs", "count"},
	{"pagd.http_overhead_ms", "ms"},
	{"pagd.server_queue_ms", "ms"},
	{"pagd.rejected", "count"},
	{"mix.repeat_p50_ms", "ms"},
	{"mix.edit_p50_ms", "ms"},
	{"mix.new_p50_ms", "ms"},
	{"mix.disk_p50_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"self.wait_ms", "ms"},
	{"self.parse_ms", "ms"},
	{"self.queue_ms", "ms"},
	{"self.split_ms", "ms"},
	{"self.eval_ms", "ms"},
	{"self.splice_ms", "ms"},
	{"self.server_ms", "ms"},
	{"self.http_ms", "ms"},
	{"self.check_ms", "ms"},
	{"self.other_ms", "ms"},
	{"speedup_2w", "x"},
	{"fleet_tax", "x"},
	{"latency_p99_ms", "ms"},
	{"goodput_jobs_s", "jobs/s"},
	{"sustained_rate_jobs_s", "jobs/s"},
	{"late_p99_ms", "ms"},
	{"error_rate", "fraction"},
}

// entry is one measured value with its unit and sample count.
type entry struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// sheet collects the entries of one run in insertion order.
type sheet struct{ entries []entry }

func (s *sheet) add(name, unit string, v float64, n int) {
	s.entries = append(s.entries, entry{Name: name, Value: v, Unit: unit, Samples: n})
}

func (s *sheet) get(name string) (entry, bool) {
	for _, e := range s.entries {
		if e.Name == name {
			return e, true
		}
	}
	return entry{}, false
}

// outcome is what a workload run hands back: the attempt and
// failure counts of its measured phases, the metric sheet and any
// correctness violations found outside individual compiles.
type outcome struct {
	attempted, failed int
	metrics           sheet
	violations        []string
	spans             *recorder // traced runs only
}

func main() {
	var cfg config
	var secs int
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: cold-course, edit-loop, service-mix or fleet-http")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's programs are generated from")
	flag.IntVar(&secs, "seconds", 12, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.pagd, "pagd", "", "pagd binary (service-mix)")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "scratch directory for pagd cache directories and span files")
	calibrate := flag.Bool("calibrate", false, "serve host calibrations on stdin/stdout (the benchmark's own child process)")
	flag.Parse()
	if *calibrate {
		serveCalibration()
		return
	}
	cfg.seconds = time.Duration(secs) * time.Second
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", cfg.workload, secs, trace)
		os.Exit(2)
	}
	out, err := run(cfg)
	if err == nil && out.spans != nil {
		path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		err = out.spans.write(path)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if err := emit(cfg, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
}

// emit prints the report line and the result line, and fails the run
// when any compile or check went wrong.
func emit(cfg config, out *outcome) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		// A layer the workload bypasses did no work: it reads 0 with no
		// samples (the "predicted no change" rows of the layer budget).
		for _, d := range perLayer {
			if _, ok := out.metrics.get(d.name); !ok {
				out.metrics.add(d.name, d.unit, 0, 0)
			}
		}
	}
	report := struct {
		Workload   string   `json:"workload"`
		Seed       int64    `json:"seed"`
		Trace      bool     `json:"trace"`
		NumCPU     int      `json:"nproc"`
		GOMAXPROCS int      `json:"gomaxprocs"`
		GoVersion  string   `json:"go_version"`
		Metrics    []entry  `json:"metrics"`
		Violations []string `json:"violations,omitempty"`
	}{cfg.workload, cfg.seed, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		out.metrics.entries, out.violations}
	line, err := json.Marshal(report)
	if err != nil {
		return err
	}
	fmt.Println(string(line))

	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   out.failed == 0 && len(out.violations) == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		e, ok := out.metrics.get(d.name)
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metric{Value: e.Value, Unit: d.unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("workload did not measure %v", missing)
	}
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("outputs were not all correct")
	}
	return nil
}
