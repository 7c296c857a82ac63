// Command benchjson runs the repo's benchmark suite and records the
// results as a machine-readable JSON file (the BENCH_*.json perf
// trajectory: one committed baseline per PR, so every later change is
// measured against it). It also compares two such files, serving as an
// offline benchstat substitute:
//
//	go run ./cmd/benchjson -o BENCH_PR2.json            # measure
//	go run ./cmd/benchjson -compare BENCH_PR2.json new.json
//
// The default benchmark set is the perf-tracked suite: the real
// multicore Pascal compile (BenchmarkParallelPascal) and the evaluator
// micro-benchmarks (BenchmarkHotPath), the cache and incremental
// replay suites, the mixed-traffic service benchmark
// (BenchmarkSustainedLoad), the uncached compile across widths
// (BenchmarkAdaptive) and the persistent-cache restart benchmark
// (BenchmarkWarmRestart).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one recorded benchmark result.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// File is the schema of a BENCH_*.json file.
type File struct {
	Bench      string      `json:"bench"`
	BenchTime  string      `json:"benchtime"`
	GoVersion  string      `json:"go"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	CPUs       int         `json:"cpus"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	bench := flag.String("bench", "BenchmarkParallelPascal|BenchmarkHotPath|BenchmarkPoolReuse|BenchmarkFragmentCache|BenchmarkSustainedLoad|BenchmarkFleet|BenchmarkAdaptive|BenchmarkWarmRestart", "benchmark regex passed to go test -bench")
	benchtime := flag.String("benchtime", "1s", "value passed to go test -benchtime")
	pkg := flag.String("pkg", ".", "package to benchmark")
	out := flag.String("o", "BENCH_PR10.json", "output file")
	compare := flag.Bool("compare", false, "compare two BENCH_*.json files: benchjson -compare old.json new.json")
	failOver := flag.Float64("fail-over", 0, "with -compare: exit nonzero when any benchmark regresses by more than this percentage in ns/op, or gains any allocs/op on a zero-alloc baseline (0 = report only)")
	flag.Parse()

	if *failOver != 0 && !*compare {
		fmt.Fprintln(os.Stderr, "benchjson: -fail-over only applies to -compare")
		os.Exit(2)
	}
	if *failOver < 0 {
		fmt.Fprintln(os.Stderr, "benchjson: -fail-over threshold must be positive")
		os.Exit(2)
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -compare [-fail-over PCT] old.json new.json")
			os.Exit(2)
		}
		if err := compareFiles(flag.Arg(0), flag.Arg(1), *failOver); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	f, err := run(*bench, *benchtime, *pkg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %d benchmark(s) to %s\n", len(f.Benchmarks), *out)
}

func run(bench, benchtime, pkg string) (*File, error) {
	cmd := exec.Command("go", "test", "-run", "XXX",
		"-bench", bench, "-benchmem", "-benchtime", benchtime, pkg)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test -bench: %w\n%s", err, buf.String())
	}
	f := &File{
		Bench:     bench,
		BenchTime: benchtime,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if b, ok := parseLine(sc.Text()); ok {
			f.Benchmarks = append(f.Benchmarks, b)
		}
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark results matched %q", bench)
	}
	return f, nil
}

// parseLine parses one `go test -bench` result line:
//
//	BenchmarkName/sub-8   	  44	 26272510 ns/op	 7.69 MB/s	 8.000 frags	 96 B/op	 2 allocs/op
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: trimGOMAXPROCS(fields[0]), Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, b.NsPerOp > 0
}

// trimGOMAXPROCS drops the trailing -N procs suffix so results compare
// across machines with different core counts.
func trimGOMAXPROCS(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints a benchstat-style delta table of two recordings.
// With failOver > 0 it becomes a regression gate: any benchmark whose
// ns/op regressed by more than failOver percent fails the comparison,
// as does any allocs/op increase on a benchmark whose baseline was
// zero-alloc (those are allocation-regression guards — a single new
// alloc on the hot path is exactly what they exist to catch, and no
// percentage threshold is meaningful against a baseline of zero).
func compareFiles(oldPath, newPath string, failOver float64) error {
	oldF, err := load(oldPath)
	if err != nil {
		return err
	}
	newF, err := load(newPath)
	if err != nil {
		return err
	}
	oldBy := map[string]Benchmark{}
	for _, b := range oldF.Benchmarks {
		oldBy[b.Name] = b
	}
	newBy := map[string]bool{}
	for _, b := range newF.Benchmarks {
		newBy[b.Name] = true
	}
	var failures []string
	fmt.Printf("%-44s %14s %14s %9s %18s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs/op old→new")
	for _, nb := range newF.Benchmarks {
		ob, ok := oldBy[nb.Name]
		if !ok {
			fmt.Printf("%-44s %14s %14.0f %9s %18s\n", nb.Name, "-", nb.NsPerOp, "new", allocCell(nil, &nb))
			continue
		}
		if failOver > 0 && ob.AllocsPerOp == 0 && nb.AllocsPerOp > 0 {
			failures = append(failures, fmt.Sprintf("%s: %.0f allocs/op on a zero-alloc baseline", nb.Name, nb.AllocsPerOp))
		}
		// A baseline of zero (hand-edited file, or a metric the old
		// toolchain didn't record) has no meaningful percentage: say
		// "n/a" rather than printing the +Inf%/NaN% this used to
		// produce — and never treat it as a regression.
		if !(ob.NsPerOp > 0) || math.IsInf(ob.NsPerOp, 0) {
			fmt.Printf("%-44s %14.0f %14.0f %9s %18s\n",
				nb.Name, ob.NsPerOp, nb.NsPerOp, "n/a", allocCell(&ob, &nb))
			continue
		}
		delta := (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp * 100
		fmt.Printf("%-44s %14.0f %14.0f %+8.1f%% %18s\n",
			nb.Name, ob.NsPerOp, nb.NsPerOp, delta, allocCell(&ob, &nb))
		if failOver > 0 && delta > failOver {
			failures = append(failures, fmt.Sprintf("%s: ns/op regressed %+.1f%% (threshold %.0f%%)", nb.Name, delta, failOver))
		}
	}
	// A baseline benchmark that produced no new result is itself a
	// regression (a perf guard silently vanished) — say so loudly.
	missing := 0
	for _, ob := range oldF.Benchmarks {
		if !newBy[ob.Name] {
			fmt.Printf("%-44s %14.0f %14s %9s %18s\n", ob.Name, ob.NsPerOp, "-", "MISSING", "")
			missing++
		}
	}
	if missing > 0 {
		return fmt.Errorf("%d baseline benchmark(s) missing from %s", missing, newPath)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchjson: FAIL:", f)
		}
		return fmt.Errorf("%d benchmark(s) regressed beyond the -fail-over gate", len(failures))
	}
	return nil
}

func allocCell(old, new *Benchmark) string {
	if old == nil {
		return fmt.Sprintf("-→%.0f", new.AllocsPerOp)
	}
	return fmt.Sprintf("%.0f→%.0f", old.AllocsPerOp, new.AllocsPerOp)
}
