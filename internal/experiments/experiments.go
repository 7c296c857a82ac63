// Package experiments reproduces every quantitative artifact of the
// paper's evaluation (§4) plus the baselines of §5. Each experiment has
// a function returning structured results; cmd/benchfig renders them,
// the repository-root tests assert their shape against the paper, and
// bench_test.go exposes them as Go benchmarks. The experiment IDs
// (F5–F7, T1–T12) are indexed in DESIGN.md.
package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"pag/internal/cluster"
	"pag/internal/netsim"
	"pag/internal/pascal"
	"pag/internal/pipeline"
	"pag/internal/trace"
	"pag/internal/tree"
	"pag/internal/vax"
	"pag/internal/workload"
)

// MaxMachines is the largest machine count of Figure 5 (the paper's
// testbed had 6 workstations).
const MaxMachines = 6

var (
	langOnce sync.Once
	lang     *pascal.Lang
	srcOnce  sync.Once
	srcText  string
)

// Lang returns the shared Pascal language instance (grammar analysis is
// a one-time prepass, exactly as in the paper's generator).
func Lang() *pascal.Lang {
	langOnce.Do(func() { lang = pascal.MustNew() })
	return lang
}

// Source returns the measurement program (the course-compiler-shaped
// workload of §4).
func Source() string {
	srcOnce.Do(func() { srcText = workload.Generate(workload.CourseCompiler()) })
	return srcText
}

// Job builds a fresh cluster job for the measurement program.
func Job() (cluster.Job, error) {
	return Lang().ClusterJob(Source())
}

// Fig5Point is one point of Figure 5.
type Fig5Point struct {
	Machines  int
	Mode      cluster.Mode
	EvalTime  time.Duration
	Frags     int
	DynFrac   float64
	Messages  int
	Bytes     int
	FragSizes []int
}

// Fig5Result is the full Figure 5 data set.
type Fig5Result struct {
	Combined []Fig5Point // index 0 = 1 machine
	Dynamic  []Fig5Point
}

// Speedup returns sequential/parallel for the given mode and machines.
func (r *Fig5Result) Speedup(mode cluster.Mode, machines int) float64 {
	pts := r.Combined
	if mode == cluster.Dynamic {
		pts = r.Dynamic
	}
	return float64(pts[0].EvalTime) / float64(pts[machines-1].EvalTime)
}

// RunPoint runs one Figure 5 configuration.
func RunPoint(mode cluster.Mode, machines int, opts cluster.Options) (Fig5Point, error) {
	job, err := Job()
	if err != nil {
		return Fig5Point{}, err
	}
	opts.Machines = machines
	opts.Mode = mode
	res, err := cluster.Run(job, opts)
	if err != nil {
		return Fig5Point{}, err
	}
	return Fig5Point{
		Machines:  machines,
		Mode:      mode,
		EvalTime:  res.EvalTime,
		Frags:     res.Frags,
		DynFrac:   res.Stats.DynamicFraction(),
		Messages:  res.Messages,
		Bytes:     res.Bytes,
		FragSizes: res.Decomp.Sizes(),
	}, nil
}

// DefaultOptions returns the measurement configuration of the paper:
// string librarian on, per-evaluator unique-identifier bases, priority
// attributes enabled, 1987 hardware.
func DefaultOptions() cluster.Options {
	return cluster.Options{
		Hardware:  netsim.DefaultHardware(),
		Librarian: true,
		UIDPreset: true,
	}
}

// Fig5 regenerates the running-times figure: both evaluators at 1..6
// machines.
func Fig5() (*Fig5Result, error) {
	out := &Fig5Result{}
	for _, mode := range []cluster.Mode{cluster.Combined, cluster.Dynamic} {
		for m := 1; m <= MaxMachines; m++ {
			pt, err := RunPoint(mode, m, DefaultOptions())
			if err != nil {
				return nil, fmt.Errorf("experiments: fig5 %v x%d: %w", mode, m, err)
			}
			if mode == cluster.Combined {
				out.Combined = append(out.Combined, pt)
			} else {
				out.Dynamic = append(out.Dynamic, pt)
			}
		}
	}
	return out, nil
}

// Render prints the figure as the paper's table of running times.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 5: evaluator running times (simulated 1987 hardware)\n")
	b.WriteString("machines   dynamic   combined   dyn-speedup  comb-speedup\n")
	for i := 0; i < MaxMachines; i++ {
		b.WriteString(fmt.Sprintf("   %d      %7.2fs   %7.2fs      %5.2fx       %5.2fx\n",
			i+1,
			r.Dynamic[i].EvalTime.Seconds(), r.Combined[i].EvalTime.Seconds(),
			r.Speedup(cluster.Dynamic, i+1), r.Speedup(cluster.Combined, i+1)))
	}
	return b.String()
}

// Fig6 runs the 5-machine combined evaluator and returns the activity
// trace (rendered by trace.Gantt as the paper's behaviour chart).
func Fig6() (*trace.Trace, *cluster.Result, error) {
	job, err := Job()
	if err != nil {
		return nil, nil, err
	}
	opts := DefaultOptions()
	opts.Machines = 5
	opts.Mode = cluster.Combined
	res, err := cluster.Run(job, opts)
	if err != nil {
		return nil, nil, err
	}
	return res.Trace, res, nil
}

// Fig7 returns the source-program decomposition at 5 machines.
func Fig7() (*tree.Decomposition, error) {
	job, err := Job()
	if err != nil {
		return nil, err
	}
	opts := DefaultOptions()
	opts.Machines = 5
	opts.Mode = cluster.Combined
	res, err := cluster.Run(job, opts)
	if err != nil {
		return nil, err
	}
	return res.Decomp, nil
}

// AblationResult compares a baseline run against a variant.
type AblationResult struct {
	Name     string
	Baseline time.Duration
	Variant  time.Duration
}

// Improvement returns how much faster the baseline is than the variant
// (1.10 = variant is 10% slower).
func (a AblationResult) Improvement() float64 {
	return float64(a.Variant) / float64(a.Baseline)
}

// T4Librarian compares result propagation with and without the string
// librarian (paper §4.3: "approximately 10 percent").
func T4Librarian() (*AblationResult, error) {
	base, err := RunPoint(cluster.Combined, 5, DefaultOptions())
	if err != nil {
		return nil, err
	}
	naive := DefaultOptions()
	naive.Librarian = false
	varPt, err := RunPoint(cluster.Combined, 5, naive)
	if err != nil {
		return nil, err
	}
	return &AblationResult{Name: "string librarian", Baseline: base.EvalTime, Variant: varPt.EvalTime}, nil
}

// T7Priority compares runs with and without priority attributes
// (paper §4.3: the global symbol table is a priority attribute,
// evaluated as soon as available and propagated immediately). The
// effect shows in the dynamic evaluator, whose single ready queue can
// bury the globally needed attribute behind local work — the paper's
// "pathological situations"; the combined evaluator's dynamic queue
// holds only spine work, so it is largely insensitive.
func T7Priority() (*AblationResult, error) {
	base, err := RunPoint(cluster.Dynamic, 5, DefaultOptions())
	if err != nil {
		return nil, err
	}
	noPrio := DefaultOptions()
	noPrio.NoPriority = true
	varPt, err := RunPoint(cluster.Dynamic, 5, noPrio)
	if err != nil {
		return nil, err
	}
	return &AblationResult{Name: "priority attributes", Baseline: base.EvalTime, Variant: varPt.EvalTime}, nil
}

// T8UniqueIDs compares per-evaluator unique-identifier bases against
// the propagated-counter chain (paper §4.3: the chain "would require
// virtually all evaluators to wait").
func T8UniqueIDs() (*AblationResult, error) {
	base, err := RunPoint(cluster.Combined, 5, DefaultOptions())
	if err != nil {
		return nil, err
	}
	chain := DefaultOptions()
	chain.UIDPreset = false
	varPt, err := RunPoint(cluster.Combined, 5, chain)
	if err != nil {
		return nil, err
	}
	return &AblationResult{Name: "unique-id bases", Baseline: base.EvalTime, Variant: varPt.EvalTime}, nil
}

// T5Result reports the pipelined-compiler baseline.
type T5Result = pipeline.Result

// T5Pipeline runs the measurement program through a four-stage
// pipelined compiler (paper §5: speedups limited to about 2).
func T5Pipeline() (*pipeline.Result, error) {
	units, err := procUnits()
	if err != nil {
		return nil, err
	}
	return pipeline.Run(units, pipeline.DefaultStages(), netsim.DefaultHardware())
}

// T11ParallelMake runs six course-compiler-sized compilations under a
// parallel make on six machines with a sequential link.
func T11ParallelMake() (*pipeline.MakeResult, error) {
	units, err := procUnits()
	if err != nil {
		return nil, err
	}
	total := 0
	for _, u := range units {
		total += u
	}
	// Six compilation units of varying size (the paper: "suffers from
	// differences in size between compilations").
	comps := []int{total, total * 3 / 4, total / 2, total / 2, total / 3, total / 4}
	return pipeline.ParallelMake(comps, 6,
		pipeline.TotalPerByte(pipeline.DefaultStages()), 6*time.Microsecond,
		netsim.DefaultHardware())
}

// procUnits returns the linearized sizes of the measurement program's
// top-level procedure subtrees plus the main body — the natural
// translation units for the pipeline and make baselines.
func procUnits() ([]int, error) {
	l := Lang()
	root, err := l.Parse(Source())
	if err != nil {
		return nil, err
	}
	var units []int
	root.Walk(func(n *tree.Node) {
		if n.Sym == l.ProcDecl {
			units = append(units, n.Size())
		}
	})
	return units, nil
}

// T9Result reports the parse-share measurement.
type T9Result struct {
	ParseTime time.Duration
	EvalTime  time.Duration // sequential combined evaluation
	Share     float64       // parse / (parse + eval)
}

// T9ParseShare measures parsing time against sequential evaluation
// (paper §4.1: parsing is a modest share and "most modern compilers
// should spend relatively little time parsing").
func T9ParseShare() (*T9Result, error) {
	pt, err := RunPoint(cluster.Combined, 1, DefaultOptions())
	if err != nil {
		return nil, err
	}
	parse := pascal.ParseCost(Source())
	return &T9Result{
		ParseTime: parse,
		EvalTime:  pt.EvalTime,
		Share:     float64(parse) / float64(parse+pt.EvalTime),
	}, nil
}

// T10Result reports the assembly-size comparison.
type T10Result struct {
	AssemblyBytes int
	MachineBytes  int
	Ratio         float64 // assembly / machine
}

// T10AssemblySize compares the assembly text shipped over the network
// against its machine-code form produced by the two-pass assembler
// (paper §4.1: "machine language is much more compact than assembly
// language", motivating integrated assembly). Assembling the whole
// generated program also cross-validates the code generator: every
// instruction, operand and label must be well formed and resolvable.
func T10AssemblySize() (*T10Result, error) {
	job, err := Job()
	if err != nil {
		return nil, err
	}
	opts := DefaultOptions()
	opts.Machines = 1
	opts.Mode = cluster.Combined
	res, err := cluster.Run(job, opts)
	if err != nil {
		return nil, err
	}
	code, err := vax.Assemble(res.Program)
	if err != nil {
		return nil, fmt.Errorf("experiments: assembling the generated program: %w", err)
	}
	asm := len(res.Program)
	return &T10Result{
		AssemblyBytes: asm,
		MachineBytes:  len(code),
		Ratio:         float64(asm) / float64(len(code)),
	}, nil
}
