package pag_test

// Cross-module integration tests: the full path from Pascal source
// through parallel evaluation to assembled machine code, and the
// invariants that must hold across machine counts and evaluator modes.

import (
	"strings"
	"testing"

	"pag"
	"pag/internal/cluster"
	"pag/internal/experiments"
	"pag/internal/pascal"
	"pag/internal/vax"
	"pag/internal/workload"
)

// TestOutputIdenticalAcrossMachines compiles the same program
// sequentially and on five machines with the unique-identifier chain
// (so label numbering is machine-count independent) and requires the
// generated assembly to be byte-identical: distribution must not
// change the translation.
func TestOutputIdenticalAcrossMachines(t *testing.T) {
	l := pascal.MustNew()
	src := workload.Generate(workload.Small())
	job, err := l.ClusterJob(src)
	if err != nil {
		t.Fatal(err)
	}
	programs := map[int]string{}
	for _, m := range []int{1, 2, 5} {
		opts := experiments.DefaultOptions()
		opts.Machines = m
		opts.Mode = cluster.Combined
		opts.UIDPreset = false // keep label numbering machine-independent
		res, err := cluster.Run(job, opts)
		if err != nil {
			t.Fatalf("machines=%d: %v", m, err)
		}
		programs[m] = res.Program
	}
	if programs[1] != programs[2] || programs[1] != programs[5] {
		t.Error("generated assembly differs across machine counts (chain mode)")
	}
	if len(programs[1]) == 0 {
		t.Fatal("empty program")
	}
}

// TestModesProduceIdenticalOutput requires the dynamic and combined
// evaluators to produce the same translation.
func TestModesProduceIdenticalOutput(t *testing.T) {
	l := pascal.MustNew()
	src := workload.Generate(workload.Small())
	job, err := l.ClusterJob(src)
	if err != nil {
		t.Fatal(err)
	}
	out := map[cluster.Mode]string{}
	for _, mode := range []cluster.Mode{cluster.Combined, cluster.Dynamic} {
		opts := experiments.DefaultOptions()
		opts.Machines = 3
		opts.Mode = mode
		opts.UIDPreset = false
		res, err := cluster.Run(job, opts)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		out[mode] = res.Program
	}
	if out[cluster.Combined] != out[cluster.Dynamic] {
		t.Error("dynamic and combined evaluators produced different code")
	}
}

// TestFullPipelineToMachineCode runs source → parallel compilation →
// validation → two-pass assembly, end to end.
func TestFullPipelineToMachineCode(t *testing.T) {
	l := pascal.MustNew()
	src := workload.Generate(workload.Small())
	job, err := l.ClusterJob(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := experiments.DefaultOptions()
	opts.Machines = 4
	res, err := cluster.Run(job, opts)
	if err != nil {
		t.Fatal(err)
	}
	if errs, _ := res.RootAttrs[pascal.ProgAttrErrs].([]string); len(errs) > 0 {
		t.Fatalf("semantic errors: %v", errs)
	}
	if problems := vax.Validate(res.Program); len(problems) > 0 {
		t.Fatalf("invalid assembly: %v", problems[:minI(3, len(problems))])
	}
	code, err := vax.Assemble(res.Program)
	if err != nil {
		t.Fatalf("assembling parallel output: %v", err)
	}
	if len(code) == 0 || len(code) >= len(res.Program) {
		t.Errorf("machine code %d bytes vs text %d", len(code), len(res.Program))
	}
}

// TestLibrarianAndNaiveProduceSameProgram: the §4.3 optimization must
// not change the translation, only its transmission.
func TestLibrarianAndNaiveProduceSameProgram(t *testing.T) {
	l := pascal.MustNew()
	src := workload.Generate(workload.Small())
	job, err := l.ClusterJob(src)
	if err != nil {
		t.Fatal(err)
	}
	var progs []string
	for _, lib := range []bool{true, false} {
		opts := experiments.DefaultOptions()
		opts.Machines = 3
		opts.Librarian = lib
		res, err := cluster.Run(job, opts)
		if err != nil {
			t.Fatalf("librarian=%v: %v", lib, err)
		}
		progs = append(progs, res.Program)
	}
	if progs[0] != progs[1] {
		t.Error("librarian changed the generated program text")
	}
}

// TestSemanticErrorsSurviveDistribution: error attributes must merge
// correctly across fragment boundaries.
func TestSemanticErrorsSurviveDistribution(t *testing.T) {
	l := pascal.MustNew()
	// Inject errors into an otherwise large program so they land in
	// different fragments.
	src := workload.Generate(workload.Small())
	src = strings.Replace(src, "acc := p0;", "acc := p0; undeclared_one := 1;", 1)
	src = strings.Replace(src, "gtotal := 0;", "gtotal := 0; undeclared_two := 2;", 1)
	job, err := l.ClusterJob(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 4} {
		opts := experiments.DefaultOptions()
		opts.Machines = m
		res, err := cluster.Run(job, opts)
		if err != nil {
			t.Fatalf("machines=%d: %v", m, err)
		}
		errs, _ := res.RootAttrs[pascal.ProgAttrErrs].([]string)
		found := 0
		for _, e := range errs {
			if strings.Contains(e, "undeclared_one") || strings.Contains(e, "undeclared_two") {
				found++
			}
		}
		if found != 2 {
			t.Errorf("machines=%d: %d of 2 injected errors reported (%v)", m, found, errs)
		}
	}
}

// TestClusterOptionValidation covers the runtime's error paths.
func TestClusterOptionValidation(t *testing.T) {
	l := pascal.MustNew()
	job, err := l.ClusterJob(workload.Generate(workload.Tiny()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Run(job, cluster.Options{Machines: 0}); err == nil {
		t.Error("accepted zero machines")
	}
	noAnalysis := job
	noAnalysis.A = nil
	if _, err := cluster.Run(noAnalysis, cluster.Options{Machines: 1, Mode: cluster.Combined}); err == nil {
		t.Error("combined mode accepted a job without analysis")
	}
	// Dynamic mode works without the analysis.
	if _, err := cluster.Run(noAnalysis, cluster.Options{Machines: 1, Mode: cluster.Dynamic}); err != nil {
		t.Errorf("dynamic mode without analysis: %v", err)
	}
}

// TestGranularityOption: an explicit granularity overrides the
// automatic machines-based choice.
func TestGranularityOption(t *testing.T) {
	l := pascal.MustNew()
	job, err := l.ClusterJob(workload.Generate(workload.Small()))
	if err != nil {
		t.Fatal(err)
	}
	opts := experiments.DefaultOptions()
	opts.Machines = 6
	opts.Granularity = job.Root.Size() + 1 // too coarse to cut at all
	res, err := cluster.Run(job, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frags != 1 {
		t.Errorf("coarse granularity produced %d fragments, want 1", res.Frags)
	}
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestFacadeParallelRuntimeMatchesSimulator drives the public facade:
// pag.CompileParallel (real goroutines) must produce exactly the
// program pag.CompileSim (simulated cluster) produces, and that
// program must still assemble to VAX machine code.
func TestFacadeParallelRuntimeMatchesSimulator(t *testing.T) {
	l := pascal.MustNew()
	job, err := l.ClusterJob(workload.Generate(workload.Small()))
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	sim, err := pag.CompileSim(job, pag.SimOptions{
		Machines: n, Mode: pag.Combined, Librarian: true, UIDPreset: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	real, err := pag.CompileParallel(job, pag.Options{Workers: n})
	if err != nil {
		t.Fatal(err)
	}
	if real.Program != sim.Program {
		t.Fatalf("facade parallel program (%d bytes) differs from simulator program (%d bytes)",
			len(real.Program), len(sim.Program))
	}
	if real.Frags != n || real.Workers != n {
		t.Errorf("frags/workers = %d/%d, want %d/%d", real.Frags, real.Workers, n, n)
	}
	code, err := vax.Assemble(real.Program)
	if err != nil {
		t.Fatalf("assembling parallel output: %v", err)
	}
	if len(code) == 0 {
		t.Fatal("empty machine code")
	}
}
