package cluster_test

import (
	"reflect"
	"strings"
	"testing"

	"pag/internal/ag"
	"pag/internal/cluster"
	"pag/internal/exprlang"
	"pag/internal/netsim"
	"pag/internal/rope"
	"pag/internal/tree"
)

func exprJob(t *testing.T, src string) (cluster.Job, *exprlang.Lang) {
	t.Helper()
	l := exprlang.MustNew()
	a, err := ag.Analyze(l.G)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	root, err := l.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return cluster.Job{G: l.G, A: a, Root: root, Lex: l.TerminalAttrs}, l
}

func TestClusterEvaluatesAppendixExample(t *testing.T) {
	job, _ := exprJob(t, "let x = 2 in 1 + 3*x ni")
	for _, mode := range []cluster.Mode{cluster.Combined, cluster.Dynamic} {
		res, err := cluster.Run(job, cluster.Options{Machines: 1, Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got := res.RootAttrs[exprlang.AttrValue]; got != 7 {
			t.Errorf("%v: value = %v, want 7", mode, got)
		}
		if res.Frags != 1 {
			t.Errorf("%v: frags = %d, want 1", mode, res.Frags)
		}
	}
}

func TestClusterAgreesAcrossMachinesAndModes(t *testing.T) {
	src := exprlang.Generate(8, 6)
	job, _ := exprJob(t, src)

	ref, err := cluster.Run(job, cluster.Options{Machines: 1, Mode: cluster.Combined})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	want := ref.RootAttrs[exprlang.AttrValue]

	for _, mode := range []cluster.Mode{cluster.Combined, cluster.Dynamic} {
		for machines := 1; machines <= 6; machines++ {
			res, err := cluster.Run(job, cluster.Options{Machines: machines, Mode: mode})
			if err != nil {
				t.Fatalf("%v x%d: %v", mode, machines, err)
			}
			if got := res.RootAttrs[exprlang.AttrValue]; got != want {
				t.Errorf("%v x%d: value = %v, want %v", mode, machines, got, want)
			}
			if machines > 1 && res.Frags < 2 {
				t.Errorf("%v x%d: expected multiple fragments, got %d", mode, machines, res.Frags)
			}
		}
	}
}

func TestClusterDeterministic(t *testing.T) {
	job, _ := exprJob(t, exprlang.Generate(6, 5))
	opts := cluster.Options{Machines: 4, Mode: cluster.Combined}
	a, err := cluster.Run(job, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cluster.Run(job, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.EvalTime != b.EvalTime {
		t.Errorf("nondeterministic EvalTime: %v vs %v", a.EvalTime, b.EvalTime)
	}
	if a.ParseTime != b.ParseTime {
		t.Errorf("nondeterministic ParseTime: %v vs %v", a.ParseTime, b.ParseTime)
	}
	if a.Messages != b.Messages || a.Bytes != b.Bytes {
		t.Errorf("nondeterministic traffic: %d/%d vs %d/%d msgs/bytes",
			a.Messages, a.Bytes, b.Messages, b.Bytes)
	}
	// The netsim scheduler is fully deterministic, so the two runs must
	// produce identical machine activity traces: every busy span, every
	// message arrow, every mark, at identical virtual times.
	if !reflect.DeepEqual(a.Trace, b.Trace) {
		t.Error("nondeterministic trace")
		if ga, gb := a.Trace.Gantt(80), b.Trace.Gantt(80); ga != gb {
			t.Logf("run 1:\n%s\nrun 2:\n%s", ga, gb)
		}
	}
}

func TestClusterParallelSpeedup(t *testing.T) {
	// A wide expression with many splittable blocks should evaluate
	// faster on several machines than on one.
	job, _ := exprJob(t, exprlang.Generate(12, 40))
	seq, err := cluster.Run(job, cluster.Options{Machines: 1, Mode: cluster.Combined})
	if err != nil {
		t.Fatal(err)
	}
	par, err := cluster.Run(job, cluster.Options{Machines: 4, Mode: cluster.Combined})
	if err != nil {
		t.Fatal(err)
	}
	if par.EvalTime >= seq.EvalTime {
		t.Errorf("no parallel speedup: seq=%v par=%v (frags=%d)", seq.EvalTime, par.EvalTime, par.Frags)
	}
	t.Logf("seq=%v par=%v speedup=%.2f frags=%d",
		seq.EvalTime, par.EvalTime,
		float64(seq.EvalTime)/float64(par.EvalTime), par.Frags)
}

func TestClusterCombinedMostlyStatic(t *testing.T) {
	job, _ := exprJob(t, exprlang.Generate(10, 20))
	res, err := cluster.Run(job, cluster.Options{Machines: 5, Mode: cluster.Combined})
	if err != nil {
		t.Fatal(err)
	}
	if f := res.Stats.DynamicFraction(); f > 0.10 {
		t.Errorf("dynamic fraction = %.3f, want <= 0.10 (paper §4.1)", f)
	}
	dy, err := cluster.Run(job, cluster.Options{Machines: 5, Mode: cluster.Dynamic})
	if err != nil {
		t.Fatal(err)
	}
	if f := dy.Stats.DynamicFraction(); f != 1.0 {
		t.Errorf("dynamic evaluator fraction = %.3f, want 1.0", f)
	}
}

func TestClusterTraceRecordsActivity(t *testing.T) {
	job, _ := exprJob(t, exprlang.Generate(6, 10))
	res, err := cluster.Run(job, cluster.Options{Machines: 3, Mode: cluster.Combined})
	if err != nil {
		t.Fatal(err)
	}
	procs := res.Trace.Procs()
	if len(procs) < 4 { // parser + >=3 evaluators
		t.Fatalf("trace mentions %d procs: %v", len(procs), procs)
	}
	if res.Trace.BusyTime("eval-a") == 0 {
		t.Error("eval-a recorded no busy time")
	}
	if res.Trace.MarkTime("evaluation starts") < 0 {
		t.Error("missing 'evaluation starts' mark")
	}
	g := res.Trace.Gantt(72)
	if len(g) == 0 {
		t.Error("empty Gantt chart")
	}
	t.Logf("\n%s", g)
}

func TestClusterHardwareSensitivity(t *testing.T) {
	// Slower network should increase parallel running time.
	job, _ := exprJob(t, exprlang.Generate(8, 10))
	fast := netsim.DefaultHardware()
	slow := fast
	slow.MsgLatency = 30 * fast.MsgLatency
	a, err := cluster.Run(job, cluster.Options{Machines: 4, Mode: cluster.Combined, Hardware: fast})
	if err != nil {
		t.Fatal(err)
	}
	b, err := cluster.Run(job, cluster.Options{Machines: 4, Mode: cluster.Combined, Hardware: slow})
	if err != nil {
		t.Fatal(err)
	}
	if b.EvalTime <= a.EvalTime {
		t.Errorf("higher latency did not slow evaluation: fast=%v slow=%v", a.EvalTime, b.EvalTime)
	}
}

func TestGranularityControlsFragmentCount(t *testing.T) {
	src := exprlang.Generate(10, 10)
	l := exprlang.MustNew()
	root, err := l.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	total := root.Size()
	coarse := tree.Decompose(root.Clone(), total/2, 100)
	fine := tree.Decompose(root.Clone(), total/20, 100)
	if coarse.NumFragments() >= fine.NumFragments() {
		t.Errorf("coarse granularity produced %d frags, fine %d",
			coarse.NumFragments(), fine.NumFragments())
	}
}

// TestClusterHugeMachineRequest checks that asking for more evaluator
// machines than the librarian has handle ranges is rejected up front
// when the librarian is enabled (each machine claims a private handle
// range; more machines than ranges would collide silently).
func TestClusterHugeMachineRequest(t *testing.T) {
	job, _ := exprJob(t, "1+2")
	if _, err := cluster.Run(job, cluster.Options{
		Machines: rope.MaxHandleRanges + 1, Librarian: true,
	}); err == nil {
		t.Fatal("expected an error for a machine count wider than the handle ranges")
	}
}

// TestClusterUnknownModeRejected: a mode outside Combined/Dynamic is
// refused up front instead of silently running the combined evaluator.
func TestClusterUnknownModeRejected(t *testing.T) {
	job, _ := exprJob(t, "1+2")
	if _, err := cluster.Run(job, cluster.Options{Machines: 2, Mode: 7}); err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Fatalf("mode 7: err = %v, want an unknown-mode rejection", err)
	}
}
