package parallel_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"pag/internal/ag"
	"pag/internal/cluster"
	"pag/internal/exprlang"
	"pag/internal/parallel"
	"pag/internal/pascal"
	"pag/internal/rope"
	"pag/internal/workload"
)

func exprJob(t *testing.T, src string) cluster.Job {
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
	return cluster.Job{G: l.G, A: a, Root: root, Lex: l.TerminalAttrs}
}

func pascalJob(t *testing.T, cfg workload.Config) cluster.Job {
	t.Helper()
	job, err := pascal.MustNew().ClusterJob(workload.Generate(cfg))
	if err != nil {
		t.Fatalf("ClusterJob: %v", err)
	}
	return job
}

// TestParallelMatchesClusterExprlang checks that the real runtime and
// the simulated cluster agree on the appendix grammar for every worker
// count. The simulator's dynamic mode is compared with its combined
// mode by TestModesProduceIdenticalOutput.
func TestParallelMatchesClusterExprlang(t *testing.T) {
	job := exprJob(t, exprlang.Generate(8, 6))
	for _, w := range []int{1, 2, 4, 6} {
		sim, err := cluster.Run(job, cluster.Options{Machines: w, Mode: cluster.Combined, Librarian: true, UIDPreset: true})
		if err != nil {
			t.Fatalf("cluster x%d: %v", w, err)
		}
		real, err := parallel.Run(job, parallel.Options{Workers: w})
		if err != nil {
			t.Fatalf("parallel x%d: %v", w, err)
		}
		if got, want := fmt.Sprint(real.RootAttrs[exprlang.AttrValue]), fmt.Sprint(sim.RootAttrs[exprlang.AttrValue]); got != want {
			t.Errorf("x%d: value = %s, want %s", w, got, want)
		}
		if real.Frags != sim.Frags {
			t.Errorf("x%d: frags = %d, cluster had %d", w, real.Frags, sim.Frags)
		}
	}
}

// TestParallelMatchesClusterPascal checks byte-identical generated code
// on the Pascal compiler across worker counts: the pool, which keeps no
// librarian, against the simulator with its librarian on and off. The
// pool deposits nothing, so it reports no stored strings.
func TestParallelMatchesClusterPascal(t *testing.T) {
	job := pascalJob(t, workload.Small())
	for _, w := range []int{1, 2, 4, 8} {
		real, err := parallel.Run(job, parallel.Options{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: parallel: %v", w, err)
		}
		if real.Program == "" {
			t.Fatalf("workers=%d: empty program", w)
		}
		if real.StoredStrings != 0 || real.StoredBytes != 0 {
			t.Errorf("workers=%d: pool reports %d stored strings (%d bytes), want none", w, real.StoredStrings, real.StoredBytes)
		}
		for _, lib := range []bool{true, false} {
			name := fmt.Sprintf("lib=%v/workers=%d", lib, w)
			sim, err := cluster.Run(job, cluster.Options{
				Machines: w, Mode: cluster.Combined, Librarian: lib, UIDPreset: true,
			})
			if err != nil {
				t.Fatalf("%s: cluster: %v", name, err)
			}
			if real.Program != sim.Program {
				t.Errorf("%s: parallel program differs from cluster program (%d vs %d bytes)",
					name, len(real.Program), len(sim.Program))
			}
		}
	}
}

// TestParallelManyWorkersAndFragments exercises the pool under -race
// with more fragments than workers and at least 4 workers, repeatedly,
// so schedules vary.
func TestParallelManyWorkersAndFragments(t *testing.T) {
	job := pascalJob(t, workload.Small())
	ref, err := cluster.Run(job, cluster.Options{
		Machines: 16, Mode: cluster.Combined, Librarian: true, UIDPreset: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		res, err := parallel.Run(job, parallel.Options{Workers: 4, Fragments: 16})
		if err != nil {
			t.Fatal(err)
		}
		if res.Frags <= 4 {
			t.Fatalf("expected an oversubscribed pool, got %d fragments", res.Frags)
		}
		if res.Program != ref.Program {
			t.Fatalf("iteration %d: program differs from 16-machine cluster output", i)
		}
	}
}

// TestParallelDeterministic runs the same job twice and checks that
// results (values, program, statistics) are identical regardless of
// goroutine scheduling.
func TestParallelDeterministic(t *testing.T) {
	job := pascalJob(t, workload.Tiny())
	opts := parallel.Options{Workers: 8}
	a, err := parallel.Run(job, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.Run(job, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Program != b.Program {
		t.Error("nondeterministic program text")
	}
	if a.Stats != b.Stats {
		t.Errorf("nondeterministic stats: %+v vs %+v", a.Stats, b.Stats)
	}
	if a.Messages != b.Messages {
		t.Errorf("nondeterministic message count: %d vs %d", a.Messages, b.Messages)
	}
}

// TestPoolRejectsDynamicMode checks that the pool refuses the
// simulator's dynamic-mode ablation with an error naming the mode,
// rather than silently running the combined evaluator in its place,
// and keeps serving the paper's configuration afterwards.
func TestPoolRejectsDynamicMode(t *testing.T) {
	job := pascalJob(t, workload.Tiny())
	pool := parallel.NewPool(parallel.PoolOptions{Workers: 2})
	defer pool.Close()
	//lint:ignore SA1019 the test checks that the deprecated knob is refused
	_, err := pool.Compile(context.Background(), job, parallel.Options{Mode: cluster.Dynamic})
	if err == nil || !strings.Contains(err.Error(), "dynamic") {
		t.Fatalf("dynamic-mode compile returned %v, want a rejection naming the mode", err)
	}
	if st := pool.Stats(); st.Done != 0 || st.Failed != 0 {
		t.Errorf("rejected job counted as done %d / failed %d, want neither", st.Done, st.Failed)
	}
	//lint:ignore SA1019 Combined is the one mode the deprecated knob still accepts
	res, err := pool.Compile(context.Background(), job, parallel.Options{Mode: cluster.Combined})
	if err != nil {
		t.Fatalf("combined mode after the rejection: %v", err)
	}
	if res.Program == "" {
		t.Fatal("combined mode after the rejection: empty program")
	}
}

// TestParallelCombinedNeedsAnalysis mirrors the cluster's validation.
func TestParallelCombinedNeedsAnalysis(t *testing.T) {
	job := exprJob(t, "1+2")
	job.A = nil
	if _, err := parallel.Run(job, parallel.Options{Workers: 2}); err == nil {
		t.Fatal("expected an error for combined mode without analysis")
	}
}

// TestParallelHugeFragmentRequest checks that a fragment request wider
// than the librarian's handle ranges runs on the pool: the pool keeps
// no librarian, so it has no handle ranges to run out of, and the
// decomposition is bounded by the tree itself. (The fleet, which keeps
// the librarian, refuses such a width; see
// TestCoordinatorRejectsTooManyFragments.)
func TestParallelHugeFragmentRequest(t *testing.T) {
	job := pascalJob(t, workload.Tiny())
	res, err := parallel.Run(job, parallel.Options{Workers: 2, Fragments: rope.MaxHandleRanges + 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frags > rope.MaxHandleRanges {
		t.Fatalf("tiny tree decomposed into %d fragments", res.Frags)
	}
	if res.Program == "" {
		t.Fatal("empty program")
	}
}

// TestParallelHugeWorkerRequest checks the same when the width comes
// from the worker count (Fragments defaults to Workers): a one-shot
// pool wider than the handle ranges compiles.
func TestParallelHugeWorkerRequest(t *testing.T) {
	job := pascalJob(t, workload.Tiny())
	res, err := parallel.Run(job, parallel.Options{Workers: rope.MaxHandleRanges + 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program == "" {
		t.Fatal("empty program")
	}
}

// TestParallelTimingPhases checks that the split/eval/splice phase
// timers are populated and sum to the wall time.
func TestParallelTimingPhases(t *testing.T) {
	job := pascalJob(t, workload.Tiny())
	res, err := parallel.Run(job, parallel.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.SplitTime <= 0 || res.EvalTime <= 0 {
		t.Errorf("phase times not populated: split=%v eval=%v splice=%v",
			res.SplitTime, res.EvalTime, res.SpliceTime)
	}
	if sum := res.SplitTime + res.EvalTime + res.SpliceTime; sum != res.WallTime {
		t.Errorf("phases sum to %v, wall time is %v", sum, res.WallTime)
	}
}

// TestParallelStatsMatchCluster checks that the work done (attribute
// instances evaluated statically/dynamically) matches the simulated
// cluster exactly — same decomposition, same evaluators, same split of
// labour, modulo per-fragment bookkeeping order.
func TestParallelStatsMatchCluster(t *testing.T) {
	job := pascalJob(t, workload.Small())
	sim, err := cluster.Run(job, cluster.Options{
		Machines: 5, Mode: cluster.Combined, Librarian: true, UIDPreset: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	real, err := parallel.Run(job, parallel.Options{Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if real.Stats.DynamicEvals != sim.Stats.DynamicEvals ||
		real.Stats.StaticEvals != sim.Stats.StaticEvals {
		t.Errorf("work split differs: parallel %d/%d dynamic/static, cluster %d/%d",
			real.Stats.DynamicEvals, real.Stats.StaticEvals,
			sim.Stats.DynamicEvals, sim.Stats.StaticEvals)
	}
	for i := range real.PerFrag {
		if real.PerFrag[i].StaticEvals != sim.PerFrag[i].StaticEvals {
			t.Errorf("fragment %d: static evals %d, cluster %d",
				i, real.PerFrag[i].StaticEvals, sim.PerFrag[i].StaticEvals)
		}
	}
}

// TestParallelRootCodeAttrIsResolvable checks that the exposed root
// code attribute never holds librarian handles: FlattenCode with a nil
// lookup (the codebase-wide idiom) must work on it.
func TestParallelRootCodeAttrIsResolvable(t *testing.T) {
	job := pascalJob(t, workload.Tiny())
	res, err := parallel.Run(job, parallel.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Find the code attribute: the one whose flattened form equals the
	// program.
	found := false
	for _, v := range res.RootAttrs {
		c, isCode := v.(rope.Code)
		if !isCode {
			continue
		}
		if got := rope.FlattenCode(c, nil); got == res.Program {
			found = true
		}
	}
	if !found {
		t.Fatal("no root attribute flattens (with nil lookup) to the program")
	}
}
