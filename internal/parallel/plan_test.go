package parallel_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"pag/internal/cluster"
	"pag/internal/exprlang"
	"pag/internal/parallel"
	"pag/internal/tree"
	"pag/internal/workload"
)

// TestPlanByteIdentityBothPlanners checks the decomposition's
// correctness bar: at equal width, the pool must produce output
// byte-identical to the simulated cluster — cold, and warm through the
// fragment cache (a recording replayed on a second identical compile).
// Each subtest names the decomposition policy, the size planner.
func TestPlanByteIdentityBothPlanners(t *testing.T) {
	jobs := []struct {
		name string
		job  cluster.Job
	}{
		{"pascal", pascalJob(t, workload.Small())},
		{"exprlang", exprJob(t, exprlang.Generate(8, 6))},
	}
	ctx := context.Background()
	for _, j := range jobs {
		for _, w := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/size/width=%d", j.name, w), func(t *testing.T) {
				sim, err := cluster.Run(j.job, cluster.Options{
					Machines: w, Mode: cluster.Combined, Librarian: true, UIDPreset: true,
				})
				if err != nil {
					t.Fatalf("cluster: %v", err)
				}
				pool := parallel.NewPool(parallel.PoolOptions{Workers: w})
				defer pool.Close()
				opts := parallel.Options{Workers: w, Mode: cluster.Combined, Librarian: true, UIDPreset: true}
				cold, err := pool.Compile(ctx, j.job, opts)
				if err != nil {
					t.Fatalf("cold: %v", err)
				}
				if cold.Program != sim.Program {
					t.Errorf("cold program differs from cluster (%d vs %d bytes)",
						len(cold.Program), len(sim.Program))
				}
				if cold.Frags != sim.Frags {
					t.Errorf("cold frags %d, cluster %d", cold.Frags, sim.Frags)
				}
				if cold.PlanStats.Balance < 1 {
					t.Errorf("PlanStats.Balance = %v, want >= 1", cold.PlanStats.Balance)
				}
				warm, err := pool.Compile(ctx, j.job, opts)
				if err != nil {
					t.Fatalf("warm: %v", err)
				}
				if warm.Program != sim.Program {
					t.Errorf("warm program differs from cluster (%d vs %d bytes)",
						len(warm.Program), len(sim.Program))
				}
				if hits := pool.Stats().CacheHits; hits != 1 {
					t.Errorf("warm compile recorded %d cache hits, want 1", hits)
				}
			})
		}
	}
}

// TestGranularityErrorTyped checks the typed rejection of sub-minimum
// explicit granularities at the Compile boundary, before any work.
func TestGranularityErrorTyped(t *testing.T) {
	pool := parallel.NewPool(parallel.PoolOptions{Workers: 2})
	defer pool.Close()
	job := pascalJob(t, workload.Tiny())
	for _, g := range []int{1, 4, tree.MinGranularity - 1} {
		_, err := pool.Compile(context.Background(), job, parallel.Options{Granularity: g})
		var ge *parallel.GranularityError
		if !errors.As(err, &ge) {
			t.Fatalf("granularity %d: err = %v, want *GranularityError", g, err)
		}
		if ge.Granularity != g {
			t.Errorf("granularity %d: error carries %d", g, ge.Granularity)
		}
	}
	// The boundary value itself is accepted.
	if _, err := pool.Compile(context.Background(), job, parallel.Options{Granularity: tree.MinGranularity}); err != nil {
		t.Fatalf("granularity %d rejected: %v", tree.MinGranularity, err)
	}
}

// TestAutoWidthBounds checks the auto-width selection contract: an
// untrained pool keeps the worker-count default (AutoWidth unreported),
// and once the cost model has samples the chosen width is always
// within [1, Workers] and reported in PlanStats.
func TestAutoWidthBounds(t *testing.T) {
	const workers = 4
	pool := parallel.NewPool(parallel.PoolOptions{Workers: workers, CacheBytes: -1})
	defer pool.Close()
	ctx := context.Background()
	job := pascalJob(t, workload.Small())

	first, err := pool.Compile(ctx, job, parallel.Options{AutoWidth: true, Librarian: true, UIDPreset: true})
	if err != nil {
		t.Fatal(err)
	}
	if first.PlanStats.AutoWidth {
		t.Errorf("untrained pool claims auto-chosen width %d", first.PlanStats.Width)
	}
	if first.PlanStats.Width != workers {
		t.Errorf("untrained auto-width job ran at width %d, want default %d", first.PlanStats.Width, workers)
	}

	// With UIDPreset the label numbering depends on the width, so each
	// auto-width result is compared with a fixed-width compile at the
	// width the model chose: byte identity at equal width.
	refs := map[int]string{}
	for i := 0; i < 3; i++ {
		res, err := pool.Compile(ctx, job, parallel.Options{AutoWidth: true, Librarian: true, UIDPreset: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.PlanStats.AutoWidth {
			t.Fatalf("iteration %d: trained pool did not auto-size", i)
		}
		if res.PlanStats.Width < 1 || res.PlanStats.Width > workers {
			t.Errorf("iteration %d: auto width %d outside [1, %d]", i, res.PlanStats.Width, workers)
		}
		w := res.PlanStats.Width
		if _, ok := refs[w]; !ok {
			ref, err := pool.Compile(ctx, job, parallel.Options{Fragments: w, Librarian: true, UIDPreset: true})
			if err != nil {
				t.Fatal(err)
			}
			refs[w] = ref.Program
		}
		if res.Program != refs[w] {
			t.Errorf("iteration %d: auto-width output differs from the fixed-width output at width %d", i, w)
		}
	}
	stats := pool.Stats()
	if stats.AutoEvalNsPerByte <= 0 || stats.AutoOverheadNsPerFrag <= 0 {
		t.Errorf("trained pool reports cost model e=%v o=%v, want positive",
			stats.AutoEvalNsPerByte, stats.AutoOverheadNsPerFrag)
	}

	// An explicit Fragments request always wins over AutoWidth.
	fixed, err := pool.Compile(ctx, job, parallel.Options{AutoWidth: true, Fragments: 3, Librarian: true, UIDPreset: true})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.PlanStats.AutoWidth || fixed.PlanStats.Width != 3 {
		t.Errorf("explicit Fragments=3 with AutoWidth: got auto=%v width=%d",
			fixed.PlanStats.AutoWidth, fixed.PlanStats.Width)
	}
}
