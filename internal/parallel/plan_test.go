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
// whole-job cache (a recording replayed on a second identical compile).
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
				opts := parallel.Options{Workers: w}
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
