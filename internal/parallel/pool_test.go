package parallel_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"pag/internal/cluster"
	"pag/internal/exprlang"
	"pag/internal/parallel"
	"pag/internal/workload"
)

// poolJob is one kind of job in the mixed stress workload, with the
// reference output of a single-job run.
type poolJob struct {
	name    string
	job     cluster.Job
	opts    parallel.Options
	program string // reference Program (pascal jobs)
	value   string // reference root value (exprlang jobs)
}

// mixedJobs builds the stress mix: pascal tiny/small at three widths,
// plus an exprlang job — different grammars, different codecs, all on
// one pool.
func mixedJobs(t *testing.T) []poolJob {
	t.Helper()
	mix := []poolJob{
		{name: "pascal-tiny-4", job: pascalJob(t, workload.Tiny()),
			opts: parallel.Options{Fragments: 4}},
		{name: "pascal-tiny-3", job: pascalJob(t, workload.Tiny()),
			opts: parallel.Options{Fragments: 3}},
		{name: "pascal-small-6", job: pascalJob(t, workload.Small()),
			opts: parallel.Options{Fragments: 6}},
		{name: "exprlang", job: exprJob(t, exprlang.Generate(8, 6)),
			opts: parallel.Options{Fragments: 4}},
	}
	for i := range mix {
		ref, err := parallel.Run(mix[i].job, mix[i].opts)
		if err != nil {
			t.Fatalf("%s: reference run: %v", mix[i].name, err)
		}
		mix[i].program = ref.Program
		// The exprlang grammar's observable output is the root value
		// attribute (pascal's is the program text; its raw root attrs
		// contain rope structure, which is not a stable comparison key).
		if mix[i].name == "exprlang" {
			mix[i].value = fmt.Sprint(ref.RootAttrs[exprlang.AttrValue])
		}
	}
	return mix
}

// TestPoolConcurrentMixedJobs is the pool's core contract under -race:
// one pool, >= 8 concurrent jobs of mixed grammars, every output
// byte-identical to the single-job run.
func TestPoolConcurrentMixedJobs(t *testing.T) {
	mix := mixedJobs(t)
	pool := parallel.NewPool(parallel.PoolOptions{Workers: 4, MaxInFlight: 16})
	defer pool.Close()

	const rounds = 4 // 4 kinds x 4 rounds = 16 concurrent jobs
	var wg sync.WaitGroup
	errCh := make(chan error, len(mix)*rounds)
	for r := 0; r < rounds; r++ {
		for _, m := range mix {
			wg.Add(1)
			go func(m poolJob) {
				defer wg.Done()
				res, err := pool.Compile(context.Background(), m.job, m.opts)
				if err != nil {
					errCh <- fmt.Errorf("%s: %v", m.name, err)
					return
				}
				if res.Program != m.program {
					errCh <- fmt.Errorf("%s: program differs from single-job run (%d vs %d bytes)",
						m.name, len(res.Program), len(m.program))
				}
				if m.value != "" {
					if got := fmt.Sprint(res.RootAttrs[exprlang.AttrValue]); got != m.value {
						errCh <- fmt.Errorf("%s: root value = %s, single-job run had %s", m.name, got, m.value)
					}
				}
			}(m)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if st := pool.Stats(); st.Done != int64(len(mix)*rounds) || st.InFlight != 0 {
		t.Errorf("stats after drain: %+v", st)
	}
}

// TestPoolSharesAnalysisAcrossJobs checks the shared read-only plan
// cache: jobs submitted without an analysis get the pool's per-grammar
// one, and produce the same output as jobs that carry their own.
func TestPoolSharesAnalysisAcrossJobs(t *testing.T) {
	pool := parallel.NewPool(parallel.PoolOptions{Workers: 2})
	defer pool.Close()

	withA := pascalJob(t, workload.Tiny())
	ref, err := pool.Compile(context.Background(), withA, parallel.Options{Fragments: 2})
	if err != nil {
		t.Fatal(err)
	}
	bare := withA
	bare.A = nil
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := pool.Compile(context.Background(), bare, parallel.Options{Fragments: 2})
			if err != nil {
				t.Errorf("analysis-free job: %v", err)
				return
			}
			if res.Program != ref.Program {
				t.Error("analysis-free job produced different output")
			}
		}()
	}
	wg.Wait()
}

// TestPoolCancellation checks context plumbing: a pre-cancelled
// context never runs, a cancelled-in-flight job returns the context
// error and releases its admission slot, and the pool keeps serving
// fresh jobs with identical output afterwards.
func TestPoolCancellation(t *testing.T) {
	// NoCache keeps every round a full evaluation: with warm cache hits
	// the mid-flight cancellation points would mostly land after the
	// near-instant replay finished, gutting the test's coverage.
	job := pascalJob(t, workload.Small())
	opts := parallel.Options{Fragments: 8, NoCache: true}
	pool := parallel.NewPool(parallel.PoolOptions{Workers: 2, MaxInFlight: 2})
	defer pool.Close()

	ref, err := pool.Compile(context.Background(), job, opts)
	if err != nil {
		t.Fatal(err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pool.Compile(cancelled, job, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled compile returned %v, want context.Canceled", err)
	}

	// Cancel jobs mid-flight at varying points; each must come back as
	// either a clean success (it beat the cancel) or ctx.Err(), never
	// a hang, and the pool must stay correct afterwards.
	for _, delay := range []time.Duration{0, 100 * time.Microsecond, time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		go func(d time.Duration) {
			time.Sleep(d)
			cancel()
		}(delay)
		res, err := pool.Compile(ctx, job, opts)
		switch {
		case err == nil:
			if res.Program != ref.Program {
				t.Fatalf("delay %v: completed job has wrong output", delay)
			}
		case errors.Is(err, context.Canceled):
		default:
			t.Fatalf("delay %v: %v", delay, err)
		}
		cancel()
	}

	res, err := pool.Compile(context.Background(), job, opts)
	if err != nil {
		t.Fatalf("compile after cancellations: %v", err)
	}
	if res.Program != ref.Program {
		t.Error("pool output changed after cancelled jobs (leaked job state?)")
	}
	if st := pool.Stats(); st.InFlight != 0 || st.Waiting != 0 {
		t.Errorf("cancelled jobs did not release admission slots: %+v", st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	if _, err := pool.Compile(ctx, job, opts); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline returned %v, want context.DeadlineExceeded", err)
	}
}

// TestPoolClosedRejects checks Close semantics: idempotent, rejects
// new jobs with ErrPoolClosed, and stops the workers.
func TestPoolClosedRejects(t *testing.T) {
	pool := parallel.NewPool(parallel.PoolOptions{Workers: 2})
	pool.Close()
	pool.Close() // idempotent
	job := pascalJob(t, workload.Tiny())
	if _, err := pool.Compile(context.Background(), job, parallel.Options{}); !errors.Is(err, parallel.ErrPoolClosed) {
		t.Fatalf("compile on closed pool returned %v, want ErrPoolClosed", err)
	}
}

// settleGoroutines samples the goroutine count until it stops falling.
func settleGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m < n {
			n = m
			continue
		}
	}
	return runtime.NumGoroutine()
}

// TestRunReleasesGoroutinesOnError is the regression test for the
// worker-goroutine leak: a Run that fails partway (after the pool's
// workers exist) must still tear the whole pool down. Before the
// persistent-pool rewrite, failed setup paths could leave workers and
// mailbox state behind.
func TestRunReleasesGoroutinesOnError(t *testing.T) {
	okJob := pascalJob(t, workload.Tiny())
	before := settleGoroutines()
	for i := 0; i < 20; i++ {
		// Fails in the pool (mode validation) after the worker
		// goroutines have started.
		//lint:ignore SA1019 the refused mode is the failure under test
		if _, err := parallel.Run(okJob, parallel.Options{Workers: 2, Mode: cluster.Dynamic}); err == nil {
			t.Fatal("expected a mode error")
		}
		// Fails before the pool exists (no analysis).
		bad := okJob
		bad.A = nil
		if _, err := parallel.Run(bad, parallel.Options{Workers: 2}); err == nil {
			t.Fatal("expected an analysis error")
		}
	}
	after := settleGoroutines()
	if after > before+2 {
		t.Errorf("goroutines grew from %d to %d across failing runs (worker leak)", before, after)
	}
}

// TestPoolCloseReleasesGoroutines checks the same for an explicit
// pool: workers, parked or busy, all exit on Close.
func TestPoolCloseReleasesGoroutines(t *testing.T) {
	job := pascalJob(t, workload.Tiny())
	before := settleGoroutines()
	for i := 0; i < 5; i++ {
		pool := parallel.NewPool(parallel.PoolOptions{Workers: 8})
		if _, err := pool.Compile(context.Background(), job, parallel.Options{Fragments: 4}); err != nil {
			t.Fatal(err)
		}
		pool.Close()
	}
	after := settleGoroutines()
	if after > before+2 {
		t.Errorf("goroutines grew from %d to %d across pool lifecycles", before, after)
	}
}
