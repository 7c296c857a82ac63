package parallel_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pag/internal/ag"
	"pag/internal/cluster"
	"pag/internal/parallel"
	"pag/internal/rope"
	"pag/internal/tree"
	"pag/internal/workload"
)

// boomJob builds a one-production grammar whose single semantic rule
// panics when the terminal token is "boom" — the smallest possible
// malformed-job generator for the worker panic-containment tests.
func boomJob(t *testing.T, token string) cluster.Job {
	t.Helper()
	b := ag.NewBuilder("boom")
	tok := b.Terminal("tok", ag.Syn("text"))
	s := b.Nonterminal("S", ag.Syn("val"))
	prod := b.Production(s, []*ag.Symbol{tok},
		ag.Def("val", func(args []ag.Value) ag.Value {
			if args[0] == "boom" {
				panic("kaboom: rule exploded")
			}
			return args[0]
		}, "1.text"))
	b.Start(s)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := ag.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	root := tree.New(prod, tree.NewTerminal(tok, token, token))
	return cluster.Job{G: g, A: a, Root: root}
}

// TestPanicInRuleFailsJobNotPool is the worker panic-containment
// regression test: a semantic rule panicking inside a worker goroutine
// must surface as that one job's error — before this fix the panic
// propagated out of the worker and crashed the entire process — while
// the pool keeps serving other jobs, including concurrent ones.
func TestPanicInRuleFailsJobNotPool(t *testing.T) {
	pool := parallel.NewPool(parallel.PoolOptions{Workers: 2, MaxInFlight: 8})
	defer pool.Close()
	ctx := context.Background()

	good := boomJob(t, "fine")
	res, err := pool.Compile(ctx, good, parallel.Options{})
	if err != nil {
		t.Fatalf("healthy job: %v", err)
	}
	if fmt.Sprint(res.RootAttrs[0]) != "fine" {
		t.Fatalf("healthy job value = %v", res.RootAttrs[0])
	}

	bad := boomJob(t, "boom")
	if _, err := pool.Compile(ctx, bad, parallel.Options{}); err == nil {
		t.Fatal("panicking job reported success")
	} else if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking job error = %v, want an evaluation-panic report", err)
	}

	// The pool must still be fully serviceable: run panicking and
	// healthy jobs concurrently, healthy output byte-identical.
	pascal := pascalJob(t, workload.Tiny())
	pOpts := parallel.Options{Fragments: 4, Librarian: true, UIDPreset: true}
	ref, err := pool.Compile(ctx, pascal, pOpts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				if _, err := pool.Compile(ctx, bad, parallel.Options{}); err == nil {
					errCh <- fmt.Errorf("concurrent panicking job %d reported success", i)
				}
				return
			}
			res, err := pool.Compile(ctx, pascal, pOpts)
			if err != nil {
				errCh <- fmt.Errorf("concurrent healthy job %d: %v", i, err)
				return
			}
			if res.Program != ref.Program {
				errCh <- fmt.Errorf("concurrent healthy job %d: output differs next to panicking jobs", i)
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if st := pool.Stats(); st.Failed < 5 || st.InFlight != 0 {
		t.Errorf("stats after panics: %+v", st)
	}
}

// TestHandleRangeExhaustionFailsJob is the librarian store-path
// regression test: a job that exhausts a fragment's private handle
// range must fail with ErrRangeExhausted — the store path used to
// panic, killing the whole process — and the pool must keep compiling
// once the pathological job is gone.
func TestHandleRangeExhaustionFailsJob(t *testing.T) {
	pool := parallel.NewPool(parallel.PoolOptions{Workers: 2})
	defer pool.Close()
	ctx := context.Background()
	job := pascalJob(t, workload.Tiny())
	opts := parallel.Options{Fragments: 4, Librarian: true, UIDPreset: true}

	restore := rope.SetRangeCapForTesting(0)
	_, err := pool.Compile(ctx, job, opts)
	restore()
	if !errors.Is(err, rope.ErrRangeExhausted) {
		t.Fatalf("exhausted job returned %v, want ErrRangeExhausted", err)
	}

	// Same pool, same job, sane cap: must compile cleanly (and match a
	// one-shot reference — the failed job must not have poisoned the
	// fragment cache or the recycled librarians).
	ref, err := parallel.Run(job, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pool.Compile(ctx, job, opts)
	if err != nil {
		t.Fatalf("compile after exhaustion: %v", err)
	}
	if res.Program != ref.Program {
		t.Error("output differs after an exhausted job (leaked state?)")
	}
	if st := pool.Stats(); st.Failed != 1 || st.Done != 1 {
		t.Errorf("stats: %+v, want 1 failed + 1 done", st)
	}
}

// TestRangeExhaustionDuringReplay covers the warm paths of the same
// bug. Incremental replay re-deposits recorded code text under the
// replaying job's own handle ranges, and exhaustion there must fail the
// one job cleanly. A whole-tree hit deposits nothing, so it succeeds
// even under a zero cap.
func TestRangeExhaustionDuringReplay(t *testing.T) {
	pool := parallel.NewPool(parallel.PoolOptions{Workers: 2})
	defer pool.Close()
	ctx := context.Background()
	job := pascalJob(t, workload.Tiny())
	opts := parallel.Options{Fragments: 4, Librarian: true, UIDPreset: true}

	ref, err := pool.Compile(ctx, job, opts) // record
	if err != nil {
		t.Fatal(err)
	}

	// One more granularity unit leaves the cuts alone but changes the
	// whole-tree key: every fragment is an incremental candidate.
	partial := opts
	partial.Granularity = tree.GranularityFor(job.Root, opts.Fragments) + 1
	restore := rope.SetRangeCapForTesting(0)
	_, err = pool.Compile(ctx, job, partial)
	restore()
	if !errors.Is(err, rope.ErrRangeExhausted) || !strings.Contains(err.Error(), "re-shipping cached code") {
		t.Fatalf("incremental replay under zero cap returned %v, want ErrRangeExhausted from re-shipping cached code", err)
	}
	res, err := pool.Compile(ctx, job, partial)
	if err != nil {
		t.Fatal(err)
	}
	if res.Program != ref.Program {
		t.Error("replay after failed replay produced different output")
	}
	if res.PartialHits != 4 || res.Demoted != 0 {
		t.Errorf("partial hits %d, demoted %d; want every fragment replayed (4, 0)", res.PartialHits, res.Demoted)
	}

	restore = rope.SetRangeCapForTesting(0)
	hit, err := pool.Compile(ctx, job, opts)
	restore()
	if err != nil {
		t.Fatalf("whole-tree hit under zero cap: %v", err)
	}
	if hit.Program != ref.Program {
		t.Error("whole-tree hit under zero cap returned a different program")
	}
}
