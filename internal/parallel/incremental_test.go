package parallel_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"pag/internal/cluster"
	"pag/internal/experiments"
	"pag/internal/parallel"
	"pag/internal/pascal"
	"pag/internal/workload"
)

// incLang is the one Pascal frontend shared by the edit tests: the
// cache key includes grammar identity (recordings are only valid for
// the grammar they were made under), so base and edited jobs must come
// from the same Lang — exactly how pagd and pagc hold one frontend
// across requests.
var incLang = pascal.MustNew()

// pascalSrcJob builds a cluster job from explicit Pascal source (the
// edit tests compile edited variants of a generated workload).
func pascalSrcJob(t *testing.T, src string) cluster.Job {
	t.Helper()
	job, err := incLang.ClusterJob(src)
	if err != nil {
		t.Fatalf("ClusterJob: %v", err)
	}
	return job
}

// editSameLen replaces old with new (same byte length, so the
// decomposition granularity and cut placement are unchanged) and fails
// the test if the edit does not apply or would move the cuts.
func editSameLen(t *testing.T, src, old, new string) string {
	t.Helper()
	if len(old) != len(new) {
		t.Fatalf("edit %q -> %q changes length", old, new)
	}
	if !strings.Contains(src, old) {
		t.Fatalf("edit target %q not in source", old)
	}
	return strings.Replace(src, old, new, 1)
}

// coldProgram is the reference output: parallel.Run, whose one-shot
// pool has no cache, compiling the job from scratch.
func coldProgram(t *testing.T, job cluster.Job, opts parallel.Options) string {
	t.Helper()
	res, err := parallel.Run(job, opts)
	if err != nil {
		t.Fatalf("parallel.Run: %v", err)
	}
	return res.Program
}

// clusterProgram is the byte-identity oracle: the simulated cluster's
// output for the same job at the same decomposition width.
func clusterProgram(t *testing.T, job cluster.Job, frags int) string {
	t.Helper()
	opts := experiments.DefaultOptions()
	opts.Machines = frags
	opts.Librarian = true
	res, err := cluster.Run(job, opts)
	if err != nil {
		t.Fatalf("cluster.Run: %v", err)
	}
	return res.Program
}

// compileTwice compiles job on pool twice and checks both outputs
// against want: the first compile misses the cache and records, the
// second is a whole-tree hit.
func compileTwice(t *testing.T, pool *parallel.Pool, job cluster.Job, opts parallel.Options, want string) {
	t.Helper()
	ctx := context.Background()
	hits := pool.Stats().CacheHits
	first, err := pool.Compile(ctx, job, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Program != want {
		t.Errorf("first compile differs from the cache-free reference (%d vs %d bytes)", len(first.Program), len(want))
	}
	if got := pool.Stats().CacheHits; got != hits {
		t.Errorf("first compile hit the cache (%d -> %d hits)", hits, got)
	}
	second, err := pool.Compile(ctx, job, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.Program != want {
		t.Errorf("second compile differs from the cache-free reference")
	}
	if got := pool.Stats().CacheHits; got != hits+1 {
		t.Errorf("second compile was not a whole-tree hit (%d -> %d hits)", hits, got)
	}
}

// TestEditOnWarmPoolIsRecorded is the edit path's contract: after a
// cold compile records the base program, a one-token-edited variant
// (a whole-tree miss) compiles to the same bytes as a cache-free
// compile of the edited program, and is itself recorded, so compiling
// the edit again is a whole-tree hit. The body edit changes neither
// declarations nor any token length (the cuts stay put), so base and
// edit differ in one fragment only; the declaration edit changes the
// global symbol table every fragment receives.
func TestEditOnWarmPoolIsRecorded(t *testing.T) {
	base := workload.Generate(workload.Tiny())
	body := editSameLen(t, base, "(gtotal - gtotal)", "(gtotal - gcount)")
	decl := editSameLen(t, base, "scale = 4", "scale = 7")
	for _, c := range []struct {
		name   string
		edited string
		width  int
	}{
		{"width2", body, 2},
		{"width4", body, 4},
		{"declaration", decl, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			pool := parallel.NewPool(parallel.PoolOptions{Workers: 4})
			defer pool.Close()
			opts := parallel.Options{Fragments: c.width}

			editedJob := pascalSrcJob(t, c.edited)
			want := coldProgram(t, editedJob, opts)
			cold, err := pool.Compile(context.Background(), pascalSrcJob(t, base), opts)
			if err != nil {
				t.Fatal(err)
			}
			if cold.Program == want {
				t.Fatal("edited program is identical to base — the edit compiled to nothing new")
			}
			compileTwice(t, pool, editedJob, opts, want)
		})
	}
}

// TestIncrementalRepeatedEditsStaySound recompiles the edited variant
// many times on one pool: the first compile of the edit is cold and
// records, and every later one is a whole-tree hit returning the same
// bytes as the simulated cluster.
func TestIncrementalRepeatedEditsStaySound(t *testing.T) {
	base := workload.Generate(workload.Tiny())
	edited := editSameLen(t, base, "(gtotal - gtotal)", "(gtotal - gcount)")
	pool := parallel.NewPool(parallel.PoolOptions{Workers: 4})
	defer pool.Close()
	ctx := context.Background()
	opts := parallel.Options{Fragments: 4}

	if _, err := pool.Compile(ctx, pascalSrcJob(t, base), opts); err != nil {
		t.Fatal(err)
	}
	editedJob := pascalSrcJob(t, edited)
	want := clusterProgram(t, editedJob, opts.Fragments)
	const runs = 20
	for i := 0; i < runs; i++ {
		res, err := pool.Compile(ctx, editedJob, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Program != want {
			t.Fatalf("run %d: program differs from the simulated cluster's", i)
		}
	}
	if st := pool.Stats(); st.CacheHits != runs-1 || st.CacheMisses != 2 {
		t.Errorf("%d hit(s) and %d miss(es), want %d and 2", st.CacheHits, st.CacheMisses, runs-1)
	}
}

// TestIncrementalConcurrentStress compiles a base program and three
// edits of it concurrently on one cached pool (32 jobs under -race):
// cold runs of one tree race each other's recordings and whole-tree
// hits race cold runs of other trees. Every job's output must equal
// the simulated cluster's compile of its own source, and the cache must end up
// holding exactly one recording per distinct tree.
func TestIncrementalConcurrentStress(t *testing.T) {
	base := workload.Generate(workload.Tiny())
	variants := []string{
		base,
		editSameLen(t, base, "(gtotal - gtotal)", "(gtotal - gcount)"),
		editSameLen(t, base, "(gcount - gcount)", "(gcount - gtotal)"),
		editSameLen(t, base, "scale = 4", "scale = 7"),
	}
	opts := parallel.Options{Fragments: 4}
	jobs := make([]cluster.Job, len(variants))
	refs := make([]string, len(variants))
	for i, src := range variants {
		jobs[i] = pascalSrcJob(t, src)
		refs[i] = clusterProgram(t, jobs[i], opts.Fragments)
	}

	pool := parallel.NewPool(parallel.PoolOptions{Workers: 4})
	defer pool.Close()
	ctx := context.Background()

	// Half the jobs share the reference trees (compiles of one tree
	// take turns); the other half each parse their own, so identical
	// sources also race freely.
	const jobsN = 32
	trees := make([]cluster.Job, jobsN)
	for i := range trees {
		trees[i] = jobs[i%len(jobs)]
		if i >= jobsN/2 {
			trees[i] = pascalSrcJob(t, variants[i%len(variants)])
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, jobsN)
	got := make([]string, jobsN)
	for i := 0; i < jobsN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := pool.Compile(ctx, trees[i], opts)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = res.Program
		}(i)
	}
	wg.Wait()
	for i := 0; i < jobsN; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if got[i] != refs[i%len(refs)] {
			t.Errorf("job %d (variant %d): program differs from the simulated cluster's", i, i%len(refs))
		}
	}
	st := pool.Stats()
	if st.CacheEntries != len(variants) || st.CacheHits+st.CacheMisses != jobsN {
		t.Errorf("cache after the stress: %d entries, %d hits + %d misses; want %d entries and %d lookups",
			st.CacheEntries, st.CacheHits, st.CacheMisses, len(variants), jobsN)
	}
}
