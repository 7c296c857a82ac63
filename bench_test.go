package pag_test

// One benchmark per paper table/figure (DESIGN.md experiment index).
// Benchmarks report two kinds of numbers: Go wall-clock per run (the
// cost of running the reproduction) and, where meaningful, the
// simulated 1987 running time via the sim_ms metric — the number the
// paper actually plots.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"pag/internal/ag"
	"pag/internal/arena"
	"pag/internal/cluster"
	"pag/internal/eval"
	"pag/internal/experiments"
	"pag/internal/exprlang"
	"pag/internal/fleet"
	"pag/internal/parallel"
	"pag/internal/pascal"
	"pag/internal/rope"
	"pag/internal/symtab"
	"pag/internal/vax"
	"pag/internal/workload"
)

func benchPoint(b *testing.B, mode cluster.Mode, machines int, opts cluster.Options) {
	b.Helper()
	var last experiments.Fig5Point
	for i := 0; i < b.N; i++ {
		pt, err := experiments.RunPoint(mode, machines, opts)
		if err != nil {
			b.Fatal(err)
		}
		last = pt
	}
	b.ReportMetric(float64(last.EvalTime.Milliseconds()), "sim_ms")
	b.ReportMetric(float64(last.Frags), "frags")
}

// BenchmarkFig5 regenerates every point of the running-times figure.
func BenchmarkFig5(b *testing.B) {
	for _, mode := range []cluster.Mode{cluster.Combined, cluster.Dynamic} {
		for m := 1; m <= experiments.MaxMachines; m++ {
			b.Run(fmt.Sprintf("%s/machines=%d", mode, m), func(b *testing.B) {
				benchPoint(b, mode, m, experiments.DefaultOptions())
			})
		}
	}
}

// BenchmarkParallelPascal measures the REAL shared-memory parallel
// runtime on the paper's Pascal workload at 1/2/4/8 workers. Unlike
// BenchmarkFig5 these are wall-clock numbers on this machine: ns/op is
// the actual compile time, and on a multicore machine the 4-worker run
// should beat the 1-worker run by well over 1.5x (on a single-CPU
// machine the curve is flat — see Figure 8's caption). frags reports
// the decomposition width.
func BenchmarkParallelPascal(b *testing.B) {
	job, err := experiments.Job()
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opts := parallel.Options{Workers: w}
			var last *parallel.Result
			for i := 0; i < b.N; i++ {
				res, err := parallel.Run(job, opts)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.Frags), "frags")
			b.SetBytes(int64(len(last.Program)))
		})
	}
}

// BenchmarkAdaptive measures a full uncached compile under the §2.5
// size-driven decomposition at 2/4/8 workers, on the paper's Pascal
// workload and the appendix grammar. ns/op is the whole compile;
// msgs/op is the cross-fragment attribute message count (the paper's
// network-traffic economy) and frags the resulting width. The
// subbenchmark names carry the planner (plan=size) so the baselines
// tracked by the benchstat regression gate keep matching.
func BenchmarkAdaptive(b *testing.B) {
	pascalJob, err := experiments.Job()
	if err != nil {
		b.Fatal(err)
	}
	el := exprlang.MustNew()
	ea, err := ag.Analyze(el.G)
	if err != nil {
		b.Fatal(err)
	}
	eroot, err := el.Parse(exprlang.Generate(10, 8))
	if err != nil {
		b.Fatal(err)
	}
	exprJob := cluster.Job{G: el.G, A: ea, Root: eroot, Lex: el.TerminalAttrs}

	jobs := []struct {
		name string
		job  cluster.Job
		opts parallel.Options
	}{
		{"pascal", pascalJob, parallel.Options{}},
		{"exprlang", exprJob, parallel.Options{}},
	}
	for _, j := range jobs {
		for _, w := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("%s/plan=size/workers=%d", j.name, w), func(b *testing.B) {
				opts := j.opts
				opts.Workers = w
				opts.NoCache = true
				var last *parallel.Result
				for i := 0; i < b.N; i++ {
					res, err := parallel.Run(j.job, opts)
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(float64(last.Messages), "msgs/op")
				b.ReportMetric(float64(last.Frags), "frags")
			})
		}
	}
}

// BenchmarkPoolReuse measures what the persistent compile service
// buys: the same job compiled through one long-lived Pool (workers
// and deques reused across jobs, analysis shared) versus a
// fresh one-shot runtime per compilation (parallel.Run), which is what
// a naive service would do. The pool case is the steady state of
// cmd/pagd; the gap between the two is the per-job setup/teardown
// overhead the Pool amortizes.
func BenchmarkPoolReuse(b *testing.B) {
	pascalJob, err := pascal.MustNew().ClusterJob(workload.Generate(workload.Tiny()))
	if err != nil {
		b.Fatal(err)
	}
	el := exprlang.MustNew()
	ea, err := ag.Analyze(el.G)
	if err != nil {
		b.Fatal(err)
	}
	eroot, err := el.Parse("1+2*(3+4)+5*6")
	if err != nil {
		b.Fatal(err)
	}
	microJob := cluster.Job{G: el.G, A: ea, Root: eroot, Lex: el.TerminalAttrs}

	cases := []struct {
		name string
		job  cluster.Job
		opts parallel.Options
	}{
		// micro: a near-empty job, so ns/op is almost purely the
		// per-job runtime setup/teardown the pool amortizes. NoCache
		// keeps this a measurement of pool reuse, not of the fragment
		// cache (BenchmarkFragmentCache measures that).
		{"micro", microJob, parallel.Options{Workers: 4, NoCache: true}},
		// tiny-pascal: a small but real compilation, the shape a
		// compile service actually serves.
		{"tiny-pascal", pascalJob, parallel.Options{Workers: 4, NoCache: true}},
	}
	for _, c := range cases {
		b.Run(c.name+"/pool", func(b *testing.B) {
			pool := parallel.NewPool(parallel.PoolOptions{Workers: 4})
			defer pool.Close()
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pool.Compile(ctx, c.job, c.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/oneshot", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := parallel.Run(c.job, c.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFragmentCache measures what the content-addressed fragment
// cache buys a pool serving repeated traffic: the same tiny-pascal job
// compiled through one pool cold (cache bypassed — every compile
// evaluates every attribute) versus warm (every compile after the
// first is a whole-tree hit that returns the recorded result). Warm
// runs still cut and hash the tree, but run no fragment and flatten
// no rope — the recorded program is already one leaf. The warm side must stay >= 2x faster for the cache to earn its
// complexity. The hits metric reports cache hits per op (warm steady
// state: 1).
func BenchmarkFragmentCache(b *testing.B) {
	job, err := pascal.MustNew().ClusterJob(workload.Generate(workload.Tiny()))
	if err != nil {
		b.Fatal(err)
	}
	opts := parallel.Options{Workers: 4}
	ctx := context.Background()

	b.Run("cold", func(b *testing.B) {
		pool := parallel.NewPool(parallel.PoolOptions{Workers: 4})
		defer pool.Close()
		o := opts
		o.NoCache = true
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pool.Compile(ctx, job, o); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		pool := parallel.NewPool(parallel.PoolOptions{Workers: 4})
		defer pool.Close()
		if _, err := pool.Compile(ctx, job, opts); err != nil {
			b.Fatal(err) // prime the cache
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pool.Compile(ctx, job, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := pool.Stats()
		if st.CacheHits < int64(b.N) {
			b.Fatalf("warm loop missed the cache: %+v", st)
		}
		b.ReportMetric(float64(st.CacheHits)/float64(b.N), "hits/op")
	})
}

// BenchmarkWarmRestart measures what the persistent cache buys a
// process restart: one "process" (open store + pool, compile, close)
// per op, either over a fresh directory every time (cold-start —
// nothing to replay, the spill is pure overhead) or over one primed
// directory (warm-restart — every op replays the recording a previous
// process left on disk). The gap is the restart economy `pagd
// -cache-dir` exists for; diskhits/op confirms the warm loop really
// served from disk. Tracked by the benchstat regression gate.
func BenchmarkWarmRestart(b *testing.B) {
	job, err := pascal.MustNew().ClusterJob(workload.Generate(workload.Tiny()))
	if err != nil {
		b.Fatal(err)
	}
	opts := parallel.Options{Workers: 4}
	ctx := context.Background()

	process := func(b *testing.B, dir string) int64 {
		store, err := parallel.OpenDiskCache(dir, 0)
		if err != nil {
			b.Fatal(err)
		}
		pool := parallel.NewPool(parallel.PoolOptions{Workers: 4, DiskCache: store})
		if _, err := pool.Compile(ctx, job, opts); err != nil {
			b.Fatal(err)
		}
		hits := pool.Stats().DiskHits
		pool.Close()
		return hits
	}

	b.Run("cold-start", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			process(b, b.TempDir())
		}
	})
	b.Run("warm-restart", func(b *testing.B) {
		dir := b.TempDir()
		process(b, dir) // prime: the "previous process" records to disk
		b.ReportAllocs()
		b.ResetTimer()
		var hits int64
		for i := 0; i < b.N; i++ {
			hits += process(b, dir)
		}
		b.StopTimer()
		if hits < int64(b.N) {
			b.Fatalf("warm-restart loop missed disk: %d hit(s) over %d op(s)", hits, b.N)
		}
		b.ReportMetric(float64(hits)/float64(b.N), "diskhits/op")
	})
}

// BenchmarkSustainedLoad drives one pool the way a busy pagd sees it:
// 32 submitter goroutines pushing a mixed stream of jobs — half warm
// cache hits, a quarter incremental edits, a quarter forced-cold
// compiles — across rotating client identities and both priority
// classes, through a MaxInFlight bound tighter than the offered
// concurrency so the admission queue is genuinely exercised. ns/op is
// sustained per-job service time (throughput's reciprocal); p50_ms and
// p99_ms report the client-observed latency distribution, the number
// an operator actually watches. Tracked by the benchstat regression
// gate.
func BenchmarkSustainedLoad(b *testing.B) {
	lang := pascal.MustNew()
	base := workload.Generate(workload.Tiny())
	const oldTok, newTok = "'total '", "'tutal '"
	edited := strings.Replace(base, oldTok, newTok, 1)
	if edited == base {
		b.Fatalf("edit target %q not found in the tiny workload", oldTok)
	}
	baseJob, err := lang.ClusterJob(base)
	if err != nil {
		b.Fatal(err)
	}
	editedJob, err := lang.ClusterJob(edited)
	if err != nil {
		b.Fatal(err)
	}
	opts := parallel.Options{Workers: 4, Fragments: 6}

	pool := parallel.NewPool(parallel.PoolOptions{Workers: 4, MaxInFlight: 8, QueueDepth: 64})
	defer pool.Close()
	ctx := context.Background()
	if _, err := pool.Compile(ctx, baseJob, opts); err != nil {
		b.Fatal(err) // prime the cache so the warm mix is actually warm
	}

	const submitters = 32
	var mu sync.Mutex
	latencies := make([]time.Duration, 0, b.N)
	jobs := make(chan int)
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]time.Duration, 0, b.N/submitters+1)
			for i := range jobs {
				o := opts
				o.Client = fmt.Sprintf("client-%d", i%5)
				if i%3 == 0 {
					o.Priority = parallel.PriorityLow
				}
				job := baseJob
				switch i % 4 {
				case 2:
					job = editedJob // incremental replay
				case 3:
					o.NoCache = true // forced cold compile
				}
				start := time.Now()
				if _, err := pool.Compile(ctx, job, o); err != nil {
					b.Error(err)
					return
				}
				local = append(local, time.Since(start))
			}
			mu.Lock()
			latencies = append(latencies, local...)
			mu.Unlock()
		}()
	}
	for i := 0; i < b.N; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	b.StopTimer()
	if len(latencies) == 0 {
		return
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	q := func(p float64) float64 {
		i := int(p * float64(len(latencies)-1))
		return float64(latencies[i]) / float64(time.Millisecond)
	}
	b.ReportMetric(q(0.50), "p50_ms")
	b.ReportMetric(q(0.99), "p99_ms")
}

// BenchmarkT3Sequential compares the sequential evaluators (CPU time
// and allocation of the reproduction itself, plus simulated time).
func BenchmarkT3Sequential(b *testing.B) {
	b.Run("static", func(b *testing.B) { benchPoint(b, cluster.Combined, 1, experiments.DefaultOptions()) })
	b.Run("dynamic", func(b *testing.B) { benchPoint(b, cluster.Dynamic, 1, experiments.DefaultOptions()) })
}

// BenchmarkT2CombinedStats reports the dynamic-evaluation fraction.
func BenchmarkT2CombinedStats(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		f, err := experiments.T2DynamicFraction(5)
		if err != nil {
			b.Fatal(err)
		}
		frac = f
	}
	b.ReportMetric(frac*100, "dyn_pct")
}

// BenchmarkT4Librarian measures result propagation with and without
// the string librarian.
func BenchmarkT4Librarian(b *testing.B) {
	withLib := experiments.DefaultOptions()
	naive := experiments.DefaultOptions()
	naive.Librarian = false
	b.Run("librarian", func(b *testing.B) { benchPoint(b, cluster.Combined, 5, withLib) })
	b.Run("naive", func(b *testing.B) { benchPoint(b, cluster.Combined, 5, naive) })
}

// BenchmarkT5Pipeline runs the pipelined-compiler baseline.
func BenchmarkT5Pipeline(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.T5Pipeline()
		if err != nil {
			b.Fatal(err)
		}
		speedup = r.Speedup
	}
	b.ReportMetric(speedup, "speedup")
}

// BenchmarkT7Priority measures the priority-attribute ablation.
func BenchmarkT7Priority(b *testing.B) {
	on := experiments.DefaultOptions()
	off := experiments.DefaultOptions()
	off.NoPriority = true
	b.Run("priority", func(b *testing.B) { benchPoint(b, cluster.Dynamic, 5, on) })
	b.Run("fifo", func(b *testing.B) { benchPoint(b, cluster.Dynamic, 5, off) })
}

// BenchmarkT8UniqueIDs measures the unique-identifier ablation.
func BenchmarkT8UniqueIDs(b *testing.B) {
	preset := experiments.DefaultOptions()
	chain := experiments.DefaultOptions()
	chain.UIDPreset = false
	b.Run("preset", func(b *testing.B) { benchPoint(b, cluster.Combined, 5, preset) })
	b.Run("chain", func(b *testing.B) { benchPoint(b, cluster.Combined, 5, chain) })
}

// BenchmarkT9Parse measures real parser throughput on the course
// program (the reproduction's own speed, not simulated).
func BenchmarkT9Parse(b *testing.B) {
	l := experiments.Lang()
	src := experiments.Source()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExprParse measures the appendix-language parser on a sum of
// let-blocks the size of a small job, beside BenchmarkT9Parse.
func BenchmarkExprParse(b *testing.B) {
	l := exprlang.MustNew()
	src := exprlang.Generate(64, 32)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT10Assemble measures the size assembler.
func BenchmarkT10Assemble(b *testing.B) {
	r, err := experiments.T10AssemblySize()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(r.Ratio, "asm_to_mc_ratio")
	job, err := experiments.Job()
	if err != nil {
		b.Fatal(err)
	}
	opts := experiments.DefaultOptions()
	opts.Machines = 1
	opts.Mode = cluster.Combined
	res, err := cluster.Run(job, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(res.Program)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vax.MachineSize(res.Program)
	}
}

// BenchmarkT11ParallelMake runs the parallel-make baseline.
func BenchmarkT11ParallelMake(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.T11ParallelMake()
		if err != nil {
			b.Fatal(err)
		}
		speedup = r.Speedup
	}
	b.ReportMetric(speedup, "speedup")
}

// BenchmarkT12Rope compares O(1) rope concatenation against flat
// string concatenation for building a code attribute from n snippets.
func BenchmarkT12Rope(b *testing.B) {
	const n = 2000
	snippet := "\tmovl r0, r1\n"
	b.Run("rope", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var r *rope.Rope
			for j := 0; j < n; j++ {
				r = rope.Concat(r, rope.Leaf(snippet))
			}
			if r.Len() != n*len(snippet) {
				b.Fatal("bad length")
			}
		}
	})
	b.Run("string", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := ""
			for j := 0; j < n; j++ {
				s += snippet
			}
			if len(s) != n*len(snippet) {
				b.Fatal("bad length")
			}
		}
	})
}

// BenchmarkT12Symtab measures applicative symbol-table updates.
func BenchmarkT12Symtab(b *testing.B) {
	names := make([]string, 256)
	for i := range names {
		names[i] = fmt.Sprintf("ident%03d", i)
	}
	b.Run("insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := symtab.New()
			for j, n := range names {
				t = t.Add(n, j)
			}
		}
	})
	b.Run("lookup", func(b *testing.B) {
		t := symtab.New()
		for j, n := range names {
			t = t.Add(n, j)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := t.Lookup(names[i%len(names)]); !ok {
				b.Fatal("missing")
			}
		}
	})
}

// BenchmarkT12Arena compares bump allocation against the Go allocator
// (the paper's "very fast memory allocation ... no provision for
// reusing memory").
func BenchmarkT12Arena(b *testing.B) {
	type node struct {
		a, b, c int64
		p       *node
	}
	b.Run("arena", func(b *testing.B) {
		var ar arena.Arena[node]
		for i := 0; i < b.N; i++ {
			n := ar.New()
			n.a = int64(i)
		}
	})
	b.Run("new", func(b *testing.B) {
		var sink *node
		for i := 0; i < b.N; i++ {
			n := &node{a: int64(i)}
			sink = n
		}
		_ = sink
	})
}

// BenchmarkHotPath isolates the evaluation hot path from rule work:
// pure-arithmetic attribute rules (interned ints, shared empty symbol
// table) over a fixed tree, so ns/op and allocs/op measure the
// evaluator machinery itself. The static-visit steady state must stay
// at 0 allocs/op; the build+run cases bound the per-compilation graph
// construction cost.
func BenchmarkHotPath(b *testing.B) {
	l := exprlang.MustNew()
	a, err := ag.Analyze(l.G)
	if err != nil {
		b.Fatal(err)
	}
	var src strings.Builder
	src.WriteString("1")
	for i := 0; i < 300; i++ {
		src.WriteString("+2*(3+4)")
	}
	root, err := l.Parse(src.String())
	if err != nil {
		b.Fatal(err)
	}
	instances := root.CountAttrs()

	b.Run("static-visit", func(b *testing.B) {
		st := eval.NewStatic(a, eval.Hooks{})
		visits := a.NumVisits(root.Sym)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for v := 1; v <= visits; v++ {
				st.Visit(root, v)
			}
		}
		b.ReportMetric(float64(instances), "instances")
	})
	b.Run("dynamic-build-run", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := eval.NewDynamic(l.G, root, eval.Hooks{})
			if d.Run(); !d.Done() {
				b.Fatal("evaluator blocked")
			}
		}
		b.ReportMetric(float64(instances), "instances")
	})
	b.Run("combined-build-run", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := eval.NewCombined(a, root, nil, eval.Hooks{})
			if c.Run(); !c.Done() {
				b.Fatal("evaluator blocked")
			}
		}
		b.ReportMetric(float64(instances), "instances")
	})
	b.Run("tree-clone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if root.Clone() == nil {
				b.Fatal("nil clone")
			}
		}
	})
}

// BenchmarkEvaluators measures the reproduction's own evaluator
// throughput on the course program (attribute instances per second).
func BenchmarkEvaluators(b *testing.B) {
	l := experiments.Lang()
	src := workload.Generate(workload.Small())
	b.Run("static", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			root, err := l.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			st := eval.NewStatic(l.A, eval.Hooks{})
			if err := st.EvaluateTree(root); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dynamic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			root, err := l.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			d := eval.NewDynamic(l.G, root, eval.Hooks{})
			d.Run()
			if !d.Done() {
				b.Fatal("blocked")
			}
		}
	})
}

// BenchmarkFleet measures what distributed evaluation costs over the
// shared-memory pool: the same tiny-pascal job compiled by a local
// 2-worker pool, by a coordinator splitting it across 2 fleet workers
// on the in-memory transport (serialization + session protocol, no
// sockets), and across 2 real HTTP loopback workers. NoCache keeps
// every op a full evaluation; the local/mem gap is the wire-codec tax
// and the mem/http gap is the network stack.
func BenchmarkFleet(b *testing.B) {
	job, err := pascal.MustNew().ClusterJob(workload.Generate(workload.Tiny()))
	if err != nil {
		b.Fatal(err)
	}
	opts := parallel.Options{Workers: 2, NoCache: true}
	ctx := context.Background()

	compileLoop := func(b *testing.B, pool *parallel.Pool, wantRemote bool) {
		b.Helper()
		res, err := pool.Compile(ctx, job, opts)
		if err != nil {
			b.Fatal(err)
		}
		if wantRemote && res.RemoteFrags == 0 {
			b.Fatal("fleet benchmark ran locally")
		}
		b.ReportAllocs()
		b.SetBytes(int64(len(res.Program)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pool.Compile(ctx, job, opts); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("local", func(b *testing.B) {
		pool := parallel.NewPool(parallel.PoolOptions{Workers: 2})
		defer pool.Close()
		compileLoop(b, pool, false)
	})

	fleetPool := func(b *testing.B, tr fleet.Transport, addrs []string) *parallel.Pool {
		b.Helper()
		client := fleet.NewClient(fleet.ClientOptions{
			Workers:   addrs,
			Transport: tr,
			// No background loop: the fleet is static and healthy.
			HealthInterval: 0,
		})
		client.Start()
		b.Cleanup(client.Stop)
		co := fleet.NewCoordinator(fleet.CoordinatorOptions{Client: client})
		pool := parallel.NewPool(parallel.PoolOptions{Workers: 2, Remote: co})
		b.Cleanup(pool.Close)
		return pool
	}

	b.Run("fleet-mem", func(b *testing.B) {
		mem := fleet.NewMemTransport()
		var addrs []string
		for i := 0; i < 2; i++ {
			w := fleet.NewWorker()
			w.Register(job.G, job.A, job.Lex)
			addr := fmt.Sprintf("w%d", i)
			mem.Add(addr, w)
			addrs = append(addrs, addr)
		}
		compileLoop(b, fleetPool(b, mem, addrs), true)
	})

	b.Run("fleet-http", func(b *testing.B) {
		var addrs []string
		for i := 0; i < 2; i++ {
			w := fleet.NewWorker()
			w.Register(job.G, job.A, job.Lex)
			srv := httptest.NewServer(w.Routes())
			b.Cleanup(srv.Close)
			addrs = append(addrs, srv.URL)
		}
		compileLoop(b, fleetPool(b, &fleet.HTTPTransport{}, addrs), true)
	})
}
