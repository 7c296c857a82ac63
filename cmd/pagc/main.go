// Command pagc is the parallel Pascal compiler generated from the
// attribute grammar, running on the simulated network multiprocessor:
//
//	pagc [flags] file.pas       # compile a file
//	pagc -workload course       # compile a generated workload instead
//
// Flags select the machine count, the evaluator (combined or dynamic),
// the decomposition granularity and the §4.3 optimizations; -gantt
// prints the machine activity chart and -S the produced VAX assembly
// (-q suppresses everything but the assembly). The evaluator and the
// §4.3 switches (-mode, -nolibrarian, -uidchain) are ablations of the
// simulator: -batch and -daemon run the paper's configuration and
// refuse them.
//
// Batch mode drives many files through one persistent compile pool on
// the real shared-memory runtime instead of the simulator; the pool's
// content-addressed whole-job cache returns the recorded result of a
// duplicate source instead of re-evaluating it (-cache-bytes sizes it,
// negative disables):
//
//	pagc -batch [-workers 8] [-cache-bytes N] a.pas b.pas c.pas
//
// -cache-dir persists the pool's whole-job results to a crash-safe
// on-disk store, so a later batch (a separate process) serves files
// this one compiled straight from disk (see README "Persistent
// cache"):
//
//	pagc -batch -cache-dir ~/.cache/pag a.pas b.pas
//
// -dump-source prints the generated workload source instead of
// compiling it:
//
//	pagc -workload tiny -dump-source > v1.pas
//
// Daemon mode submits the job to a running pagd instead of compiling
// in-process, retrying transient failures (connection errors and
// 502/503/504, never a response that started streaming) with
// exponential jittered backoff:
//
//	pagc -daemon http://localhost:8642 -retries 3 -S file.pas
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"pag/internal/cluster"
	"pag/internal/experiments"
	"pag/internal/parallel"
	"pag/internal/pascal"
	"pag/internal/tree"
	"pag/internal/workload"
)

func main() {
	machines := flag.Int("n", 1, "number of evaluator machines (1..6)")
	mode := flag.String("mode", "combined", "simulator evaluator: combined or dynamic (-batch and -daemon run combined)")
	gran := flag.Int("granularity", 0, "split granularity in bytes (0 = tree size / machines)")
	noLib := flag.Bool("nolibrarian", false, "simulator ablation: disable the string librarian")
	chain := flag.Bool("uidchain", false, "simulator ablation: propagate unique-id counters instead of per-evaluator bases")
	gantt := flag.Bool("gantt", false, "print the machine activity chart")
	asm := flag.Bool("S", false, "print the produced VAX assembly")
	quiet := flag.Bool("q", false, "suppress the compilation summary (with -S: print assembly only)")
	check := flag.Bool("check", false, "run grammar diagnostics instead of compiling: check a spec file operand (or the builtin Pascal grammar) and exit 1 on errors")
	jsonOut := flag.Bool("json", false, "with -check: emit the diagnostic report as JSON")
	wl := flag.String("workload", "", "compile a generated workload (tiny, small, course) instead of a file")
	dump := flag.Bool("dump-source", false, "print the generated -workload source instead of compiling it")
	batch := flag.Bool("batch", false, "compile every file through one persistent pool on the real multicore runtime")
	workers := flag.Int("workers", 0, "batch mode: pool worker goroutines (0 = all CPUs)")
	cacheBytes := flag.Int64("cache-bytes", 0, "batch mode: whole-job cache budget in bytes (0 = default, <0 = disable)")
	cacheDir := flag.String("cache-dir", "", "batch mode: persist the whole-job cache to this directory across runs (empty = in-memory only)")
	priority := flag.String("priority", "", `batch and daemon modes: admission class of the jobs ("high" or "low"; "" = high)`)
	daemon := flag.String("daemon", "", "compile via a running pagd at this base URL (e.g. http://localhost:8642) instead of in-process")
	retries := flag.Int("retries", -1, "daemon mode: retries for requests that failed before a response body started (-1 = default 2)")
	retryBackoff := flag.Duration("retry-backoff", 0, "daemon mode: base of the exponential (jittered) retry backoff (0 = default 200ms)")
	flag.Parse()

	cfg := config{
		machines: *machines, modeName: *mode, gran: *gran,
		check: *check, jsonOut: *jsonOut,
		noLib: *noLib, chain: *chain, gantt: *gantt, asm: *asm, quiet: *quiet,
		wl: *wl, dump: *dump, batch: *batch, workers: *workers, cacheBytes: *cacheBytes,
		cacheDir:  *cacheDir,
		priority:  *priority,
		daemonURL: *daemon, retries: *retries, retryBackoff: *retryBackoff,
	}
	if err := run(os.Stdout, cfg, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "pagc:", err)
		os.Exit(1)
	}
}

type config struct {
	machines int
	modeName string
	gran     int
	// check switches to the grammar-diagnostics mode (check.go);
	// jsonOut selects its JSON report format.
	check      bool
	jsonOut    bool
	noLib      bool
	chain      bool
	gantt      bool
	asm        bool
	quiet      bool
	wl         string
	dump       bool
	batch      bool
	workers    int
	cacheBytes int64
	cacheDir   string
	priority   string
	// Daemon mode: base URL of a running pagd, plus the HTTP retry
	// policy (see daemon.go). retries -1 and retryBackoff 0 mean "use
	// the defaults"; setting them without -daemon is an error.
	daemonURL    string
	retries      int
	retryBackoff time.Duration
}

func run(out io.Writer, cfg config, args []string) error {
	if cfg.dump {
		if cfg.wl == "" {
			return fmt.Errorf("-dump-source prints a generated workload; combine it with -workload")
		}
		if cfg.batch || cfg.daemonURL != "" || len(args) > 0 {
			return fmt.Errorf("-dump-source only prints the -workload source; drop the other operands")
		}
		src, err := workloadSource(cfg.wl)
		if err != nil {
			return err
		}
		_, err = io.WriteString(out, src)
		return err
	}
	if cfg.jsonOut && !cfg.check {
		return fmt.Errorf("-json formats the -check report; combine it with -check")
	}
	if cfg.check {
		if cfg.batch || cfg.daemonURL != "" || cfg.wl != "" {
			return fmt.Errorf("-check runs grammar diagnostics without compiling; drop -batch, -daemon and -workload")
		}
		return runCheck(out, cfg, args)
	}
	// Validate the granularity once, before any mode dispatch: an
	// impossible -granularity fails identically everywhere instead of
	// being clamped or deferred.
	if cfg.gran != 0 && cfg.gran < tree.MinGranularity {
		return &parallel.GranularityError{Granularity: cfg.gran}
	}
	if cfg.daemonURL != "" {
		return runDaemon(out, cfg, args)
	}
	if cfg.retries > 0 {
		return fmt.Errorf("-retries retries daemon requests; combine it with -daemon")
	}
	if cfg.retryBackoff != 0 {
		return fmt.Errorf("-retry-backoff paces daemon retries; combine it with -daemon")
	}
	if cfg.batch {
		return runBatch(out, cfg, args)
	}
	// -n documents 1..6 (the paper's machine-count range); enforce it
	// instead of silently simulating impossible hardware.
	if cfg.machines < 1 || cfg.machines > experiments.MaxMachines {
		return fmt.Errorf("-n %d out of range: the testbed has 1..%d evaluator machines", cfg.machines, experiments.MaxMachines)
	}
	if cfg.workers != 0 {
		return fmt.Errorf("-workers configures the -batch pool; single-job simulator runs size with -n")
	}
	if cfg.cacheBytes != 0 {
		return fmt.Errorf("-cache-bytes configures the -batch pool's whole-job cache; the simulator has none")
	}
	if cfg.cacheDir != "" {
		return fmt.Errorf("-cache-dir persists the -batch pool's whole-job cache; the simulator has none")
	}
	if cfg.priority != "" {
		return fmt.Errorf("-priority classes order admission on the -batch pool; the simulator runs one job")
	}

	var src string
	switch {
	case cfg.wl != "":
		// Extra file operands alongside -workload used to be silently
		// ignored; make the conflict explicit.
		if len(args) > 0 {
			return fmt.Errorf("-workload %s conflicts with file operand(s) %v: pass one or the other", cfg.wl, args)
		}
		var err error
		if src, err = workloadSource(cfg.wl); err != nil {
			return err
		}
	case len(args) == 1:
		data, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		src = string(data)
	case len(args) > 1:
		return fmt.Errorf("got %d file operands %v, want exactly one (use -batch to compile many files)", len(args), args)
	default:
		return fmt.Errorf("usage: pagc [flags] file.pas  (or -workload course)")
	}

	mode, err := cluster.ModeByName(cfg.modeName)
	if err != nil {
		return err
	}

	l := pascal.MustNew()
	job, err := l.ClusterJob(src)
	if err != nil {
		return err
	}
	opts := experiments.DefaultOptions()
	opts.Machines = cfg.machines
	opts.Mode = mode
	opts.Granularity = cfg.gran
	opts.Librarian = !cfg.noLib
	opts.UIDPreset = !cfg.chain

	res, err := cluster.Run(job, opts)
	if err != nil {
		return err
	}

	if errs := pascal.SemanticErrors(res.RootAttrs); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "error:", e)
		}
		return fmt.Errorf("%d semantic error(s)", len(errs))
	}

	if !cfg.quiet {
		fmt.Fprintf(out, "compiled on %d machine(s), %s evaluator: parse %v + evaluate %v\n",
			cfg.machines, mode, res.ParseTime, res.EvalTime)
		fmt.Fprintf(out, "fragments: %d %v (balance %.2f), %d messages, %d payload bytes, %.1f%% attributes dynamic\n",
			res.Frags, res.Decomp.Sizes(), res.Decomp.Balance(), res.Messages, res.Bytes,
			res.Stats.DynamicFraction()*100)
	}
	if cfg.gantt {
		fmt.Fprint(out, res.Trace.Gantt(100))
	}
	if cfg.asm {
		fmt.Fprintln(out, res.Program)
	} else if !cfg.quiet {
		fmt.Fprintf(out, "generated %d bytes of VAX assembly (use -S to print)\n", len(res.Program))
	}
	return nil
}

// refuseAblations rejects the simulator's evaluator ablations in the
// modes that run the paper's configuration on a real runtime; where
// says which ("batch mode runs", "the daemon runs").
func refuseAblations(cfg config, where string) error {
	switch {
	case cfg.modeName != "combined":
		return fmt.Errorf("-mode selects the simulator's evaluator; %s the combined evaluator only", where)
	case cfg.noLib:
		return fmt.Errorf("-nolibrarian is a simulator ablation; %s the paper's configuration", where)
	case cfg.chain:
		return fmt.Errorf("-uidchain is a simulator ablation; %s the paper's configuration", where)
	}
	return nil
}

func workloadSource(name string) (string, error) {
	cfg, err := workload.ByName(name)
	if err != nil {
		return "", err
	}
	return workload.Generate(cfg), nil
}

// batchResult is one file's outcome in a batch run.
type batchResult struct {
	file string
	res  *parallel.Result
	err  error
}

// runBatch compiles every operand through one persistent pool on the
// real shared-memory runtime, all files in flight concurrently.
func runBatch(out io.Writer, cfg config, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: pagc -batch [flags] file.pas...")
	}
	if cfg.wl != "" {
		return fmt.Errorf("-batch compiles file operands; -workload is the single-job mode")
	}
	// Simulator-only flags must not be silently ignored: batch mode
	// runs on the real multicore runtime, where -workers sets the
	// width and there is no machine activity chart.
	if cfg.machines != 1 {
		return fmt.Errorf("-n selects simulated machines; batch mode runs on the real runtime (use -workers)")
	}
	if cfg.gantt {
		return fmt.Errorf("-gantt is a simulator feature; batch mode has no machine activity chart")
	}
	if err := refuseAblations(cfg, "batch mode runs"); err != nil {
		return err
	}
	prio, err := parallel.ParsePriority(cfg.priority)
	if err != nil {
		return err
	}
	l := pascal.MustNew()
	// Every file is submitted at once, so size the admission queue to
	// the batch: the point of the bounded queue is to protect a
	// service from unbounded strangers, not to refuse work this
	// process already holds in argv.
	poolOpts := parallel.PoolOptions{Workers: cfg.workers, QueueDepth: len(args), CacheBytes: cfg.cacheBytes}
	if cfg.cacheDir != "" {
		// The disk layer records and replays through the in-memory
		// cache, so persisting a disabled cache cannot work.
		if cfg.cacheBytes < 0 {
			return fmt.Errorf("-cache-dir persists the whole-job cache, which -cache-bytes %d disables", cfg.cacheBytes)
		}
		store, err := parallel.OpenDiskCache(cfg.cacheDir, 0)
		if err != nil {
			return err
		}
		poolOpts.DiskCache = store
	}
	pool := parallel.NewPool(poolOpts)
	defer pool.Close()
	opts := parallel.Options{Granularity: cfg.gran, Priority: prio}
	results := make([]batchResult, len(args))

	compileOne := func(i int, file string) {
		results[i] = batchResult{file: file}
		data, err := os.ReadFile(file)
		if err != nil {
			results[i].err = err
			return
		}
		job, err := l.ClusterJob(string(data))
		if err != nil {
			results[i].err = err
			return
		}
		res, err := pool.Compile(context.Background(), job, opts)
		if err != nil {
			results[i].err = err
			return
		}
		if errs := pascal.SemanticErrors(res.RootAttrs); len(errs) > 0 {
			results[i].err = fmt.Errorf("%d semantic error(s): %s", len(errs), errs[0])
			return
		}
		results[i].res = res
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i, file := range args {
		wg.Add(1)
		go func(i int, file string) {
			defer wg.Done()
			compileOne(i, file)
		}(i, file)
	}
	wg.Wait()
	wall := time.Since(start)

	failed := 0
	for _, r := range results {
		if r.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "pagc: %s: %v\n", r.file, r.err)
			continue
		}
		if !cfg.quiet {
			fmt.Fprintf(out, "%s: %d bytes of VAX assembly, %d fragment(s), %v (split %v + eval %v + splice %v)",
				r.file, len(r.res.Program), r.res.Frags, r.res.WallTime,
				r.res.SplitTime, r.res.EvalTime, r.res.SpliceTime)
			fmt.Fprintf(out, ", %d message(s), balance %.2f", r.res.Messages, r.res.PlanStats.Balance)
			fmt.Fprintln(out)
		}
		if cfg.asm {
			fmt.Fprintf(out, "; ==== %s ====\n%s\n", r.file, r.res.Program)
		}
	}
	if !cfg.quiet {
		fmt.Fprintf(out, "batch: %d/%d file(s) on a %d-worker pool in %v\n",
			len(args)-failed, len(args), pool.Workers(), wall)
		if st := pool.Stats(); st.CacheCapBytes > 0 {
			fmt.Fprintf(out, "cache: %d hit(s), %d miss(es)\n", st.CacheHits, st.CacheMisses)
			if cfg.cacheDir != "" {
				// Spills are write-behind: the write count settles when
				// the deferred Close flushes, so it may still be low here.
				fmt.Fprintf(out, "disk: %d hit(s), %d write(s) so far, %d error(s)\n",
					st.DiskHits, st.DiskWrites, st.DiskErrors)
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d file(s) failed", failed, len(args))
	}
	return nil
}
