package main

import (
	"context"
	"fmt"
	"time"

	"pag"
	"pag/internal/eval"
	"pag/internal/parallel"
	"pag/internal/pascal"
	"pag/internal/tree"
)

// workers is the pool width of every workload: nproc on the machine
// the benchmark was designed on, and the "2w" of speedup_2w.
const workers = 2

// setupReps is how many times an in-process workload sets up a
// throwaway copy of the system before its measured loop; setup_s is
// the median.
const setupReps = 21

// budget bounds a closed loop by time, by job count, or both (a zero
// field is no bound). Timed runs use the duration; the benchmark's
// determinism tests use the job count. With host set, the loop samples
// the host between jobs.
type budget struct {
	d    time.Duration
	jobs int
	host *hostMeter
}

func (b budget) done(start time.Time, n int) bool {
	return (b.jobs > 0 && n >= b.jobs) || (b.d > 0 && time.Since(start) >= b.d)
}

// resInfo is the part of a parallel.Result the layer budget reads,
// copied out so a run keeps no trees or programs alive.
type resInfo struct {
	wall, split, plan, eval, splice          time.Duration
	frags, messages, stored, storedBytes     int
	partialHits, demoted                     int
	instances, dynamic, graphNodes           int
	balance                                  float64
	remoteFrags, fleetRetries, fleetRequeues int
	degraded                                 bool
}

func infoOf(r *parallel.Result) resInfo {
	return resInfo{
		wall: r.WallTime, split: r.SplitTime, plan: r.PlanStats.PlanTime, eval: r.EvalTime, splice: r.SpliceTime,
		frags: r.Frags, messages: r.Messages, stored: r.StoredStrings, storedBytes: r.StoredBytes,
		partialHits: r.PartialHits, demoted: r.Demoted,
		instances: r.Stats.DynamicEvals + r.Stats.StaticEvals, dynamic: r.Stats.DynamicEvals,
		graphNodes: r.Stats.GraphNodes, balance: r.PlanStats.Balance,
		remoteFrags: r.RemoteFrags, fleetRetries: r.FleetRetries, fleetRequeues: r.FleetRequeues,
		degraded: r.Degraded,
	}
}

// jobRec is what the benchmark keeps of one measured compile.
type jobRec struct {
	class    string
	key      refKey
	lat      time.Duration // source text in, checked assembly out
	parse    time.Duration // Lang.Parse (in-process compiles)
	call     time.Duration // Pool.Compile call (in-process compiles)
	srcBytes int
	treeSize int
	res      resInfo
	hasRes   bool
	traced   bool // measured with the span recorder on
	err      error
}

// compileLocal parses k.src, compiles it on pool and checks the output
// against the oracle. With a recorder, the job's spans are recorded
// from the timestamps the untraced path takes anyway.
func compileLocal(pool *pag.Pool, lang *pascal.Lang, orc *oracle, class string, k refKey, opts parallel.Options, rec *recorder, id int) jobRec {
	r := jobRec{class: class, key: k, srcBytes: len(k.src), traced: rec != nil}
	t0 := time.Now()
	job, err := lang.ClusterJob(k.src)
	t1 := time.Now()
	var res *parallel.Result
	if err == nil {
		res, err = pool.Compile(context.Background(), job, opts)
	}
	t2 := time.Now()
	if err == nil {
		err = orc.check(k, res.Program, res.RootAttrs)
	}
	t3 := time.Now()
	r.lat, r.parse, r.call, r.err = t3.Sub(t0), t1.Sub(t0), t2.Sub(t1), err
	if res != nil {
		r.res, r.hasRes = infoOf(res), true
		r.treeSize = job.Root.Size()
	}
	if rec != nil {
		js := rec.add(id, "job", -1, t0, t3)
		rec.add(id, "pascal.parse", js, t0, t1)
		cs := rec.add(id, "parallel.compile", js, t1, t2)
		rec.phases(id, cs, t1, t2.Sub(t1), res)
		rec.add(id, "check", js, t2, t3)
	}
	return r
}

// tally counts attempts and failures, keeping the first few failure
// messages for the report.
func tally(out *outcome, recs []jobRec) {
	for _, r := range recs {
		out.attempted++
		if r.err != nil {
			out.failed++
			if len(out.violations) < 5 {
				out.violations = append(out.violations, fmt.Sprintf("%s: %v", r.class, r.err))
			}
		}
	}
}

// pick returns the records of one class.
func pick(recs []jobRec, class string) []jobRec {
	var out []jobRec
	for _, r := range recs {
		if r.class == class {
			out = append(out, r)
		}
	}
	return out
}

// latencies returns the latencies of the successful records, in ms.
func latencies(recs []jobRec) []float64 {
	var xs []float64
	for _, r := range recs {
		if r.err == nil {
			xs = append(xs, ms(r.lat))
		}
	}
	return xs
}

// addEndToEnd puts the end-to-end metrics every workload shares on
// the sheet: latency percentiles of the headline records and the
// throughput of all checked compiles, the gated ones scaled to
// design-machine time (see hostMeter) with raw figures beside them,
// the error rate, and the code size of the distinct programs compiled.
func addEndToEnd(s *sheet, head, all []jobRec, orc *oracle, host *hostMeter) {
	lat := latencies(head)
	k := host.scale()
	s.add("latency_p50_ms", "ms", k*median(lat), len(lat))
	s.add("latency_p90_ms", "ms", k*quantile(lat, 0.9), len(lat))
	s.add("raw.latency_p50_ms", "ms", median(lat), len(lat))
	s.add("latency_p99_ms", "ms", quantile(lat, 0.99), len(lat))
	done := latencies(all)
	rate := busyRate(done)
	s.add("throughput_jobs_s", "jobs/s", ratio(rate, k), len(done))
	s.add("raw.throughput_jobs_s", "jobs/s", rate, len(done))
	s.add("error_rate", "fraction", ratio(float64(len(all)-len(done)), float64(len(all))), len(all))
	keys := make(map[refKey]bool)
	for _, r := range all {
		keys[r.key] = true
	}
	s.add("code_bytes", "bytes", orc.sumCodeBytes(keys), len(keys))
}

// addSetup puts the median set-up time on the sheet, scaled to
// design-machine time, with the raw figure beside it.
func addSetup(s *sheet, setupS float64, n int, host *hostMeter) {
	s.add("setup_s", "s", host.scale()*setupS, n)
	s.add("raw.setup_s", "s", setupS, n)
}

// addLayers puts the per-job layer metrics of the records that carry a
// parallel.Result on the sheet.
func addLayers(s *sheet, recs []jobRec) {
	var parse, queue, split, plan, evalT, splice, serial []float64
	var srcBytes, parseSecs float64
	var tree, bal, inst, graph, msgs, frags, stored, storedKB, remote []float64
	var dyn, instTotal, retries, requeues, degraded float64
	n := 0
	for _, r := range recs {
		if r.err != nil || !r.hasRes {
			continue
		}
		n++
		if r.parse > 0 {
			parse = append(parse, ms(r.parse))
			srcBytes += float64(r.srcBytes)
			parseSecs += r.parse.Seconds()
			tree = append(tree, float64(r.treeSize)/1024)
		}
		if r.call > 0 {
			queue = append(queue, ms(max(r.call-r.res.wall, 0)))
		}
		split = append(split, ms(r.res.split))
		plan = append(plan, ms(r.res.plan))
		evalT = append(evalT, ms(r.res.eval))
		splice = append(splice, ms(r.res.splice))
		serial = append(serial, ratio(ms(r.parse+r.res.split+r.res.splice), ms(r.lat)))
		bal = append(bal, r.res.balance)
		inst = append(inst, float64(r.res.instances))
		graph = append(graph, float64(r.res.graphNodes))
		msgs = append(msgs, float64(r.res.messages))
		frags = append(frags, float64(r.res.frags))
		stored = append(stored, float64(r.res.stored))
		storedKB = append(storedKB, float64(r.res.storedBytes)/1024)
		remote = append(remote, float64(r.res.remoteFrags))
		dyn += float64(r.res.dynamic)
		instTotal += float64(r.res.instances)
		retries += float64(r.res.fleetRetries)
		requeues += float64(r.res.fleetRequeues)
		if r.res.degraded {
			degraded++
		}
	}
	s.add("pascal.parse_ms", "ms", median(parse), len(parse))
	s.add("pascal.parse_mb_s", "MB/s", ratio(srcBytes/1e6, parseSecs), len(parse))
	s.add("pascal.tree_kb", "KiB", mean(tree), len(tree))
	s.add("tree.balance", "ratio", mean(bal), n)
	s.add("eval.instances", "count", mean(inst), n)
	s.add("eval.dynamic_frac", "fraction", ratio(dyn, instTotal), n)
	s.add("eval.graph_nodes", "count", mean(graph), n)
	s.add("parallel.queue_ms", "ms", median(queue), len(queue))
	s.add("parallel.split_ms", "ms", median(split), n)
	s.add("parallel.plan_ms", "ms", median(plan), n)
	s.add("parallel.eval_ms", "ms", median(evalT), n)
	s.add("parallel.splice_ms", "ms", median(splice), n)
	s.add("parallel.serial_frac", "fraction", median(serial), n)
	s.add("parallel.messages", "count", mean(msgs), n)
	s.add("parallel.frags", "count", mean(frags), n)
	s.add("rope.stored_strings", "count", mean(stored), n)
	s.add("rope.stored_kb", "KiB", mean(storedKB), n)
	s.add("fleet.remote_frags_per_job", "count", mean(remote), n)
	s.add("fleet.retries", "count", retries, n)
	s.add("fleet.requeues", "count", requeues, n)
	s.add("fleet.degraded_jobs", "count", degraded, n)
}

// addPoolDeltas puts the cache and disk counters a pool moved between
// two snapshots on the sheet.
func addPoolDeltas(s *sheet, before, after parallel.PoolStats) {
	hits := float64(after.CacheHits - before.CacheHits)
	lookups := hits + float64(after.CacheMisses-before.CacheMisses)
	s.add("cache.hit_ratio", "fraction", ratio(hits, lookups), int(lookups))
	s.add("cache.evictions", "count", float64(after.CacheEvicted-before.CacheEvicted), int(lookups))
	s.add("cache.kb", "KiB", float64(after.CacheBytes)/1024, 1)
	s.add("cas.disk_hits", "count", float64(after.DiskHits-before.DiskHits), int(lookups))
	s.add("cas.disk_writes", "count", float64(after.DiskWrites-before.DiskWrites), int(lookups))
	s.add("cas.disk_errors", "count", float64(after.DiskErrors-before.DiskErrors), int(lookups))
}

// addPartial puts the incremental-replay ratios of edit jobs on the
// sheet: fragments replayed over fragments, and demotions per job.
func addPartial(s *sheet, edits []jobRec) {
	var hits, frags, demoted float64
	n := 0
	for _, r := range edits {
		if r.err == nil && r.hasRes {
			n++
			hits += float64(r.res.partialHits)
			frags += float64(r.res.frags)
			demoted += float64(r.res.demoted)
		}
	}
	s.add("cache.partial_hit_ratio", "fraction", ratio(hits, frags), n)
	s.add("cache.demotions_per_job", "count", ratio(demoted, float64(n)), n)
}

// addAnalyze times the OAG analysis of the Pascal grammar.
func addAnalyze(s *sheet, lang *pascal.Lang) error {
	const reps = 5
	var xs []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		if _, err := pag.Analyze(lang.G); err != nil {
			return err
		}
		xs = append(xs, ms(time.Since(t)))
	}
	s.add("ag.analyze_ms", "ms", median(xs), reps)
	return nil
}

// addIsolated times the tree and evaluator layers on copies of each
// program's parse tree, outside any compile: Node.Clone,
// tree.DecomposeWith at the workload's width, Decomposition.Digests
// (only where the workload's cache hashes trees) and the sequential
// static evaluator, the reference the parallel runtime is measured
// against. With parse set (a workload whose parses happen in another
// process), it also times Lang.Parse of each program.
func addIsolated(s *sheet, lang *pascal.Lang, srcs []string, width int, digests, parse bool, rec *recorder) error {
	const reps = 3
	var clone, decomp, digs, static, parses, treeKB []float64
	var srcBytes, parseSecs float64
	id := -1
	for _, src := range srcs {
		t := time.Now()
		root, err := lang.Parse(src)
		if err != nil {
			return err
		}
		d := time.Since(t)
		parses = append(parses, ms(d))
		srcBytes += float64(len(src))
		parseSecs += d.Seconds()
		treeKB = append(treeKB, float64(root.Size())/1024)
		for i := 0; i < reps; i++ {
			id--
			t0 := time.Now()
			c := root.Clone()
			t1 := time.Now()
			dec := tree.DecomposeWith(c, tree.GranularityFor(c, width), width, tree.PlanSize, nil)
			t2 := time.Now()
			if digests {
				dec.Digests()
			}
			t3 := time.Now()
			c2 := root.Clone()
			t4 := time.Now()
			if err := eval.NewStatic(lang.A, eval.Hooks{}).EvaluateTree(c2); err != nil {
				return err
			}
			t5 := time.Now()
			clone = append(clone, ms(t1.Sub(t0)))
			decomp = append(decomp, ms(t2.Sub(t1)))
			if digests {
				digs = append(digs, ms(t3.Sub(t2)))
				rec.add(id, "tree.digests", -1, t2, t3)
			}
			static = append(static, ms(t5.Sub(t4)))
			rec.add(id, "tree.clone", -1, t0, t1)
			rec.add(id, "tree.decompose", -1, t1, t2)
			rec.add(id, "eval.static", -1, t4, t5)
		}
	}
	s.add("tree.clone_ms", "ms", median(clone), len(clone))
	s.add("tree.decompose_ms", "ms", median(decomp), len(decomp))
	s.add("tree.digests_ms", "ms", median(digs), len(digs))
	s.add("eval.static_ms", "ms", median(static), len(static))
	if parse {
		s.add("pascal.parse_ms", "ms", median(parses), len(parses))
		s.add("pascal.parse_mb_s", "MB/s", ratio(srcBytes/1e6, parseSecs), len(parses))
		s.add("pascal.tree_kb", "KiB", mean(treeKB), len(treeKB))
	}
	return nil
}

// splitTraced separates the untraced records of a traced run from the
// traced ones. Traced runs interleave the two job by job, so both
// halves see the same inputs and the same machine noise.
func splitTraced(recs []jobRec) (untraced, traced []jobRec) {
	for _, r := range recs {
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	return untraced, traced
}

// traceEvery returns rec for every other job and nil for the rest.
func traceEvery(rec *recorder, i int) *recorder {
	if i%2 == 0 {
		return nil
	}
	return rec
}

// addTraceOverhead compares the traced jobs' median latency with the
// untraced jobs'.
func addTraceOverhead(s *sheet, untraced, traced []float64) {
	u := median(untraced)
	s.add("trace.overhead_pct", "%", 100*ratio(median(traced)-u, u), len(traced))
}
