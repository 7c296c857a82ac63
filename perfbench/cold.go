package main

import (
	"time"

	"pag"
	"pag/internal/pascal"
)

// coldPrograms is how many distinct course-sized programs cold-course
// cycles through.
const coldPrograms = 8

// coldState is cold-course after setup: a 2-worker and a 1-worker
// pool, both with the cache off, and the programs with their
// references at width 2 and width 1.
type coldState struct {
	lang   *pascal.Lang
	p2, p1 *pag.Pool
	orc    *oracle
	srcs   []string
}

func setupCold(seed int64) (*coldState, error) {
	st := &coldState{}
	gen := pascal.MustNew()
	var keys []refKey
	for i := 0; i < coldPrograms; i++ {
		src := genProgram(shapeCourse, progSeed(seed, 0, i))
		st.srcs = append(st.srcs, src)
		keys = append(keys, refKey{src, workers}, refKey{src, 1})
	}
	var err error
	if st.orc, err = buildOracle(gen, keys); err != nil {
		return nil, err
	}
	if err := st.start(); err != nil {
		return nil, err
	}
	// Warm the pools and the runtime's allocator before timing.
	st.loop(budget{jobs: 2 * coldPrograms}, nil)
	return st, nil
}

// start is what a compiler user waits for before the first compile:
// grammar build and OAG analysis, then the pools.
func (st *coldState) start() error {
	lang, err := pascal.New()
	if err != nil {
		return err
	}
	st.lang = lang
	st.p2 = pag.NewPool(pag.PoolOptions{Workers: workers, CacheBytes: -1})
	st.p1 = pag.NewPool(pag.PoolOptions{Workers: 1, CacheBytes: -1})
	return nil
}

func (st *coldState) close() {
	if st.p2 != nil {
		st.p2.Close()
		st.p1.Close()
	}
}

// timeColdStart times one start of a throwaway system.
func timeColdStart() (time.Duration, error) {
	tmp := &coldState{}
	t := time.Now()
	err := tmp.start()
	d := time.Since(t)
	tmp.close()
	return d, err
}

// loop is cold-course's closed loop with one client: each step
// compiles the next program on the 2-worker pool at width 2 ("w2"),
// then on the 1-worker pool at width 1 ("w1"). With a recorder, every
// other step is traced; spans are kept for the w2 compile only, the
// headline configuration.
func (st *coldState) loop(b budget, rec *recorder) []jobRec {
	var recs []jobRec
	start := time.Now()
	for i := 0; !b.done(start, len(recs)); i++ {
		b.host.tick()
		src := st.srcs[i%len(st.srcs)]
		r := traceEvery(rec, i)
		recs = append(recs, compileLocal(st.p2, st.lang, st.orc, "w2", refKey{src, workers}, compileOpts(workers), r, len(recs)))
		w1 := compileLocal(st.p1, st.lang, st.orc, "w1", refKey{src, 1}, compileOpts(1), nil, len(recs))
		w1.traced = r != nil
		recs = append(recs, w1)
	}
	return recs
}

func runCold(cfg config) (*outcome, error) {
	st, err := setupCold(cfg.seed)
	if err != nil {
		return nil, err
	}
	defer st.close()
	out := &outcome{}
	s := &out.metrics
	if !cfg.trace {
		host, err := startHost()
		if err != nil {
			return nil, err
		}
		defer host.close()
		setupS, err := medianSetup(setupReps, host, timeColdStart)
		if err != nil {
			return nil, err
		}
		rss, err := startRSS("self")
		if err != nil {
			return nil, err
		}
		steal := startSteal()
		recs := st.loop(budget{d: cfg.seconds, host: host}, nil)
		steal.finish(s)
		if err := host.close(); err != nil {
			return nil, err
		}
		tally(out, recs)
		addSetup(s, setupS, setupReps, host)
		addEndToEnd(s, pick(recs, "w2"), recs, st.orc, host)
		host.report(s)
		addSpeedup(s, recs)
		return out, rss.finish(s)
	}
	rec := newRecorder()
	all := st.loop(budget{d: cfg.seconds}, rec)
	tally(out, all)
	un, tr := splitTraced(all)
	addSpeedup(s, un)
	s.add("error_rate", "fraction", ratio(float64(out.failed), float64(out.attempted)), out.attempted)
	s.add("latency_p99_ms", "ms", quantile(latencies(pick(un, "w2")), 0.99), len(pick(un, "w2")))
	addTraceOverhead(s, latencies(pick(un, "w2")), latencies(pick(tr, "w2")))
	addLayers(s, pick(tr, "w2"))
	s.add("parallel.eval_speedup_2w", "x", ratio(median(evalTimes(pick(tr, "w1"))), median(evalTimes(pick(tr, "w2")))), len(tr))
	addSelfTimes(rec, out)
	if err := addAnalyze(s, st.lang); err != nil {
		return nil, err
	}
	return out, addIsolated(s, st.lang, st.srcs, workers, false, false, rec)
}

// addSpeedup reports the paper's figure on real cores: the median
// latency at 1 worker and width 1 over the median at 2 workers and
// width 2, same programs, same run, with both medians.
func addSpeedup(s *sheet, recs []jobRec) {
	w1, w2 := latencies(pick(recs, "w1")), latencies(pick(recs, "w2"))
	s.add("latency_w1_p50_ms", "ms", median(w1), len(w1))
	s.add("latency_w2_p50_ms", "ms", median(w2), len(w2))
	s.add("speedup_2w", "x", ratio(median(w1), median(w2)), len(w1)+len(w2))
}

// evalTimes returns the evaluation phase times of successful records.
func evalTimes(recs []jobRec) []float64 {
	var xs []float64
	for _, r := range recs {
		if r.err == nil && r.hasRes {
			xs = append(xs, ms(r.res.eval))
		}
	}
	return xs
}
