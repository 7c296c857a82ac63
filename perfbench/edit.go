package main

import (
	"time"

	"pag"
	"pag/internal/parallel"
	"pag/internal/pascal"
)

// edit-loop shape: sessions of one cold course-sized compile followed
// by a chain of cumulative one-token edits, each decomposed wider than
// the pool so most fragments are replay candidates.
const (
	editSessions    = 2
	editsPerSession = 20
	editWidth       = 8
)

type editState struct {
	lang     *pascal.Lang
	orc      *oracle
	sessions [][]string // base program, then its cumulative edits
}

func setupEdit(seed int64) (*editState, error) {
	st := &editState{}
	gen := pascal.MustNew()
	var keys []refKey
	for s := 0; s < editSessions; s++ {
		base := genProgram(shapeCourse, progSeed(seed, 1, s))
		sess := append([]string{base}, editChain(base, editsPerSession, progSeed(seed, 2, s))...)
		st.sessions = append(st.sessions, sess)
		for _, src := range sess {
			keys = append(keys, refKey{src, editWidth})
		}
	}
	var err error
	if st.orc, err = buildOracle(gen, keys); err != nil {
		return nil, err
	}
	if st.lang, err = pascal.New(); err != nil {
		return nil, err
	}
	st.loop(budget{jobs: editsPerSession + 1}, nil)
	return st, nil
}

// timeEditStart times what an edit session waits for before its first
// compile: grammar build and OAG analysis, then a cached pool.
func timeEditStart() (time.Duration, error) {
	t := time.Now()
	_, err := pascal.New()
	pool := pag.NewPool(pag.PoolOptions{Workers: workers})
	d := time.Since(t)
	pool.Close()
	return d, err
}

// loop is edit-loop's closed loop with one client. Each pass replays
// one session on a fresh 2-worker pool with the in-memory cache on:
// the base compiles cold ("cold") and records, then every edit is
// re-parsed and compiled ("edit") at width editWidth. A fresh pool per
// pass gives every pass the same cache state. It returns the records,
// and the summed pool counters.
func (st *editState) loop(b budget, rec *recorder) ([]jobRec, parallel.PoolStats) {
	var recs []jobRec
	var sum parallel.PoolStats
	start := time.Now()
	for pass := 0; !b.done(start, len(recs)); pass++ {
		pool := pag.NewPool(pag.PoolOptions{Workers: workers})
		for j, src := range st.sessions[pass%len(st.sessions)] {
			if b.done(start, len(recs)) {
				break
			}
			b.host.tick()
			class := "edit"
			if j == 0 {
				class = "cold"
			}
			recs = append(recs, compileLocal(pool, st.lang, st.orc, class, refKey{src, editWidth}, compileOpts(editWidth), traceEvery(rec, len(recs)), len(recs)))
		}
		ps := pool.Stats()
		pool.Close()
		sum.CacheHits += ps.CacheHits
		sum.CacheMisses += ps.CacheMisses
		sum.CacheEvicted += ps.CacheEvicted
		sum.CacheBytes = ps.CacheBytes
	}
	return recs, sum
}

func runEdit(cfg config) (*outcome, error) {
	st, err := setupEdit(cfg.seed)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	s := &out.metrics
	if !cfg.trace {
		host, err := startHost()
		if err != nil {
			return nil, err
		}
		defer host.close()
		setupS, err := medianSetup(setupReps, host, timeEditStart)
		if err != nil {
			return nil, err
		}
		rss, err := startRSS("self")
		if err != nil {
			return nil, err
		}
		steal := startSteal()
		recs, _ := st.loop(budget{d: cfg.seconds, host: host}, nil)
		steal.finish(s)
		if err := host.close(); err != nil {
			return nil, err
		}
		tally(out, recs)
		addSetup(s, setupS, setupReps, host)
		addEndToEnd(s, recs, recs, st.orc, host)
		host.report(s)
		return out, rss.finish(s)
	}
	rec := newRecorder()
	all, ps := st.loop(budget{d: cfg.seconds}, rec)
	tally(out, all)
	un, tr := splitTraced(all)
	s.add("error_rate", "fraction", ratio(float64(out.failed), float64(out.attempted)), out.attempted)
	s.add("latency_p99_ms", "ms", quantile(latencies(un), 0.99), len(un))
	addTraceOverhead(s, latencies(un), latencies(tr))
	addLayers(s, tr)
	addPartial(s, pick(all, "edit"))
	addPoolDeltas(s, parallel.PoolStats{}, ps)
	addSelfTimes(rec, out)
	if err := addAnalyze(s, st.lang); err != nil {
		return nil, err
	}
	var bases []string
	for _, sess := range st.sessions {
		bases = append(bases, sess[0])
	}
	return out, addIsolated(s, st.lang, bases, editWidth, true, false, rec)
}
