package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync"
	"time"

	"pag"
	"pag/internal/fleet"
	"pag/internal/pascal"
)

// fleetPrograms is how many distinct course-sized programs fleet-http
// cycles through.
const fleetPrograms = 4

// fleetState is fleet-http after setup: a local 2-worker pool and a
// coordinator pool whose jobs evaluate on two in-process fleet.Workers
// served over loopback HTTP, both with the cache off.
type fleetState struct {
	lang          *pascal.Lang
	local, remote *pag.Pool
	client        *fleet.Client
	servers       []*http.Server
	serving       sync.WaitGroup
	httpc         *http.Client
	orc           *oracle
	srcs          []string
}

func setupFleet(seed int64) (*fleetState, error) {
	st := &fleetState{}
	gen := pascal.MustNew()
	var keys []refKey
	for i := 0; i < fleetPrograms; i++ {
		src := genProgram(shapeCourse, progSeed(seed, 3, i))
		st.srcs = append(st.srcs, src)
		keys = append(keys, refKey{src, workers})
	}
	var err error
	if st.orc, err = buildOracle(gen, keys); err != nil {
		return nil, err
	}
	if err := st.start(); err != nil {
		st.close()
		return nil, err
	}
	st.loop(budget{jobs: 2 * fleetPrograms}, nil)
	return st, nil
}

// timeFleetStart times one start of a throwaway system.
func timeFleetStart() (time.Duration, error) {
	tmp := &fleetState{}
	t := time.Now()
	err := tmp.start()
	d := time.Since(t)
	if cerr := tmp.close(); err == nil {
		err = cerr
	}
	return d, err
}

// start brings the system up: grammar and analysis, the local pool,
// two fleet workers listening on loopback, the fleet client (one
// health probe of each worker), the coordinator and its pool.
func (st *fleetState) start() error {
	lang, err := pascal.New()
	if err != nil {
		return err
	}
	st.lang = lang
	st.local = pag.NewPool(pag.PoolOptions{Workers: workers, CacheBytes: -1})
	st.httpc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	var addrs []string
	for i := 0; i < workers; i++ {
		w := fleet.NewWorker()
		w.Register(lang.G, lang.A, lang.TerminalAttrs)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: w.Routes()}
		st.servers = append(st.servers, srv)
		st.serving.Add(1)
		go func() {
			defer st.serving.Done()
			srv.Serve(ln) //nolint:errcheck // ends with ErrServerClosed at Shutdown
		}()
		addrs = append(addrs, "http://"+ln.Addr().String())
	}
	st.client = fleet.NewClient(fleet.ClientOptions{
		Workers:     addrs,
		Transport:   &fleet.HTTPTransport{Client: st.httpc},
		CallTimeout: 10 * time.Second,
	})
	st.client.Start()
	co := fleet.NewCoordinator(fleet.CoordinatorOptions{Client: st.client})
	st.remote = pag.NewPool(pag.PoolOptions{Workers: workers, CacheBytes: -1, Remote: co})
	return nil
}

// close stops everything start started and waits for it.
func (st *fleetState) close() error {
	if st.remote != nil {
		st.remote.Close()
	}
	if st.local != nil {
		st.local.Close()
	}
	if st.client != nil {
		st.client.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for _, srv := range st.servers {
		errs = append(errs, srv.Shutdown(ctx))
	}
	st.serving.Wait()
	if st.httpc != nil {
		st.httpc.CloseIdleConnections()
	}
	st.local, st.remote, st.client, st.servers, st.httpc = nil, nil, nil, nil, nil
	return errors.Join(errs...)
}

// loop is fleet-http's closed loop with one client: each step compiles
// the next program on the local pool ("local"), then through the
// fleet ("fleet"), both at width 2. With a recorder, every other step
// is traced; spans are kept for the fleet compile.
func (st *fleetState) loop(b budget, rec *recorder) []jobRec {
	var recs []jobRec
	start := time.Now()
	opts := compileOpts(workers)
	for i := 0; !b.done(start, len(recs)); i++ {
		b.host.tick()
		k := refKey{st.srcs[i%len(st.srcs)], workers}
		r := traceEvery(rec, i)
		local := compileLocal(st.local, st.lang, st.orc, "local", k, opts, nil, len(recs))
		local.traced = r != nil
		recs = append(recs, local)
		recs = append(recs, compileLocal(st.remote, st.lang, st.orc, "fleet", k, opts, r, len(recs)))
	}
	return recs
}

func runFleet(cfg config) (*outcome, error) {
	st, err := setupFleet(cfg.seed)
	if err != nil {
		return nil, err
	}
	out, err := measureFleet(cfg, st)
	if cerr := st.close(); err == nil && cerr != nil {
		err = cerr
	}
	return out, err
}

func measureFleet(cfg config, st *fleetState) (*outcome, error) {
	out := &outcome{}
	s := &out.metrics
	if !cfg.trace {
		host, err := startHost()
		if err != nil {
			return nil, err
		}
		defer host.close()
		setupS, err := medianSetup(setupReps, host, timeFleetStart)
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
		addEndToEnd(s, pick(recs, "fleet"), recs, st.orc, host)
		host.report(s)
		addFleetTax(s, recs)
		return out, rss.finish(s)
	}
	rec := newRecorder()
	all := st.loop(budget{d: cfg.seconds}, rec)
	tally(out, all)
	un, tr := splitTraced(all)
	addFleetTax(s, un)
	s.add("error_rate", "fraction", ratio(float64(out.failed), float64(out.attempted)), out.attempted)
	s.add("latency_p99_ms", "ms", quantile(latencies(pick(un, "fleet")), 0.99), len(pick(un, "fleet")))
	addTraceOverhead(s, latencies(pick(un, "fleet")), latencies(pick(tr, "fleet")))
	addLayers(s, pick(tr, "fleet"))
	addFleetOverhead(s, all)
	addSelfTimes(rec, out)
	if err := addAnalyze(s, st.lang); err != nil {
		return nil, err
	}
	return out, addIsolated(s, st.lang, st.srcs, workers, false, false, rec)
}

// addFleetTax reports the median fleet-over-HTTP latency over the
// median local-pool latency, same programs, same width, same run, with
// both medians.
func addFleetTax(s *sheet, recs []jobRec) {
	local, fl := latencies(pick(recs, "local")), latencies(pick(recs, "fleet"))
	s.add("latency_local_p50_ms", "ms", median(local), len(local))
	s.add("latency_fleet_p50_ms", "ms", median(fl), len(fl))
	s.add("fleet_tax", "x", ratio(median(fl), median(local)), len(local)+len(fl))
}

// addFleetOverhead reports the fleet's added latency: per program, the
// median fleet latency minus the median local latency; the median of
// those differences over the programs.
func addFleetOverhead(s *sheet, recs []jobRec) {
	by := make(map[string][2][]float64)
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		v := by[r.key.src]
		if r.class == "fleet" {
			v[1] = append(v[1], ms(r.lat))
		} else {
			v[0] = append(v[0], ms(r.lat))
		}
		by[r.key.src] = v
	}
	var diffs []float64
	for _, v := range by {
		if len(v[0]) > 0 && len(v[1]) > 0 {
			diffs = append(diffs, median(v[1])-median(v[0]))
		}
	}
	s.add("fleet.overhead_ms", "ms", median(diffs), len(diffs))
}
