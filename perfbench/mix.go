package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"pag/internal/parallel"
	"pag/internal/pascal"
)

// service-mix traffic classes.
const (
	clsRepeat = "repeat" // a source this pagd life compiled in warm-up: memory hit
	clsEdit   = "edit"   // a one-token edit of a warm source: partial replay
	clsNew    = "new"    // a never-seen program: cold compile, record, spill
	clsDisk   = "disk"   // a program only the previous pagd life compiled: disk load
)

// mixBlock is the class pattern of every 20 consecutive requests; the
// seed shuffles each block, the counts stay exact so every run sends
// the same mix. Every program is course-sized. Through pagd a memory
// hit and a disk load cost about the same (parse and split dominate),
// and so do a partial replay and a cold compile, half as much again.
// The two cheap classes fill the latency ranks 0-0.25 and the two dear
// ones 0.25-1, so the median falls a third of the way into the dear
// cluster and the 90th percentile well inside it, never on the gap
// between the clusters. The proportions are chosen for that, not taken
// from a measured service.
var mixBlock = []struct {
	class string
	n     int
}{{clsRepeat, 3}, {clsDisk, 2}, {clsEdit, 7}, {clsNew, 8}}

// service-mix rates and limits.
const (
	mixRate    = 12.0 // requests/s of the fixed-rate phase, about 30% of capacity
	mixLimitMs = 250  // p99 latency limit for goodput and the ladder
	mixClients = 4    // X-Pag-Client identities rotated over requests
	mixConns   = 2    // loopback connections the generator may use
	mixStarts  = 11   // pagd starts setup_s takes the median of
	mixWarm    = 4    // warm set: the sources repeats and edits draw from
	mixSegment = 24   // fixed-phase requests between two host samplings
	mixSamples = 4    // host samples per sampling
)

// mixLadder are the offered rates of the sustained-rate ladder, as
// multiples of mixRate.
var mixLadder = []float64{1, 2, 3, 4}

// deck deals the indices 0..n-1 in a fresh seeded shuffle per round.
type deck struct {
	rng   *rand.Rand
	n     int
	order []int
}

func (d *deck) next() int {
	if len(d.order) == 0 {
		d.order = d.rng.Perm(d.n)
	}
	i := d.order[0]
	d.order = d.order[1:]
	return i
}

// mixReq is one scheduled request.
type mixReq struct {
	class  string
	src    string
	due    time.Duration // from the phase start
	client string
	prio   string
	traced bool
}

// mixRec is what the generator keeps of one request.
type mixRec struct {
	req            *mixReq
	late           time.Duration // sent this long after it was due
	lat            time.Duration // due until the checked assembly
	send           time.Duration // sent until the response was read
	wallMs, evalMs float64       // server-reported job wall and eval time
	frags, partial int
	refused        bool // answered HTTP 429 or 503
	err            error
}

// mixPhase is one open-loop phase of service-mix: its rate and its
// requests.
type mixPhase struct {
	rate float64
	reqs []mixReq
}

type mixState struct {
	cfg     config
	dir     string // pagd -cache-dir
	orc     *oracle
	warm    []string
	disk    []string // compiled only by the previous pagd life
	fixed   mixPhase
	ladder  []mixPhase
	httpc   *http.Client
	d       *daemon
	setupS  float64
	allSrcs []string
}

// schedule builds every phase's requests from the seed: the fixed-rate
// phase (the whole run, or half of it in a traced run) and, in a traced
// run, the ladder (a sixteenth of the run per rung).
func (st *mixState) schedule(seed int64, seconds time.Duration, trace bool) {
	rng := rand.New(rand.NewSource(progSeed(seed, 7, 0)))
	for i := 0; i < mixWarm; i++ {
		st.warm = append(st.warm, genProgram(shapeCourse, progSeed(seed, 4, i)))
	}
	current := append([]string(nil), st.warm...) // latest edit of each warm source
	// Repeats and edits deal the warm sources evenly.
	repeats := &deck{rng: rng, n: mixWarm}
	edits := &deck{rng: rng, n: mixWarm}
	nNew, nReq := 0, 0
	build := func(n int, rate float64, traceOdd bool) mixPhase {
		ph := mixPhase{rate: rate}
		var classes []string
		for len(classes) < n {
			var block []string
			for _, b := range mixBlock {
				for i := 0; i < b.n; i++ {
					block = append(block, b.class)
				}
			}
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			classes = append(classes, block...)
		}
		for i := 0; i < n; i++ {
			r := mixReq{
				class:  classes[i],
				client: fmt.Sprintf("client-%d", nReq%mixClients),
				prio:   "high",
				due:    time.Duration(float64(i) / rate * float64(time.Second)),
				traced: traceOdd && i%2 == 1,
			}
			nReq++
			switch r.class {
			case clsRepeat:
				r.src = st.warm[repeats.next()]
			case clsEdit:
				slot := edits.next()
				current[slot] = editLiteral(current[slot], rng)
				r.src = current[slot]
			case clsNew:
				r.src = genProgram(shapeCourse, progSeed(seed, 5, nNew))
				r.prio = "low"
				nNew++
			case clsDisk:
				r.src = genProgram(shapeCourse, progSeed(seed, 6, len(st.disk)))
				st.disk = append(st.disk, r.src)
				r.prio = "low"
			}
			ph.reqs = append(ph.reqs, r)
		}
		return ph
	}
	fixed := seconds
	if trace {
		fixed /= 2
	}
	st.fixed = build(int(mixRate*fixed.Seconds()), mixRate, trace)
	if trace {
		rung := (seconds / 16).Seconds()
		for _, m := range mixLadder {
			st.ladder = append(st.ladder, build(int(m*mixRate*rung), m*mixRate, false))
		}
	}
	st.allSrcs = append(st.allSrcs, st.warm...)
	for _, ph := range append([]mixPhase{st.fixed}, st.ladder...) {
		for _, r := range ph.reqs {
			st.allSrcs = append(st.allSrcs, r.src)
		}
	}
}

// setup generates the traffic, computes the references, fills the
// cache directory with a previous pagd life and starts the measured
// one. On error the caller still closes st.
func (st *mixState) setup() error {
	cfg := st.cfg
	if cfg.pagd == "" {
		return errors.New("service-mix needs -pagd")
	}
	st.schedule(cfg.seed, cfg.seconds, cfg.trace)
	var keys []refKey
	for _, src := range st.allSrcs {
		keys = append(keys, refKey{src, workers})
	}
	var err error
	if st.orc, err = buildOracle(pascal.MustNew(), keys); err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	if st.dir, err = os.MkdirTemp(cfg.workdir, "mix-"); err != nil {
		return err
	}
	st.httpc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: mixConns, MaxIdleConnsPerHost: mixConns}}
	if err := st.previousLife(); err != nil {
		return err
	}
	// Set-up as an operator sees it: exec until /readyz answers 200
	// over the filled cache directory. The last start is the life that
	// serves the measurement.
	st.setupS, err = medianSetup(mixStarts, nil, func() (time.Duration, error) {
		if st.d != nil {
			if err := st.d.stop(); err != nil {
				return 0, err
			}
		}
		d, ready, err := startDaemon(cfg.pagd, st.dir)
		st.d = d
		return ready, err
	})
	if err != nil {
		return err
	}
	// Warm-up: the sources repeats and edits draw from, compiled once.
	for _, src := range st.warm {
		rec := st.send(&mixReq{class: "warm", src: src, client: "warm", prio: "high"}, time.Now())
		if rec.err != nil {
			return fmt.Errorf("warm-up: %w", rec.err)
		}
	}
	return nil
}

// previousLife runs a pagd over the cache directory that compiles the
// disk-class programs, so they exist only on disk for the measured
// life, and shuts it down cleanly.
func (st *mixState) previousLife() error {
	d, _, err := startDaemon(st.cfg.pagd, st.dir)
	if err != nil {
		return err
	}
	for i, src := range st.disk {
		if rec := st.sendTo(d, &mixReq{class: "fill", src: src, client: "fill", prio: "low"}, time.Now()); rec.err != nil {
			d.stop()
			return fmt.Errorf("previous life: %w", rec.err)
		}
		// Spills are write-behind through a bounded queue that drops
		// when full; keep the writer close behind so every program
		// reaches the disk.
		for deadline := time.Now().Add(10 * time.Second); ; {
			m, err := d.stats(st.httpc)
			if err != nil {
				d.stop()
				return err
			}
			if m.DiskWrites+m.DiskErrors >= int64(i+1)-8 {
				break
			}
			if time.Now().After(deadline) {
				d.stop()
				return errors.New("previous life: disk writes stalled")
			}
			time.Sleep(time.Millisecond)
		}
	}
	return d.stop()
}

func (st *mixState) send(r *mixReq, due time.Time) mixRec { return st.sendTo(st.d, r, due) }

// sendTo posts one compile request, reads the JSON-lines stream and
// checks the assembly of the final event.
func (st *mixState) sendTo(d *daemon, r *mixReq, due time.Time) mixRec {
	rec := mixRec{req: r}
	sent := time.Now()
	rec.late = sent.Sub(due)
	body, err := json.Marshal(map[string]string{"source": r.src})
	if err != nil {
		rec.err = err
		return rec
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/compile", bytes.NewReader(body))
	if err != nil {
		rec.err = err
		return rec
	}
	req.Header.Set("X-Pag-Client", r.client)
	req.Header.Set("X-Pag-Priority", r.prio)
	resp, err := st.httpc.Do(req)
	if err != nil {
		rec.err = err
		return rec
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	recv := time.Now()
	rec.send = recv.Sub(sent)
	switch {
	case err != nil:
		rec.err = err
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		rec.refused = true
		rec.err = fmt.Errorf("refused: HTTP %d", resp.StatusCode)
	case resp.StatusCode != http.StatusOK:
		rec.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	default:
		rec.err = st.checkStream(&rec, data)
	}
	rec.lat = time.Since(due)
	return rec
}

// checkStream decodes the last event of a compile stream and checks
// its assembly against the reference.
func (st *mixState) checkStream(rec *mixRec, data []byte) error {
	last := bytes.TrimSpace(data)
	if i := bytes.LastIndexByte(last, '\n'); i >= 0 {
		last = last[i+1:]
	}
	var ev struct {
		Status      string  `json:"status"`
		Error       string  `json:"error"`
		Frags       int     `json:"frags"`
		PartialHits int     `json:"partial_hits"`
		WallMs      float64 `json:"wall_ms"`
		EvalMs      float64 `json:"eval_ms"`
		Assembly    string  `json:"assembly"`
	}
	if err := json.Unmarshal(last, &ev); err != nil {
		return fmt.Errorf("bad stream event: %w", err)
	}
	if ev.Status != "done" {
		// Admission refusals inside a stream are counted by pagd's own
		// pag_admission_rejected_total.
		return fmt.Errorf("compile %s: %s", ev.Status, ev.Error)
	}
	rec.wallMs, rec.evalMs, rec.frags, rec.partial = ev.WallMs, ev.EvalMs, ev.Frags, ev.PartialHits
	return st.orc.check(refKey{rec.req.src, workers}, ev.Assembly, nil)
}

// run sends one phase open-loop: each request leaves at its due time on
// its own goroutine, whatever the state of earlier ones, over at most
// mixConns connections, and is timed from when it was due. With a host
// meter, the phase goes out in segments of mixSegment requests: once a
// segment's requests are answered, the host is sampled while pagd is
// idle (a calibration beside the open loop would compete with pagd),
// and the next segment's schedule starts after the samples.
func (st *mixState) run(ph *mixPhase, rec *recorder, host *hostMeter) []mixRec {
	recs := make([]mixRec, len(ph.reqs))
	seg := len(ph.reqs)
	if host != nil {
		seg = mixSegment
	}
	for lo := 0; lo < len(ph.reqs); lo += seg {
		var wg sync.WaitGroup
		start := time.Now().Add(-ph.reqs[lo].due)
		for i := lo; i < min(lo+seg, len(ph.reqs)); i++ {
			due := start.Add(ph.reqs[i].due)
			time.Sleep(time.Until(due))
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				recs[i] = st.send(&ph.reqs[i], due)
				if ph.reqs[i].traced {
					recordMix(rec, i, due, &recs[i])
				}
			}(i)
		}
		wg.Wait()
		for j := 0; host != nil && j < mixSamples; j++ {
			host.sample()
		}
	}
	return recs
}

// recordMix puts one request's spans on the recorder: the wait before
// sending, the HTTP exchange with the server-reported job wall time
// and evaluation time nested inside, and the check.
func recordMix(rec *recorder, id int, due time.Time, m *mixRec) {
	if rec == nil || m.err != nil {
		return
	}
	sent := due.Add(m.late)
	recv := sent.Add(m.send)
	js := rec.add(id, "job", -1, due, due.Add(m.lat))
	rec.add(id, "client.wait", js, due, sent)
	hs := rec.add(id, "pagd.request", js, sent, recv)
	wall := time.Duration(m.wallMs * float64(time.Millisecond))
	ws := rec.add(id, "pagd.wall", hs, sent, sent.Add(wall))
	rec.add(id, "parallel.eval", ws, sent, sent.Add(time.Duration(m.evalMs*float64(time.Millisecond))))
	rec.add(id, "check", js, recv, due.Add(m.lat))
}

func (st *mixState) close() error {
	var err error
	if st.d != nil {
		err = st.d.stop()
	}
	if st.httpc != nil {
		st.httpc.CloseIdleConnections()
	}
	if st.dir != "" {
		err = errors.Join(err, os.RemoveAll(st.dir))
	}
	return err
}

func runMix(cfg config) (*outcome, error) {
	st := &mixState{cfg: cfg}
	if err := st.setup(); err != nil {
		st.close()
		return nil, err
	}
	out, err := st.measure()
	// SIGTERM must end the measured life cleanly, its disk writes
	// flushed without error.
	if cerr := st.close(); cerr != nil {
		if err != nil {
			return nil, err
		}
		out.violations = append(out.violations, cerr.Error())
	}
	return out, err
}

func (st *mixState) measure() (*outcome, error) {
	cfg := st.cfg
	out := &outcome{}
	s := &out.metrics
	stats0, err := st.d.stats(st.httpc)
	if err != nil {
		return nil, err
	}
	prom0, err := st.d.prom(st.httpc)
	if err != nil {
		return nil, err
	}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	pid := fmt.Sprint(st.d.cmd.Process.Pid)
	rss, err := startRSS(pid)
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPUSeconds(pid)
	if err != nil {
		return nil, err
	}
	host, err := startHost()
	if err != nil {
		return nil, err
	}
	defer host.close()
	steal := startSteal()
	fixed := st.run(&st.fixed, rec, host)
	steal.finish(s)
	if err := host.close(); err != nil {
		return nil, err
	}
	cpu1, err := procCPUSeconds(pid)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		// pagd's resident set over the fixed-rate phase, before the
		// ladder overloads it.
		if err := rss.finish(s); err != nil {
			return nil, err
		}
	}
	stats1, err := st.d.stats(st.httpc)
	if err != nil {
		return nil, err
	}
	prom1, err := st.d.prom(st.httpc)
	if err != nil {
		return nil, err
	}
	var ladder [][]mixRec
	for i := range st.ladder {
		recs := st.run(&st.ladder[i], nil, nil)
		ladder = append(ladder, recs)
	}
	prom2, err := st.d.prom(st.httpc)
	if err != nil {
		return nil, err
	}
	all := append([]mixRec(nil), fixed...)
	for _, l := range ladder {
		all = append(all, l...)
	}
	for _, r := range all {
		out.attempted++
		if r.err != nil {
			out.failed++
			if len(out.violations) < 5 {
				out.violations = append(out.violations, fmt.Sprintf("%s: %v", r.req.class, r.err))
			}
		}
	}
	if d := promSum(prom2, "pag_cache_disk_errors_total") - promSum(prom0, "pag_cache_disk_errors_total"); d != 0 {
		out.violations = append(out.violations, fmt.Sprintf("pagd reported %v disk cache errors", d))
	}
	untraced, traced := splitMix(fixed)
	if !cfg.trace {
		lat := mixLat(untraced)
		k := host.scale()
		addSetup(s, st.setupS, mixStarts, host)
		s.add("latency_p50_ms", "ms", k*median(lat), len(lat))
		s.add("latency_p90_ms", "ms", k*quantile(lat, 0.9), len(lat))
		s.add("raw.latency_p50_ms", "ms", median(lat), len(lat))
		// The fixed-rate phase completes what the generator offers while
		// pagd keeps up, so its jobs per second are the offered rate.
		// Throughput is instead the rate pagd's CPU time allows: checked
		// jobs per second of pagd CPU time, times the CPUs it may use.
		ok := len(mixLat(fixed))
		rate := ratio(float64(ok*runtime.NumCPU()), cpu1-cpu0)
		s.add("throughput_jobs_s", "jobs/s", ratio(rate, k), ok)
		s.add("raw.throughput_jobs_s", "jobs/s", rate, ok)
		host.report(s)
		keys := make(map[refKey]bool)
		for _, src := range st.allSrcs {
			keys[refKey{src, workers}] = true
		}
		s.add("code_bytes", "bytes", st.orc.sumCodeBytes(keys), len(keys))
	}
	addMixEndToEnd(s, untraced, st.ladder, ladder)
	if !cfg.trace {
		return out, nil
	}
	addTraceOverhead(s, mixLat(untraced), mixLat(traced))
	addSelfTimes(rec, out)
	addMixLayers(s, fixed, stats0, stats1, prom0, prom1)
	lang := pascal.MustNew()
	if err := addAnalyze(s, lang); err != nil {
		return nil, err
	}
	return out, addIsolated(s, lang, st.warm, workers, true, true, rec)
}

func splitMix(recs []mixRec) (untraced, traced []mixRec) {
	for _, r := range recs {
		if r.req.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	return untraced, traced
}

// mixLat returns the latencies of the successful requests, in ms.
func mixLat(recs []mixRec) []float64 {
	var xs []float64
	for _, r := range recs {
		if r.err == nil {
			xs = append(xs, ms(r.lat))
		}
	}
	return xs
}

// addMixEndToEnd reports the open-loop figures: the fixed-rate phase's
// p99, goodput within the limit and generator lateness, the error rate
// and, when the ladder ran, the highest ladder rate that held the limit
// without a growing backlog.
func addMixEndToEnd(s *sheet, fixed []mixRec, phases []mixPhase, ladder [][]mixRec) {
	lat := mixLat(fixed)
	s.add("latency_p99_ms", "ms", quantile(lat, 0.99), len(lat))
	good := 0
	var late []float64
	for _, r := range fixed {
		if r.err == nil && ms(r.lat) <= mixLimitMs {
			good++
		}
		late = append(late, ms(r.late))
	}
	s.add("goodput_jobs_s", "jobs/s", mixRate*ratio(float64(good), float64(len(fixed))), len(fixed))
	s.add("late_p99_ms", "ms", quantile(late, 0.99), len(late))
	failed := len(fixed) - len(lat)
	s.add("error_rate", "fraction", ratio(float64(failed), float64(len(fixed))), len(fixed))
	if len(ladder) == 0 {
		return
	}
	sustained, n := 0.0, 0
	for i, recs := range ladder {
		n += len(recs)
		if ladderHolds(recs) {
			sustained = phases[i].rate
		}
	}
	s.add("sustained_rate_jobs_s", "jobs/s", sustained, n)
}

// ladderHolds reports whether one rung met the p99 limit with every
// request correct and no growing backlog: the last third of the rung
// must not wait much longer than the first third did.
func ladderHolds(recs []mixRec) bool {
	lat := mixLat(recs)
	if len(lat) != len(recs) || len(lat) < 3 || quantile(lat, 0.99) > mixLimitMs {
		return false
	}
	third := len(lat) / 3
	return median(lat[len(lat)-third:]) <= 2*median(lat[:third])+5
}

// addMixLayers reports the layers service-mix reaches through pagd:
// per-class latency, the HTTP exchange outside the job, the server's
// phase means and cache, disk and admission counters from /stats and
// /metrics deltas over the fixed-rate phase.
func addMixLayers(s *sheet, recs []mixRec, st0, st1 parallel.Metrics, p0, p1 map[string]float64) {
	by := make(map[string][]float64)
	var httpOver, frags []float64
	var editFrags, editHits float64
	edits, refused := 0, 0
	for _, r := range recs {
		if r.refused {
			refused++
		}
		if r.err != nil {
			continue
		}
		by[r.req.class] = append(by[r.req.class], ms(r.lat))
		httpOver = append(httpOver, ms(r.send)-r.wallMs)
		frags = append(frags, float64(r.frags))
		if r.req.class == clsEdit {
			edits++
			editFrags += float64(r.frags)
			editHits += float64(r.partial)
		}
	}
	for _, c := range []string{clsRepeat, clsEdit, clsNew, clsDisk} {
		s.add("mix."+c+"_p50_ms", "ms", median(by[c]), len(by[c]))
	}
	s.add("pagd.http_overhead_ms", "ms", median(httpOver), len(httpOver))
	qSum := promSum(p1, "pag_queue_wait_seconds_sum") - promSum(p0, "pag_queue_wait_seconds_sum")
	qN := promSum(p1, "pag_queue_wait_seconds_count") - promSum(p0, "pag_queue_wait_seconds_count")
	s.add("pagd.server_queue_ms", "ms", 1000*ratio(qSum, qN), int(qN))
	rejected := promSum(p1, "pag_admission_rejected_total") - promSum(p0, "pag_admission_rejected_total")
	s.add("pagd.rejected", "count", float64(refused)+rejected, len(recs))

	hist := func(name string, a, b parallel.Histogram) {
		n := b.Count - a.Count
		s.add(name, "ms", 1000*ratio(b.SumSeconds-a.SumSeconds, float64(n)), int(n))
	}
	hist("parallel.split_ms", st0.Split, st1.Split)
	hist("parallel.plan_ms", st0.PlanTime, st1.PlanTime)
	hist("parallel.eval_ms", st0.Eval, st1.Eval)
	hist("parallel.splice_ms", st0.Splice, st1.Splice)
	done := float64(st1.Done - st0.Done)
	s.add("parallel.messages", "count", ratio(float64(st1.MessagesTotal-st0.MessagesTotal), done), int(done))
	s.add("parallel.frags", "count", mean(frags), len(frags))
	s.add("cache.partial_hit_ratio", "fraction", ratio(editHits, editFrags), edits)
	s.add("cache.demotions_per_job", "count", ratio(float64(st1.CacheDemoted-st0.CacheDemoted), float64(edits)), edits)
	addPoolDeltas(s, st0.PoolStats, st1.PoolStats)
}
