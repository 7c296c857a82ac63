// Command pagd is the persistent compile service: one long-lived
// worker pool (pag.NewPool) serving compile jobs over HTTP — the
// paper's standing network multiprocessor (§3) as a daemon that
// compilations are farmed out to, instead of a machine room assembled
// per compilation.
//
//	pagd -addr :8642 -workers 8 -max-inflight 16 -queue 64 -cache-bytes 67108864 \
//	     -cache-dir /var/cache/pag -quota 8 -max-timeout 30s -debug-addr localhost:8643
//
// -cache-dir persists the whole-job cache across restarts: cold runs'
// results spill to a crash-safe on-disk store (see README "Persistent
// cache") and a restarted daemon serves identical sources from them
// byte-identically instead of recompiling. -cache-disk-bytes bounds
// the directory (0 = default 256 MiB, <0 = unbounded); several
// daemons may share one directory.
//
// Endpoints:
//
//	POST /compile   submit a job: {"source": "program ...", ...} or
//	                {"workload": "tiny"|"small"|"course", ...}, plus
//	                optional "fragments" and "timeout_ms". Every job
//	                runs the paper's configuration (combined evaluator,
//	                unique-identifier presets); a request carrying one
//	                of the removed fields "mode", "no_librarian" or
//	                "uid_chain" is refused with 400.
//	                Default: a stream of JSON-lines status events
//	                ending in {"status":"done","assembly":...} or
//	                {"status":"error",...}. With ?format=asm the
//	                response is the plain VAX assembly text (errors map
//	                to HTTP status codes), which diffs cleanly against
//	                `pagc -q -S`. With ?nocache=1 the request bypasses
//	                the pool's whole-job cache.
//	POST /check     validate a grammar specification: {"spec": "..."}.
//	                Answers the diagnostics report as JSON — 200 when
//	                the grammar is clean (warnings and advisories
//	                allowed), 422 when any finding has error severity.
//	GET  /healthz   liveness probe ("ok").
//	GET  /readyz    readiness probe: 503 while draining for shutdown or
//	                while the pool is saturated (slots and queue full),
//	                200 "ready" otherwise.
//	GET  /metrics   Prometheus text exposition (counters, gauges and
//	                latency histograms; see parallel.WritePrometheus).
//	GET  /stats     the same snapshot as JSON (in-flight, queue depths,
//	                rejections, cache counters, histograms).
//
// Distributed mode: `pagd -worker` serves as a fleet evaluation worker
// (the session RPCs under /fleet/ plus /healthz and /readyz), and a
// coordinator daemon started with `-fleet http://h1:9001,http://h2:9001`
// evaluates fragments on those workers — health-checked routing,
// retry/requeue with exponential backoff (-fleet-retries,
// -fleet-backoff, -fleet-health), and graceful degradation to local
// evaluation when no worker is ready. See README "Distributed mode".
//
// Every compile request is assigned a job ID, returned in the
// X-Pag-Job-Id response header and the stream events, and carried
// through the structured (JSON, log/slog) request log. Clients
// identify themselves with the X-Pag-Client header (falling back to
// the peer address) for per-client admission quotas (-quota), and may
// mark batch traffic with the priority header (-priority-header,
// default X-Pag-Priority: "high" or "low"). -max-timeout is the
// server-side bound on per-job deadlines: client timeouts are capped
// to it, and requests without one get it as their default. -debug-addr
// starts an optional second listener serving net/http/pprof, kept off
// the service port so profiling endpoints are never exposed by accident.
//
// Overload degrades honestly: jobs beyond the max-in-flight bound wait
// in the bounded admission queue, beyond that the service answers 503,
// and over-quota clients get 429 instead of crowding everyone else
// out. Failure stays scoped to the job that caused it: evaluation
// panics are contained per job by the pool's workers (and a fleet
// worker's handle-range exhaustion fails only its job), and an HTTP
// recovery middleware answers 500
// for anything that still escapes a handler, so one malformed request
// never takes the daemon down.
package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"pag/internal/fleet"
	"pag/internal/parallel"
	"pag/internal/pascal"
	"pag/internal/workload"
)

// defaultPriorityHeader carries the job's admission class when the
// -priority-header flag is not overridden.
const defaultPriorityHeader = "X-Pag-Priority"

func main() {
	addr := flag.String("addr", ":8642", "listen address")
	workers := flag.Int("workers", 0, "pool worker goroutines (0 = all CPUs)")
	maxInFlight := flag.Int("max-inflight", 0, "max concurrently evaluating jobs (0 = worker count)")
	queue := flag.Int("queue", 0, "admission queue depth beyond max-inflight (0 = default, <0 = none)")
	cacheBytes := flag.Int64("cache-bytes", 0, "whole-job cache budget in bytes (0 = default, <0 = disable)")
	cacheDir := flag.String("cache-dir", "", "persist the whole-job cache to this directory across restarts (empty = in-memory only)")
	cacheDiskBytes := flag.Int64("cache-disk-bytes", 0, "with -cache-dir: on-disk cache bound in bytes (0 = default 256 MiB, <0 = unbounded)")
	quota := flag.Int("quota", 0, "per-client bound on jobs admitted or waiting (0 = unlimited)")
	priorityHeader := flag.String("priority-header", defaultPriorityHeader, `request header carrying the job priority ("high" or "low")`)
	maxTimeout := flag.Duration("max-timeout", 0, "server-side job deadline: caps client timeout_ms and applies to requests without one (0 = none)")
	debugAddr := flag.String("debug-addr", "", "optional second listen address serving net/http/pprof (empty = disabled)")
	workerMode := flag.Bool("worker", false, "serve as a fleet evaluation worker instead of a coordinator daemon")
	fleetAddrs := flag.String("fleet", "", "comma-separated worker base URLs; jobs evaluate on this fleet instead of in-process")
	fleetRetries := flag.Int("fleet-retries", 3, "same-placement retries per fleet RPC before requeueing the fragment")
	fleetBackoff := flag.Duration("fleet-backoff", 25*time.Millisecond, "base of the exponential (jittered) fleet retry backoff")
	fleetHealth := flag.Duration("fleet-health", 5*time.Second, "fleet worker health-check interval (<= 0 probes once at startup only)")
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	if *workerMode {
		runWorker(logger, *addr, *debugAddr)
		return
	}

	poolOpts := parallel.PoolOptions{
		Workers: *workers, MaxInFlight: *maxInFlight, QueueDepth: *queue,
		CacheBytes: *cacheBytes, ClientQuota: *quota,
	}
	if *cacheDir != "" {
		// Fail fast: a daemon asked to persist its cache but unable to
		// (permissions, bad path) should say so at startup, not degrade
		// silently to in-memory and surprise the operator on restart.
		store, err := parallel.OpenDiskCache(*cacheDir, *cacheDiskBytes)
		if err != nil {
			logger.Error("bad -cache-dir", "error", err.Error())
			os.Exit(1)
		}
		poolOpts.DiskCache = store
		logger.Info("persistent cache", "dir", store.Dir(), "bytes", store.Bytes())
	} else if *cacheDiskBytes != 0 {
		logger.Error("-cache-disk-bytes bounds the -cache-dir store; set -cache-dir")
		os.Exit(1)
	}
	var client *fleet.Client
	if *fleetAddrs != "" {
		addrs := strings.Split(*fleetAddrs, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		client = fleet.NewClient(fleet.ClientOptions{
			Workers:        addrs,
			HealthInterval: *fleetHealth,
		})
		client.Start()
		poolOpts.Remote = fleet.NewCoordinator(fleet.CoordinatorOptions{
			Client:  client,
			Retries: *fleetRetries,
			Backoff: *fleetBackoff,
		})
		logger.Info("fleet mode", "workers", addrs, "retries", *fleetRetries,
			"backoff", fleetBackoff.String(), "health_interval", fleetHealth.String())
	}
	s := newServer(poolOpts)
	s.log = logger
	s.priorityHeader = *priorityHeader
	s.maxTimeout = *maxTimeout
	srv := &http.Server{Addr: *addr, Handler: s.routes()}
	debug := startDebug(logger, *debugAddr)

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Info("shutting down")
		// Flip /readyz first so load balancers route around the daemon
		// while in-flight requests drain.
		s.draining.Store(true)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // best-effort drain before pool close
		if debug != nil {
			debug.Shutdown(ctx) //nolint:errcheck // pprof has no state to drain
		}
		if client != nil {
			client.Stop()
		}
		s.pool.Close()
	}()

	logger.Info("serving", "addr", *addr, "workers", s.pool.Workers(),
		"quota", *quota, "max_timeout", maxTimeout.String())
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("listen failed", "error", err.Error())
		os.Exit(1)
	}
	<-done
}

// runWorker is `pagd -worker`: one fleet evaluation worker serving the
// session RPCs and health endpoints a coordinator routes by. Shutdown
// drains first (readyz 503, new sessions refused) so coordinators
// requeue around this worker before the listener closes.
func runWorker(logger *slog.Logger, addr, debugAddr string) {
	l := pascal.MustNew()
	w := fleet.NewWorker()
	if err := w.RegisterChecked(l.G, l.A, l.TerminalAttrs); err != nil {
		logger.Error("grammar rejected by diagnostics", "error", err.Error())
		os.Exit(1)
	}
	srv := &http.Server{Addr: addr, Handler: w.Routes()}
	debug := startDebug(logger, debugAddr)

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Info("worker shutting down", "open_sessions", w.Sessions())
		w.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // best-effort drain
		if debug != nil {
			debug.Shutdown(ctx) //nolint:errcheck // pprof has no state to drain
		}
	}()

	logger.Info("fleet worker serving", "addr", addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("listen failed", "error", err.Error())
		os.Exit(1)
	}
	<-done
}

// newDebugServer builds the opt-in profiling listener. The handlers
// are registered on a private mux (not http.DefaultServeMux) so the
// only thing this port serves is pprof.
func newDebugServer(addr string) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return &http.Server{Addr: addr, Handler: mux}
}

// startDebug launches the pprof listener (when addr is set) and
// returns the server so shutdown can close it with the rest of the
// daemon instead of leaking the listener.
func startDebug(logger *slog.Logger, addr string) *http.Server {
	if addr == "" {
		return nil
	}
	srv := newDebugServer(addr)
	go func() {
		logger.Info("debug listener serving pprof", "addr", addr)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("debug listener failed", "error", err.Error())
		}
	}()
	return srv
}

// server is the HTTP face of one compile pool. It is a separate type
// so tests drive the handlers through httptest without a socket.
type server struct {
	pool *parallel.Pool
	lang *pascal.Lang
	log  *slog.Logger
	// priorityHeader names the request header carrying the admission
	// class; maxTimeout, when positive, caps client-supplied job
	// timeouts and is the default for requests without one.
	priorityHeader string
	maxTimeout     time.Duration
	// draining flips when shutdown begins: /readyz answers 503 while
	// in-flight requests finish, so fleet clients and load balancers
	// stop routing here before the listener closes.
	draining atomic.Bool
}

func newServer(opts parallel.PoolOptions) *server {
	return &server{
		pool:           parallel.NewPool(opts),
		lang:           pascal.MustNew(),
		log:            slog.New(slog.NewJSONHandler(os.Stderr, nil)),
		priorityHeader: defaultPriorityHeader,
	}
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /compile", s.handleCompile)
	mux.HandleFunc("POST /check", s.handleCheck)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		code, state := readyzState(s.draining.Load(), s.pool.Stats())
		w.WriteHeader(code)
		fmt.Fprintln(w, state)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.pool.Metrics().WritePrometheus(w) //nolint:errcheck // best-effort scrape
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.pool.Metrics()) //nolint:errcheck // best-effort stats
	})
	return s.logRequests(recoverPanics(mux))
}

// readyzState decides the readiness answer: 503 while the daemon is
// draining for shutdown or the pool is saturated (evaluation slots
// full and the admission queue at its bound — the next job would be
// refused with 503 anyway), 200 otherwise. A pure function so every
// state is unit-testable without signals or load.
func readyzState(draining bool, st parallel.PoolStats) (int, string) {
	switch {
	case draining:
		return http.StatusServiceUnavailable, "draining"
	case st.InFlight >= st.MaxInFlight && (st.QueueDepth <= 0 || st.Waiting >= st.QueueDepth):
		return http.StatusServiceUnavailable, "saturated"
	default:
		return http.StatusOK, "ready"
	}
}

// logRequests emits one structured log line per request (except the
// liveness probe, which would drown everything else at typical check
// intervals).
func (s *server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			next.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		s.log.Info("request",
			"method", r.Method, "path", r.URL.Path, "status", sw.code,
			"bytes", sw.bytes, "dur_ms", float64(time.Since(start))/float64(time.Millisecond),
			"job_id", sw.Header().Get("X-Pag-Job-Id"))
	})
}

// statusWriter records the response status and size for the request
// log, forwarding Flush so the streaming compile mode keeps streaming
// through the middleware.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// recoverPanics is the last line of defense against a handler panic
// taking the daemon down: the panicking request answers 500 (best
// effort — if the handler already streamed a partial body, the error
// text lands in that stream) and every other connection keeps being
// served. Evaluation panics never get this far — the pool's workers
// contain them per job — so anything recovered here is a server bug
// worth the log line.
func recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				slog.Error("panic serving request", "method", r.Method, "path", r.URL.Path, "panic", fmt.Sprint(p))
				http.Error(w, fmt.Sprintf("internal error: %v", p), http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// compileRequest is the wire form of one compile job.
type compileRequest struct {
	// Source is Pascal text; Workload names a generated program
	// (tiny, small, course). Exactly one must be set.
	Source   string `json:"source,omitempty"`
	Workload string `json:"workload,omitempty"`
	// Fragments caps the decomposition (0 = the pool's worker count,
	// matching `pagc -n` at the same width).
	Fragments int `json:"fragments,omitempty"`
	// TimeoutMs bounds the job. The daemon's -max-timeout caps it and
	// stands in for it when absent; 0 with no -max-timeout means no
	// bound beyond the request context.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// removedFields are the request fields that once chose the evaluator
// configuration (mode, librarian, unique-identifier chain). pagd runs
// one configuration, so a request that still carries one is refused
// by name: a client asking for the chain must not be served the
// presets' labels without notice.
type removedFields struct {
	Mode        json.RawMessage `json:"mode"`
	NoLibrarian json.RawMessage `json:"no_librarian"`
	UIDChain    json.RawMessage `json:"uid_chain"`
}

// check names the first removed field the request carried.
func (r *removedFields) check() error {
	for _, f := range []struct {
		name string
		val  json.RawMessage
	}{{"mode", r.Mode}, {"no_librarian", r.NoLibrarian}, {"uid_chain", r.UIDChain}} {
		if f.val != nil {
			return fmt.Errorf("request field %q was removed: pagd always runs the paper's configuration (combined evaluator, unique-identifier presets)", f.name)
		}
	}
	return nil
}

// event is one JSON line of the default streaming response.
type event struct {
	Status string `json:"status"` // queued, done, error
	// JobID is the server-assigned request identity, the same value as
	// the X-Pag-Job-Id response header and the request log.
	JobID    string   `json:"job_id,omitempty"`
	Error    string   `json:"error,omitempty"`
	Errors   []string `json:"errors,omitempty"` // semantic errors
	Frags    int      `json:"frags,omitempty"`
	Workers  int      `json:"workers,omitempty"`
	Messages int      `json:"messages,omitempty"`
	// Balance is the decomposition's size balance (1 = perfectly
	// even).
	Balance       float64 `json:"balance,omitempty"`
	WallMs        float64 `json:"wall_ms,omitempty"`
	EvalMs        float64 `json:"eval_ms,omitempty"`
	AssemblyBytes int     `json:"assembly_bytes,omitempty"`
	Assembly      string  `json:"assembly,omitempty"`
}

// httpStatusFor maps compile failures onto HTTP status codes for the
// plain-text (?format=asm) response mode.
func httpStatusFor(err error) int {
	switch {
	case errors.Is(err, parallel.ErrQuotaExceeded):
		return http.StatusTooManyRequests
	case errors.Is(err, parallel.ErrOverloaded), errors.Is(err, parallel.ErrPoolClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusUnprocessableEntity
	}
}

// newJobID mints a request identity: 8 random bytes, hex.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// clientID resolves the quota identity of a request: the X-Pag-Client
// header if the client names itself, the peer host otherwise.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-Pag-Client"); c != "" {
		return c
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

func (s *server) handleCompile(w http.ResponseWriter, r *http.Request) {
	jobID := newJobID()
	w.Header().Set("X-Pag-Job-Id", jobID)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var req struct {
		compileRequest
		removedFields
	}
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, "bad request JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := req.removedFields.check(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	src, opts, err := s.jobSpec(req.compileRequest)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	prio, err := parallel.ParsePriority(r.Header.Get(s.priorityHeader))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	opts.Priority = prio
	opts.Client = clientID(r)
	// ?nocache=1 opts this one request out of the whole-job cache (for
	// benchmarking against a cold compile, or distrust of a cached
	// result); anything else, including absence, uses the cache.
	if r.URL.Query().Get("nocache") == "1" {
		opts.NoCache = true
	}

	ctx := r.Context()
	timeout := time.Duration(req.TimeoutMs) * time.Millisecond
	if s.maxTimeout > 0 && (timeout == 0 || timeout > s.maxTimeout) {
		timeout = s.maxTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	start := time.Now()
	var res *parallel.Result
	if r.URL.Query().Get("format") == "asm" {
		res, err = s.compileASM(ctx, w, src, opts)
	} else {
		res, err = s.compileStream(ctx, w, jobID, src, opts)
	}
	attrs := []any{
		"job_id", jobID, "client", opts.Client, "priority", prio.String(),
		"wall_ms", float64(time.Since(start)) / float64(time.Millisecond),
	}
	if err != nil {
		s.log.Error("compile failed", append(attrs, "error", err.Error())...)
		return
	}
	s.log.Info("compile done", append(attrs,
		"frags", res.Frags,
		"assembly_bytes", len(res.Program))...)
}

// jobSpec validates the request and resolves source text and runtime
// options.
func (s *server) jobSpec(req compileRequest) (string, parallel.Options, error) {
	var opts parallel.Options
	src := req.Source
	switch {
	case req.Source != "" && req.Workload != "":
		return "", opts, fmt.Errorf(`"source" and "workload" are mutually exclusive`)
	case req.Source == "" && req.Workload == "":
		return "", opts, fmt.Errorf(`one of "source" or "workload" is required`)
	case req.Workload != "":
		cfg, err := workload.ByName(req.Workload)
		if err != nil {
			return "", opts, err
		}
		src = workload.Generate(cfg)
	}
	if req.Fragments < 0 {
		return "", opts, fmt.Errorf("fragments %d is negative", req.Fragments)
	}
	if req.TimeoutMs < 0 {
		return "", opts, fmt.Errorf("timeout_ms %d is negative", req.TimeoutMs)
	}
	opts.Fragments = req.Fragments
	return src, opts, nil
}

// compile parses the source and runs the job on the pool.
func (s *server) compile(ctx context.Context, src string, opts parallel.Options) (*parallel.Result, error) {
	job, err := s.lang.ClusterJob(src)
	if err != nil {
		return nil, err
	}
	res, err := s.pool.Compile(ctx, job, opts)
	if err != nil {
		return nil, err
	}
	if errs := pascal.SemanticErrors(res.RootAttrs); len(errs) > 0 {
		return nil, &semanticError{errs: errs}
	}
	return res, nil
}

type semanticError struct{ errs []string }

func (e *semanticError) Error() string {
	return fmt.Sprintf("%d semantic error(s): %s", len(e.errs), strings.Join(e.errs, "; "))
}

// compileASM is the plain-text response mode: the body is exactly the
// assembly `pagc -q -S` prints for the same job.
func (s *server) compileASM(ctx context.Context, w http.ResponseWriter, src string, opts parallel.Options) (*parallel.Result, error) {
	res, err := s.compile(ctx, src, opts)
	if err != nil {
		http.Error(w, err.Error(), httpStatusFor(err))
		return nil, err
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, res.Program)
	return res, nil
}

// compileStream is the default response mode: JSON lines, one event
// per state change, flushed as they happen so a slow compile streams
// status before the assembly arrives.
func (s *server) compileStream(ctx context.Context, w http.ResponseWriter, jobID, src string, opts parallel.Options) (*parallel.Result, error) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	emit := func(e event) {
		e.JobID = jobID
		enc.Encode(e) //nolint:errcheck // a dead client aborts via ctx
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	emit(event{Status: "queued"})
	res, err := s.compile(ctx, src, opts)
	if err != nil {
		var sem *semanticError
		if errors.As(err, &sem) {
			emit(event{Status: "error", Error: err.Error(), Errors: sem.errs})
			return nil, err
		}
		emit(event{Status: "error", Error: err.Error()})
		return nil, err
	}
	emit(event{
		Status:        "done",
		Frags:         res.Frags,
		Workers:       res.Workers,
		Messages:      res.Messages,
		Balance:       res.PlanStats.Balance,
		WallMs:        float64(res.WallTime) / float64(time.Millisecond),
		EvalMs:        float64(res.EvalTime) / float64(time.Millisecond),
		AssemblyBytes: len(res.Program),
		Assembly:      res.Program,
	})
	return res, nil
}
