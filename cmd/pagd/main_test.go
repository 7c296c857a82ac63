package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pag/internal/cluster"
	"pag/internal/parallel"
	"pag/internal/workload"
)

func testServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	s := newServer(parallel.PoolOptions{Workers: 2, MaxInFlight: 4})
	ts := httptest.NewServer(s.routes())
	t.Cleanup(func() {
		ts.Close()
		s.pool.Close()
	})
	return s, ts
}

// TestCompileWorkloadASM checks the plain-text mode end to end: the
// daemon's assembly for the tiny workload must be byte-identical to
// the simulated cluster's at the same decomposition width — the same
// parity `pagc -q -S -n 2` relies on.
func TestCompileWorkloadASM(t *testing.T) {
	s, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/compile?format=asm", "application/json",
		strings.NewReader(`{"workload":"tiny"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got := string(raw)

	job, err := s.lang.ClusterJob(workload.Generate(workload.Tiny()))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cluster.Run(job, cluster.Options{
		Machines: 2, Mode: cluster.Combined, Librarian: true, UIDPreset: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.Program + "\n"; got != want {
		t.Errorf("daemon assembly (%d bytes) differs from 2-machine cluster assembly (%d bytes)",
			len(got), len(want))
	}
}

// TestCompileStreamEvents checks the default JSON-lines mode: a queued
// event, then a done event carrying the assembly.
func TestCompileStreamEvents(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/compile", "application/json",
		strings.NewReader(`{"workload":"tiny","fragments":2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if len(events) != 2 || events[0].Status != "queued" || events[1].Status != "done" {
		t.Fatalf("event sequence = %+v, want queued then done", events)
	}
	done := events[1]
	if done.Assembly == "" || done.AssemblyBytes != len(done.Assembly) || done.Frags != 2 {
		t.Errorf("done event incomplete: frags=%d bytes=%d len=%d",
			done.Frags, done.AssemblyBytes, len(done.Assembly))
	}
}

// TestCompileRequestValidation checks the 4xx paths. The removed
// evaluator-configuration fields are refused by name whatever their
// value, so a client asking for the unique-identifier chain (or any
// other ablation) is never silently served the presets' labels.
func TestCompileRequestValidation(t *testing.T) {
	_, ts := testServer(t)
	for name, c := range map[string]struct{ body, want string }{
		"empty":                {`{}`, ""},
		"both":                 {`{"source":"program p; begin end.","workload":"tiny"}`, ""},
		"bad workload":         {`{"workload":"enormous"}`, ""},
		"bad mode":             {`{"workload":"tiny","mode":"psychic"}`, `"mode"`},
		"removed mode":         {`{"workload":"tiny","mode":"combined"}`, `"mode"`},
		"removed no_librarian": {`{"workload":"tiny","no_librarian":false}`, `"no_librarian"`},
		"removed uid_chain":    {`{"workload":"tiny","uid_chain":true}`, `"uid_chain"`},
		"negative frags":       {`{"workload":"tiny","fragments":-1}`, ""},
		"not even json":        {`{`, ""},
	} {
		resp, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		if !strings.Contains(string(raw), c.want) {
			t.Errorf("%s: body %q does not name %s", name, raw, c.want)
		}
	}
}

// TestSemanticErrorsReported checks that a program with semantic
// errors comes back as a structured error event, not a panic or empty
// assembly.
func TestSemanticErrorsReported(t *testing.T) {
	_, ts := testServer(t)
	body := `{"source":"program p; begin x := 1 end."}` // x undeclared
	resp, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var last event
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatal(err)
		}
	}
	if last.Status != "error" || len(last.Errors) == 0 {
		t.Errorf("final event = %+v, want a semantic error report", last)
	}
}

// TestManyConcurrentRequests drives the daemon the way a busy service
// sees it: concurrent jobs over one pool, every response complete and
// identical for identical requests.
func TestManyConcurrentRequests(t *testing.T) {
	_, ts := testServer(t)
	const n = 8
	outs := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/compile?format=asm", "application/json",
				strings.NewReader(`{"workload":"tiny"}`))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, raw)
				return
			}
			outs[i] = string(raw)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if outs[i] != outs[0] {
			t.Errorf("request %d produced different assembly than request 0", i)
		}
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st parallel.PoolStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Done < n {
		t.Errorf("stats report %d done jobs, want >= %d", st.Done, n)
	}
}

// TestCacheWarmRequestAndStats submits the same job twice: the second
// (warm) response must be byte-identical to the first, /stats must
// show the whole-job cache hit, and ?nocache=1 must bypass the cache
// while still returning the same assembly.
func TestCacheWarmRequestAndStats(t *testing.T) {
	_, ts := testServer(t)
	post := func(query string) string {
		t.Helper()
		resp, err := http.Post(ts.URL+"/compile?format=asm"+query, "application/json",
			strings.NewReader(`{"workload":"tiny"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		return string(raw)
	}
	cold := post("")
	warm := post("")
	if warm != cold {
		t.Errorf("warm response differs from cold (%d vs %d bytes)", len(warm), len(cold))
	}
	stats := func() parallel.PoolStats {
		t.Helper()
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st parallel.PoolStats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.CacheEntries != 1 {
		t.Errorf("after cold+warm: %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	if nocache := post("&nocache=1"); nocache != cold {
		t.Error("nocache response differs from cold")
	}
	if st := stats(); st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("nocache request touched the cache: %+v", st)
	}
}

// TestMetricsEndpoint checks the Prometheus scrape surface: after one
// compile, /metrics serves text exposition format carrying the job
// counter, the cache counters and the latency histograms.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/compile?format=asm", "application/json",
		strings.NewReader(`{"workload":"tiny"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q, want text exposition format 0.0.4", ct)
	}
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE pag_jobs_total counter",
		`pag_jobs_total{outcome="done"} 1`,
		"pag_cache_misses_total 1",
		"pag_queue_wait_seconds_count 1",
		`pag_phase_seconds_bucket{phase="eval",le="+Inf"} 1`,
		"pag_job_wall_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestPriorityHeaderAndJobID checks the request-identity surface: an
// unknown priority is a 400, a valid one is accepted, and the
// server-minted job ID appears in the response header and in every
// stream event.
func TestPriorityHeaderAndJobID(t *testing.T) {
	_, ts := testServer(t)
	req, err := http.NewRequest("POST", ts.URL+"/compile",
		strings.NewReader(`{"workload":"tiny"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Pag-Priority", "psychic")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown priority answered %d, want 400", resp.StatusCode)
	}

	req, err = http.NewRequest("POST", ts.URL+"/compile",
		strings.NewReader(`{"workload":"tiny"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Pag-Priority", "low")
	req.Header.Set("X-Pag-Client", "tester")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	jobID := resp.Header.Get("X-Pag-Job-Id")
	if len(jobID) != 16 {
		t.Fatalf("X-Pag-Job-Id = %q, want 16 hex chars", jobID)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	events := 0
	for sc.Scan() {
		var e event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events++
		if e.JobID != jobID {
			t.Errorf("event %d carries job_id %q, want %q", events, e.JobID, jobID)
		}
	}
	if events == 0 {
		t.Fatal("no stream events")
	}
}

// TestMaxTimeoutBound is the server-side deadline fix: with
// -max-timeout set, a request WITHOUT a client timeout is still
// bounded (it used to run forever), and a client timeout larger than
// the bound is capped to it. An unreachably small bound makes both
// deterministic 504s.
func TestMaxTimeoutBound(t *testing.T) {
	s := newServer(parallel.PoolOptions{Workers: 2, MaxInFlight: 4})
	s.maxTimeout = time.Nanosecond
	ts := httptest.NewServer(s.routes())
	t.Cleanup(func() {
		ts.Close()
		s.pool.Close()
	})
	for name, body := range map[string]string{
		"no client timeout":  `{"workload":"tiny"}`,
		"oversized timeout":  `{"workload":"tiny","timeout_ms":60000}`,
		"undersized timeout": `{"workload":"tiny","timeout_ms":1}`,
	} {
		resp, err := http.Post(ts.URL+"/compile?format=asm", "application/json",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Errorf("%s: status %d (%s), want 504", name, resp.StatusCode, raw)
		}
	}
}

// TestHTTPStatusForQuota pins the over-quota mapping: 429, not 503.
func TestHTTPStatusForQuota(t *testing.T) {
	err := fmt.Errorf("wrapped: %w", &parallel.QuotaError{Client: "c", Limit: 1})
	if got := httpStatusFor(err); got != http.StatusTooManyRequests {
		t.Errorf("quota rejection maps to %d, want 429", got)
	}
}

// TestRecoveryMiddleware checks the HTTP last line of defense: a
// panicking handler answers 500 instead of killing the process.
func TestRecoveryMiddleware(t *testing.T) {
	h := recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/compile", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "handler bug") {
		t.Errorf("body %q does not carry the panic", rec.Body.String())
	}
}

// TestIncrementalEditOverHTTP is the end-to-end edit path: a
// one-token-edited source submitted after the base workload misses the
// whole-tree key, compiles cold to assembly byte-identical to a fresh
// daemon's, and is recorded, so submitting the edit again (streaming
// this time) is a whole-tree hit with the same assembly.
func TestIncrementalEditOverHTTP(t *testing.T) {
	_, ts := testServer(t)
	base := workload.Generate(workload.Tiny())
	edited := strings.Replace(base, "(gtotal - gtotal)", "(gtotal - gcount)", 1)
	if edited == base {
		t.Fatal("edit target not found in tiny workload")
	}
	postASM := func(body string) string {
		t.Helper()
		resp, err := http.Post(ts.URL+"/compile?format=asm", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		return string(raw)
	}
	enc := func(src string) string {
		b, err := json.Marshal(map[string]string{"source": src})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	postASM(enc(base)) // record the base program
	got := postASM(enc(edited))

	// Reference: a fresh daemon (empty cache) compiling the edited
	// source cold at the same width.
	_, ref := testServer(t)
	resp, err := http.Post(ref.URL+"/compile?format=asm", "application/json", strings.NewReader(enc(edited)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	want, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("incremental assembly differs from cold reference (%d vs %d bytes)", len(got), len(want))
	}

	// Submitting the edit again, in streaming mode, hits the recording
	// the first edit left.
	stream, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader(enc(edited)))
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	var done event
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		var e event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if e.Status == "done" {
			done = e
		}
	}
	// The asm mode prints the program with a trailing newline.
	if done.Status != "done" || done.Assembly+"\n" != got {
		t.Errorf("repeated edit: done event %q with %d assembly bytes, want the first edit's %d", done.Status, len(done.Assembly), len(got)-1)
	}
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st parallel.PoolStats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 1 || st.CacheMisses != 2 {
		t.Errorf("stats after base, edit, edit: %d hit(s), %d miss(es), want 1 and 2", st.CacheHits, st.CacheMisses)
	}
}

// TestReadyzStates covers the readiness decision for all three states
// — ready, saturated, draining — as a pure function, then checks the
// handler serves it.
func TestReadyzStates(t *testing.T) {
	if code, state := readyzState(false, parallel.PoolStats{MaxInFlight: 4, QueueDepth: 8}); code != http.StatusOK || state != "ready" {
		t.Errorf("idle pool: %d %q, want 200 ready", code, state)
	}
	if code, state := readyzState(false, parallel.PoolStats{MaxInFlight: 4, InFlight: 4, QueueDepth: 8, Waiting: 8}); code != http.StatusServiceUnavailable || state != "saturated" {
		t.Errorf("full pool: %d %q, want 503 saturated", code, state)
	}
	// Slots full but queue has room: still ready (the next job waits,
	// it is not refused).
	if code, state := readyzState(false, parallel.PoolStats{MaxInFlight: 4, InFlight: 4, QueueDepth: 8, Waiting: 2}); code != http.StatusOK || state != "ready" {
		t.Errorf("queueing pool: %d %q, want 200 ready", code, state)
	}
	// No queue at all: full slots alone saturate.
	if code, state := readyzState(false, parallel.PoolStats{MaxInFlight: 4, InFlight: 4, QueueDepth: -1}); code != http.StatusServiceUnavailable || state != "saturated" {
		t.Errorf("queueless full pool: %d %q, want 503 saturated", code, state)
	}
	if code, state := readyzState(true, parallel.PoolStats{MaxInFlight: 4, QueueDepth: 8}); code != http.StatusServiceUnavailable || state != "draining" {
		t.Errorf("draining: %d %q, want 503 draining", code, state)
	}

	s, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ready" {
		t.Errorf("GET /readyz on idle daemon: %d %q, want 200 ready", resp.StatusCode, body)
	}
	s.draining.Store(true)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || strings.TrimSpace(string(body)) != "draining" {
		t.Errorf("GET /readyz while draining: %d %q, want 503 draining", resp.StatusCode, body)
	}
}

// TestDebugServerShutdown: the pprof listener is an owned http.Server
// that Shutdown closes — the old implementation leaked the listener
// for the life of the process.
func TestDebugServerShutdown(t *testing.T) {
	srv := newDebugServer("127.0.0.1:0")
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	url := "http://" + ln.Addr().String() + "/debug/pprof/"
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("pprof index: %v", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
	if _, err := http.Get(url); err == nil {
		t.Errorf("debug listener still serving after Shutdown")
	}
}
