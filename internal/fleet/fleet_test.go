package fleet_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pag/internal/ag"
	"pag/internal/cluster"
	"pag/internal/exprlang"
	"pag/internal/fleet"
	"pag/internal/parallel"
	"pag/internal/pascal"
	"pag/internal/tree"
	"pag/internal/workload"
)

func pascalJob(t *testing.T, cfg workload.Config) cluster.Job {
	t.Helper()
	job, err := pascal.MustNew().ClusterJob(workload.Generate(cfg))
	if err != nil {
		t.Fatalf("ClusterJob: %v", err)
	}
	return job
}

func exprJob(t *testing.T, src string) cluster.Job {
	t.Helper()
	l := exprlang.MustNew()
	a, err := ag.Analyze(l.G)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	root, err := l.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return cluster.Job{G: l.G, A: a, Root: root, Lex: l.TerminalAttrs}
}

// compileFleet runs one job through a pool whose jobs evaluate on co:
// the pool plans and splices, the coordinator evaluates.
func compileFleet(ctx context.Context, co *fleet.Coordinator, job cluster.Job, opts parallel.Options) (*parallel.Result, error) {
	pool := parallel.NewPool(parallel.PoolOptions{Workers: 1, Remote: co})
	defer pool.Close()
	return pool.Compile(ctx, job, opts)
}

// env is a test fleet: n in-process workers on a MemTransport,
// optionally behind a FaultTransport, with a started client and a
// coordinator in front.
type env struct {
	mem     *fleet.MemTransport
	workers []*fleet.Worker
	addrs   []string
	client  *fleet.Client
	co      *fleet.Coordinator
}

func newEnv(t *testing.T, n int, job cluster.Job, faults *fleet.FaultConfig, copts fleet.CoordinatorOptions) *env {
	t.Helper()
	e := &env{mem: fleet.NewMemTransport()}
	for i := 0; i < n; i++ {
		w := fleet.NewWorker()
		w.Register(job.G, job.A, job.Lex)
		addr := fmt.Sprintf("w%d", i)
		e.mem.Add(addr, w)
		e.workers = append(e.workers, w)
		e.addrs = append(e.addrs, addr)
	}
	var tr fleet.Transport = e.mem
	if faults != nil {
		if faults.OnCrash == nil {
			// A crashed worker loses its sessions with it.
			faults.OnCrash = func(addr string) {
				for i, a := range e.addrs {
					if a == addr {
						e.workers[i].Reset()
					}
				}
			}
		}
		tr = fleet.NewFaultTransport(e.mem, *faults)
	}
	e.client = fleet.NewClient(fleet.ClientOptions{
		Workers:     e.addrs,
		Transport:   tr,
		CallTimeout: 10 * time.Second,
	})
	e.client.Start()
	t.Cleanup(e.client.Stop)
	copts.Client = e.client
	if copts.Backoff == 0 {
		copts.Backoff = time.Millisecond
	}
	e.co = fleet.NewCoordinator(copts)
	return e
}

// TestFleetMatchesClusterExprlang: distributed evaluation of the
// appendix grammar agrees with the simulated cluster at several
// widths.
func TestFleetMatchesClusterExprlang(t *testing.T) {
	job := exprJob(t, exprlang.Generate(8, 6))
	for _, w := range []int{1, 2, 4} {
		sim, err := cluster.Run(job, cluster.Options{Machines: w, Mode: cluster.Combined, Librarian: true, UIDPreset: true})
		if err != nil {
			t.Fatalf("cluster x%d: %v", w, err)
		}
		e := newEnv(t, 2, job, nil, fleet.CoordinatorOptions{})
		res, err := compileFleet(context.Background(), e.co, job, parallel.Options{Workers: w})
		if err != nil {
			t.Fatalf("fleet x%d: %v", w, err)
		}
		if got, want := fmt.Sprint(res.RootAttrs[exprlang.AttrValue]), fmt.Sprint(sim.RootAttrs[exprlang.AttrValue]); got != want {
			t.Errorf("x%d: value = %s, want %s", w, got, want)
		}
		if res.Frags != sim.Frags {
			t.Errorf("x%d: frags = %d, cluster had %d", w, res.Frags, sim.Frags)
		}
	}
}

// TestFleetMatchesClusterPascal: byte-identical generated code across
// the three runtimes — simulated cluster, local pool, worker fleet —
// at several widths. The fleet ships code through its librarian and
// stores strings; the pool keeps no librarian and stores none.
func TestFleetMatchesClusterPascal(t *testing.T) {
	job := pascalJob(t, workload.Small())
	for _, w := range []int{1, 2, 4} {
		name := fmt.Sprintf("workers=%d", w)
		sim, err := cluster.Run(job, cluster.Options{
			Machines: w, Mode: cluster.Combined, Librarian: true, UIDPreset: true,
		})
		if err != nil {
			t.Fatalf("%s: cluster: %v", name, err)
		}
		opts := parallel.Options{Workers: w}
		local, err := parallel.Run(job, opts)
		if err != nil {
			t.Fatalf("%s: parallel: %v", name, err)
		}
		e := newEnv(t, 2, job, nil, fleet.CoordinatorOptions{})
		res, err := compileFleet(context.Background(), e.co, job, opts)
		if err != nil {
			t.Fatalf("%s: fleet: %v", name, err)
		}
		if res.Program == "" {
			t.Fatalf("%s: empty program", name)
		}
		if res.Program != sim.Program {
			t.Errorf("%s: fleet program differs from cluster program (%d vs %d bytes)",
				name, len(res.Program), len(sim.Program))
		}
		if res.Program != local.Program {
			t.Errorf("%s: fleet program differs from pool program", name)
		}
		if res.RemoteFrags == 0 {
			t.Errorf("%s: no fragment evaluated remotely", name)
		}
		if res.Degraded {
			t.Errorf("%s: degraded with a healthy fleet", name)
		}
		if w > 1 && res.StoredStrings == 0 {
			t.Errorf("%s: the fleet stored no librarian strings", name)
		}
	}
}

// TestFleetConcurrentCompilesShareJob runs two fleet compiles of one
// Job at once (run it with -race): the coordinator splits and encodes
// straight from the job's tree, so the tree must come out unchanged —
// no cut, no cached size written — and both programs byte-identical to
// the local pool's at the same width. The fleet result's planned
// decomposition must describe the same fragments as the pool's cut
// one: equal sizes and digests.
func TestFleetConcurrentCompilesShareJob(t *testing.T) {
	// The references come from a second parse of the same program, so
	// nothing but the two fleet compiles touches job's tree.
	job, ref := pascalJob(t, workload.Small()), pascalJob(t, workload.Small())
	e := newEnv(t, 2, job, nil, fleet.CoordinatorOptions{})
	widths := []int{2, 4}
	want := make([]*parallel.Result, len(widths))
	for i, w := range widths {
		local, err := parallel.Run(ref, parallel.Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = local
	}
	got := make([]*parallel.Result, len(widths))
	errs := make([]error, len(widths))
	var wg sync.WaitGroup
	for i, w := range widths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := compileFleet(context.Background(), e.co, job, parallel.Options{Workers: w})
			got[i], errs[i] = res, err
		}()
	}
	wg.Wait()
	for i, w := range widths {
		if errs[i] != nil {
			t.Fatalf("width %d: %v", w, errs[i])
		}
		if got[i].Program != want[i].Program {
			t.Errorf("width %d: fleet program differs from the pool's", w)
		}
		gd, wd := got[i].Decomp, want[i].Decomp
		if !slices.Equal(gd.Sizes(), wd.Sizes()) {
			t.Errorf("width %d: fleet fragment sizes %v, want %v", w, gd.Sizes(), wd.Sizes())
		}
		if !slices.Equal(gd.Digests(), wd.Digests()) {
			t.Errorf("width %d: fleet fragment digests differ from the pool's", w)
		}
	}
	if !bytes.Equal(tree.Encode(job.Root), tree.Encode(ref.Root)) {
		t.Error("fleet compiles modified the job's tree")
	}
}

// TestFleetHTTPWorkers runs two real HTTP workers (the same handler
// pagd -worker serves) and checks byte identity over actual sockets.
func TestFleetHTTPWorkers(t *testing.T) {
	job := pascalJob(t, workload.Tiny())
	ref, err := cluster.Run(job, cluster.Options{
		Machines: 2, Mode: cluster.Combined, Librarian: true, UIDPreset: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		w := fleet.NewWorker()
		w.Register(job.G, job.A, job.Lex)
		srv := httptest.NewServer(w.Routes())
		t.Cleanup(srv.Close)
		addrs = append(addrs, srv.URL)
	}
	client := fleet.NewClient(fleet.ClientOptions{Workers: addrs, CallTimeout: 10 * time.Second})
	client.Start()
	t.Cleanup(client.Stop)
	co := fleet.NewCoordinator(fleet.CoordinatorOptions{Client: client})
	res, err := compileFleet(context.Background(), co, job, parallel.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program != ref.Program {
		t.Errorf("program over HTTP differs from cluster program")
	}
	if res.RemoteFrags != res.Frags {
		t.Errorf("RemoteFrags = %d, want all %d", res.RemoteFrags, res.Frags)
	}
}

// TestFleetCrashMidEvaluationRequeues kills worker w0 on a
// deterministic schedule — after it has accepted one session RPC — and
// checks the job completes anyway, byte-identical, with the requeue
// visible in the Result and the coordinator counters.
func TestFleetCrashMidEvaluationRequeues(t *testing.T) {
	job := pascalJob(t, workload.Small())
	ref, err := cluster.Run(job, cluster.Options{
		Machines: 4, Mode: cluster.Combined, Librarian: true, UIDPreset: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(t, 2, job, &fleet.FaultConfig{
		Seed:       7,
		CrashAfter: map[string]int{"w0": 1},
	}, fleet.CoordinatorOptions{Retries: 1})
	res, err := compileFleet(context.Background(), e.co, job, parallel.Options{Workers: 4})
	if err != nil {
		t.Fatalf("compile with crashing worker: %v", err)
	}
	if res.Program != ref.Program {
		t.Errorf("program after crash differs from cluster program")
	}
	if res.FleetRequeues == 0 {
		t.Errorf("worker crashed mid-evaluation but Result reports no requeue")
	}
	st := e.co.FleetStats()
	if st.Requeues == 0 {
		t.Errorf("requeues counter did not move: %+v", st)
	}
	if st.WorkerTransitions == 0 {
		t.Errorf("no worker state transition recorded after a crash")
	}
}

// TestFleetAllWorkersDownDegrades: with every configured worker
// unreachable the coordinator degrades to local in-process evaluation
// and says so.
func TestFleetAllWorkersDownDegrades(t *testing.T) {
	job := pascalJob(t, workload.Tiny())
	ref, err := cluster.Run(job, cluster.Options{
		Machines: 2, Mode: cluster.Combined, Librarian: true, UIDPreset: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mem := fleet.NewMemTransport() // nothing registered: every addr is a dead host
	client := fleet.NewClient(fleet.ClientOptions{
		Workers:   []string{"w0", "w1"},
		Transport: mem,
	})
	client.Start()
	t.Cleanup(client.Stop)
	co := fleet.NewCoordinator(fleet.CoordinatorOptions{Client: client})
	res, err := compileFleet(context.Background(), co, job, parallel.Options{Workers: 2})
	if err != nil {
		t.Fatalf("degraded compile: %v", err)
	}
	if res.Program != ref.Program {
		t.Errorf("degraded program differs from cluster program")
	}
	if !res.Degraded {
		t.Errorf("Result does not report degradation")
	}
	if res.RemoteFrags != 0 {
		t.Errorf("RemoteFrags = %d with no reachable worker", res.RemoteFrags)
	}
	st := co.FleetStats()
	if st.DegradedJobs != 1 {
		t.Errorf("DegradedJobs = %d, want 1", st.DegradedJobs)
	}
	if st.LocalFrags == 0 {
		t.Errorf("no fragment recorded as locally evaluated")
	}
	if st.ReadyWorkers != 0 {
		t.Errorf("ReadyWorkers = %d, want 0", st.ReadyWorkers)
	}
}

// TestFleetSurvivesTotalFleetLoss crashes both workers mid-job: the
// coordinator requeues what it can and finishes the rest locally.
func TestFleetSurvivesTotalFleetLoss(t *testing.T) {
	job := pascalJob(t, workload.Small())
	ref, err := cluster.Run(job, cluster.Options{
		Machines: 4, Mode: cluster.Combined, Librarian: true, UIDPreset: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(t, 2, job, &fleet.FaultConfig{
		Seed:       11,
		CrashAfter: map[string]int{"w0": 2, "w1": 4},
	}, fleet.CoordinatorOptions{Retries: 1})
	res, err := compileFleet(context.Background(), e.co, job, parallel.Options{Workers: 4})
	if err != nil {
		t.Fatalf("compile through total fleet loss: %v", err)
	}
	if res.Program != ref.Program {
		t.Errorf("program after total fleet loss differs from cluster program")
	}
	if !res.Degraded {
		t.Errorf("job finished locally but Result does not report degradation")
	}
}

// TestFleetCorruptResponseNeverSpliced: responses corrupted in flight
// are caught by the wire checksum, counted, retried — and the final
// program is still byte-identical, proving a mangled payload can never
// reach the splice.
func TestFleetCorruptResponseNeverSpliced(t *testing.T) {
	job := pascalJob(t, workload.Small())
	ref, err := cluster.Run(job, cluster.Options{
		Machines: 4, Mode: cluster.Combined, Librarian: true, UIDPreset: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(t, 2, job, &fleet.FaultConfig{
		Seed:        3,
		CorruptProb: 0.4,
	}, fleet.CoordinatorOptions{Retries: 8})
	res, err := compileFleet(context.Background(), e.co, job, parallel.Options{Workers: 4})
	if err != nil {
		t.Fatalf("compile under corruption: %v", err)
	}
	if res.Program != ref.Program {
		t.Errorf("corrupted transport leaked into the spliced program")
	}
	st := e.co.FleetStats()
	if st.CorruptResponses == 0 {
		t.Errorf("corruption injected but none detected: %+v", st)
	}
	if st.Retries == 0 {
		t.Errorf("corruption detected but nothing retried: %+v", st)
	}
}

// TestFleetFaultStorm is the reproducible everything-at-once run:
// drops, delays, disconnects, corruption and a scheduled crash, across
// several seeds, each of which must still produce the exact cluster
// program. Run under -race this exercises every coordinator failure
// path concurrently.
func TestFleetFaultStorm(t *testing.T) {
	job := pascalJob(t, workload.Small())
	ref, err := cluster.Run(job, cluster.Options{
		Machines: 4, Mode: cluster.Combined, Librarian: true, UIDPreset: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			e := newEnv(t, 3, job, &fleet.FaultConfig{
				Seed:           seed,
				DropProb:       0.1,
				DelayProb:      0.2,
				MaxDelay:       2 * time.Millisecond,
				CorruptProb:    0.1,
				DisconnectProb: 0.1,
				CrashAfter:     map[string]int{"w1": 6},
			}, fleet.CoordinatorOptions{Retries: 6, Seed: seed})
			res, err := compileFleet(context.Background(), e.co, job, parallel.Options{Workers: 4})
			if err != nil {
				t.Fatalf("fault storm: %v", err)
			}
			if res.Program != ref.Program {
				t.Errorf("program under fault storm differs from cluster program")
			}
		})
	}
}

// TestFleetDisconnectIdempotency hammers the mid-stream disconnect
// fault alone: the worker applies each RPC but the response dies, so
// completion depends entirely on the session sequence numbers making
// retries idempotent.
func TestFleetDisconnectIdempotency(t *testing.T) {
	job := pascalJob(t, workload.Tiny())
	ref, err := cluster.Run(job, cluster.Options{
		Machines: 2, Mode: cluster.Combined, Librarian: true, UIDPreset: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(t, 2, job, &fleet.FaultConfig{
		Seed:           13,
		DisconnectProb: 0.3,
	}, fleet.CoordinatorOptions{Retries: 8})
	res, err := compileFleet(context.Background(), e.co, job, parallel.Options{Workers: 2})
	if err != nil {
		t.Fatalf("compile under disconnects: %v", err)
	}
	if res.Program != ref.Program {
		t.Errorf("program under disconnects differs from cluster program")
	}
}

// cancelTransport cancels a job's context as the job's first session
// opens, and passes every call on.
type cancelTransport struct {
	fleet.Transport
	cancel context.CancelFunc
}

func (c cancelTransport) Do(ctx context.Context, addr, path string, body []byte) ([]byte, error) {
	if path == "/fleet/open" {
		c.cancel()
	}
	return c.Transport.Do(ctx, addr, path, body)
}

// TestFleetContextCancellation: a job context cancelled while the
// coordinator places fragments fails the compile promptly instead of
// retrying forever.
func TestFleetContextCancellation(t *testing.T) {
	job := pascalJob(t, workload.Tiny())
	mem := fleet.NewMemTransport()
	w := fleet.NewWorker()
	w.Register(job.G, job.A, job.Lex)
	mem.Add("w0", w)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	client := fleet.NewClient(fleet.ClientOptions{Workers: []string{"w0"}, Transport: cancelTransport{mem, cancel}})
	client.Start()
	t.Cleanup(client.Stop)
	co := fleet.NewCoordinator(fleet.CoordinatorOptions{Client: client})
	_, err := compileFleet(ctx, co, job, parallel.Options{Workers: 2})
	if err == nil {
		t.Fatal("compile with cancelled context succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled compile failed with %v, want context.Canceled", err)
	}
}

// TestPoolRoutesRemote wires a coordinator into a parallel.Pool via
// PoolOptions.Remote and checks that admitted jobs run on the fleet,
// that the Result matches local pool output, and that the fleet
// counters surface in Metrics and the Prometheus text format.
func TestPoolRoutesRemote(t *testing.T) {
	job := pascalJob(t, workload.Tiny())
	local, err := parallel.Run(job, parallel.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(t, 2, job, nil, fleet.CoordinatorOptions{})
	pool := parallel.NewPool(parallel.PoolOptions{Workers: 2, Remote: e.co})
	defer pool.Close()
	res, err := pool.Compile(context.Background(), job, parallel.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program != local.Program {
		t.Errorf("pool-routed fleet program differs from local pool program")
	}
	if res.RemoteFrags == 0 {
		t.Errorf("pool routed to the fleet but no fragment ran remotely")
	}
	m := pool.Metrics()
	if m.Fleet == nil {
		t.Fatal("Metrics.Fleet is nil with a remote evaluator attached")
	}
	if m.Fleet.RemoteFrags == 0 {
		t.Errorf("Metrics.Fleet.RemoteFrags = 0 after a remote compile")
	}
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, metric := range []string{
		"pag_fleet_workers", "pag_fleet_workers_ready",
		"pag_fleet_remote_fragments_total", "pag_fleet_local_fragments_total",
		"pag_fleet_retries_total", "pag_fleet_requeues_total",
		"pag_fleet_corrupt_responses_total", "pag_fleet_worker_transitions_total",
		"pag_fleet_degraded_jobs_total",
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("Prometheus output missing %s", metric)
		}
	}
}

// TestFleetPoolFilesPlanMetrics: a pool that routes to the fleet files
// the same plan observability as a local pool for the same job — the
// cross-fragment message total, the latest balance, the width and
// planning-time histograms — because the pool plans both kinds of job.
func TestFleetPoolFilesPlanMetrics(t *testing.T) {
	job := pascalJob(t, workload.Tiny())
	opts := parallel.Options{Workers: 2}
	local := parallel.NewPool(parallel.PoolOptions{Workers: 2, CacheBytes: -1})
	defer local.Close()
	e := newEnv(t, 2, job, nil, fleet.CoordinatorOptions{})
	remote := parallel.NewPool(parallel.PoolOptions{Workers: 2, Remote: e.co})
	defer remote.Close()
	for _, p := range []*parallel.Pool{local, remote} {
		if _, err := p.Compile(context.Background(), job, opts); err != nil {
			t.Fatal(err)
		}
	}
	lm, rm := local.Metrics(), remote.Metrics()
	if rm.MessagesTotal == 0 || rm.MessagesTotal != lm.MessagesTotal {
		t.Errorf("fleet pool MessagesTotal = %d, local pool %d", rm.MessagesTotal, lm.MessagesTotal)
	}
	if rm.LastBalance == 0 || rm.LastBalance != lm.LastBalance {
		t.Errorf("fleet pool LastBalance = %v, local pool %v", rm.LastBalance, lm.LastBalance)
	}
	if len(rm.PlanWidths) == 0 || !maps.Equal(rm.PlanWidths, lm.PlanWidths) {
		t.Errorf("fleet pool PlanWidths = %v, local pool %v", rm.PlanWidths, lm.PlanWidths)
	}
	if rm.PlanTime.Count != 1 || lm.PlanTime.Count != 1 || rm.Wall.Count != 1 {
		t.Errorf("plan-time counts: fleet %d, local %d (fleet wall %d), want 1 each",
			rm.PlanTime.Count, lm.PlanTime.Count, rm.Wall.Count)
	}
}
