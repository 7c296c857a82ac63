package fleet_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
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

// cancelOnSupply cancels a job's context as the job sends its first
// supply, and passes every call on.
type cancelOnSupply struct {
	fleet.Transport
	once   sync.Once
	cancel context.CancelFunc
}

func (c *cancelOnSupply) Do(ctx context.Context, addr, path string, body []byte) ([]byte, error) {
	if path == "/fleet/supply" {
		c.once.Do(c.cancel)
	}
	return c.Transport.Do(ctx, addr, path, body)
}

// compileCancelled runs one job on w that is cancelled at its first
// supply, and checks it fails as cancelled.
func compileCancelled(t *testing.T, w *fleet.Worker, job cluster.Job, width int) {
	t.Helper()
	mem := fleet.NewMemTransport()
	mem.Add("w0", w)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	client := fleet.NewClient(fleet.ClientOptions{Workers: []string{"w0"}, Transport: &cancelOnSupply{Transport: mem, cancel: cancel}})
	client.Start()
	defer client.Stop()
	co := fleet.NewCoordinator(fleet.CoordinatorOptions{Client: client})
	if _, err := compileFleet(ctx, co, job, parallel.Options{Workers: width}); !errors.Is(err, context.Canceled) {
		t.Fatalf("job cancelled at its first supply: got %v, want context.Canceled", err)
	}
}

// waitUntil polls cond for up to 5s: closes are fire-and-forget, so
// they may land after the job returned.
func waitUntil(t *testing.T, cond func() bool, what func() string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(what())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitNoSessions waits until w has closed every session.
func waitNoSessions(t *testing.T, w *fleet.Worker) {
	t.Helper()
	waitUntil(t, func() bool { return w.Sessions() == 0 },
		func() string { return fmt.Sprintf("%d sessions still open 5s after their jobs ended", w.Sessions()) })
}

// TestFleetFailedJobClosesSessions: a job that fails still closes
// every session it opened. Each job here is cancelled at its first
// supply, after its fragments have opened; with the sessions left open
// a worker would run into DefaultMaxSessions and refuse all work.
func TestFleetFailedJobClosesSessions(t *testing.T) {
	job := pascalJob(t, workload.Tiny())
	w := fleet.NewWorker()
	w.Register(job.G, job.A, job.Lex)
	for i := 0; i < 5; i++ {
		compileCancelled(t, w, job, 2)
	}
	waitNoSessions(t, w)
}

// TestFleetRecycledStorageNeverLeaks runs one worker through sessions
// over different programs and grammars, with a malformed open and a
// cancelled job in between, waiting after each job until its sessions
// are closed so the next opens decode into recycled builders. Every
// result must equal the simulated cluster's and a fresh worker's.
func TestFleetRecycledStorageNeverLeaks(t *testing.T) {
	l := pascal.MustNew()
	pjob := func(cfg workload.Config) cluster.Job {
		job, err := l.ClusterJob(workload.Generate(cfg))
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	course, tiny, small := pjob(workload.CourseCompiler()), pjob(workload.Tiny()), pjob(workload.Small())
	expr := exprJob(t, exprlang.Generate(8, 6))

	w := fleet.NewWorker()
	w.Register(course.G, course.A, course.Lex)
	w.Register(expr.G, expr.A, expr.Lex)
	mem := fleet.NewMemTransport()
	mem.Add("w0", w)
	client := fleet.NewClient(fleet.ClientOptions{Workers: []string{"w0"}, Transport: mem})
	client.Start()
	t.Cleanup(client.Stop)
	co := fleet.NewCoordinator(fleet.CoordinatorOptions{Client: client})

	// output is what a job computed: the program, or exprlang's value.
	output := func(job cluster.Job, program string, root []ag.Value) string {
		if job.G == expr.G {
			return fmt.Sprint(root[exprlang.AttrValue])
		}
		return program
	}
	compile := func(name string, job cluster.Job, width int) {
		t.Helper()
		sim, err := cluster.Run(job, cluster.Options{Machines: width, Mode: cluster.Combined, Librarian: true, UIDPreset: true})
		if err != nil {
			t.Fatalf("%s: cluster: %v", name, err)
		}
		fresh := newEnv(t, 1, job, nil, fleet.CoordinatorOptions{})
		want, err := compileFleet(context.Background(), fresh.co, job, parallel.Options{Workers: width})
		if err != nil {
			t.Fatalf("%s: fresh worker: %v", name, err)
		}
		got, err := compileFleet(context.Background(), co, job, parallel.Options{Workers: width})
		if err != nil {
			t.Fatalf("%s: recycling worker: %v", name, err)
		}
		if got.RemoteFrags != got.Frags {
			t.Errorf("%s: %d of %d fragments ran on the worker", name, got.RemoteFrags, got.Frags)
		}
		g, s, f := output(job, got.Program, got.RootAttrs), output(job, sim.Program, sim.RootAttrs), output(job, want.Program, want.RootAttrs)
		if g != s || g != f {
			t.Errorf("%s: recycling worker's output differs (cluster equal: %v, fresh worker equal: %v)", name, g == s, g == f)
		}
		waitNoSessions(t, w)
	}
	malformed := func() {
		t.Helper()
		d, enc := tree.SplitEncode(course.Root, tree.GranularityFor(course.Root, 2), 2)
		enc[1] = enc[1][:len(enc[1])-1]
		var res parallel.Result
		if err := co.Evaluate(context.Background(), course, parallel.Options{Workers: 2}, d, enc, &res); err == nil {
			t.Fatal("a truncated subtree evaluated without error")
		}
		waitNoSessions(t, w)
	}

	compile("course/2", course, 2)
	// A close removes its session before it recycles the builder.
	waitUntil(t, func() bool { return fleet.FreeBuilders(w) > 0 },
		func() string { return "the worker kept no builder after a course job's sessions closed" })
	compile("tiny/2", tiny, 2)
	malformed()
	compile("course/3", course, 3)
	compile("exprlang/4", expr, 4)
	compileCancelled(t, w, small, 4)
	waitNoSessions(t, w)
	compile("small/4", small, 4)
	compile("course/4", course, 4)
	compile("exprlang/2", expr, 2)
	compile("small/2", small, 2)
}

// TestFleetAbandonedOpenLeavesNoSession: an open the coordinator gives
// up on (its per-call deadline passes first) is still served by the
// worker, which must not keep the session: the coordinator has moved
// on, so nothing would ever close it, and enough of them saturate the
// worker. Every open here is answered after 60 ms against a 30 ms
// deadline, so each is abandoned and the job finishes on the
// coordinator's local fallback.
func TestFleetAbandonedOpenLeavesNoSession(t *testing.T) {
	job := pascalJob(t, workload.Tiny())
	w := fleet.NewWorker()
	w.Register(job.G, job.A, job.Lex)
	routes := w.Routes()
	var opens, served atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/fleet/open" {
			opens.Add(1)
			defer served.Add(1)
			time.Sleep(60 * time.Millisecond)
		}
		routes.ServeHTTP(rw, r)
	}))
	t.Cleanup(srv.Close)
	client := fleet.NewClient(fleet.ClientOptions{Workers: []string{srv.URL}, CallTimeout: 30 * time.Millisecond})
	client.Start()
	defer client.Stop()
	co := fleet.NewCoordinator(fleet.CoordinatorOptions{Client: client})
	if _, err := compileFleet(context.Background(), co, job, parallel.Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if opens.Load() == 0 {
		t.Fatal("no open reached the worker; the test exercises nothing")
	}
	// The job finished on the fallback while the worker still served
	// its opens: wait for them before counting sessions.
	waitUntil(t, func() bool { return served.Load() == opens.Load() },
		func() string {
			return fmt.Sprintf("%d of %d opens still being served", opens.Load()-served.Load(), opens.Load())
		})
	waitNoSessions(t, w)
}
