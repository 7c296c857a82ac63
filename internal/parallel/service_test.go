package parallel_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"pag/internal/ag"
	"pag/internal/cluster"
	"pag/internal/parallel"
	"pag/internal/pascal"
	"pag/internal/tree"
	"pag/internal/workload"
)

// gateJob builds a one-production grammar whose single semantic rule
// signals started and then blocks until release is closed — a job that
// deterministically holds an admission slot mid-evaluation, for
// end-to-end quota/priority tests. Run it with NoCache: a cached
// replay would skip the rule and never block.
func gateJob(t *testing.T, token string, started chan<- struct{}, release <-chan struct{}) cluster.Job {
	t.Helper()
	b := ag.NewBuilder("gate")
	tok := b.Terminal("tok", ag.Syn("text"))
	s := b.Nonterminal("S", ag.Syn("val"))
	prod := b.Production(s, []*ag.Symbol{tok},
		ag.Def("val", func(args []ag.Value) ag.Value {
			started <- struct{}{}
			<-release
			return args[0]
		}, "1.text"))
	b.Start(s)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := ag.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	root := tree.New(prod, tree.NewTerminal(tok, token, token))
	return cluster.Job{G: g, A: a, Root: root}
}

// waitStats polls the pool until the predicate holds.
func waitStats(t *testing.T, p *parallel.Pool, what string, ok func(parallel.PoolStats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok(p.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s (stats %+v)", what, p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolQuotaPriorityEndToEnd drives quotas and priority classes
// through the public Compile path with real jobs: a client holding its
// whole quota mid-evaluation gets its next job rejected with the typed
// quota error; with the pool saturated, a queued high-priority job is
// admitted ahead of an earlier-queued low-priority one.
func TestPoolQuotaPriorityEndToEnd(t *testing.T) {
	pool := parallel.NewPool(parallel.PoolOptions{
		Workers: 2, MaxInFlight: 1, QueueDepth: 8, ClientQuota: 1,
	})
	defer pool.Close()
	gated := parallel.Options{NoCache: true}

	// The blocker: client "batch" evaluating, holding the only slot.
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	blockerDone := make(chan error, 1)
	go func() {
		opts := gated
		opts.Client = "batch"
		opts.Priority = parallel.PriorityLow
		_, err := pool.Compile(context.Background(), gateJob(t, "blocker", started, release), opts)
		blockerDone <- err
	}()
	<-started

	// Quota: "batch" is at its limit while the blocker runs.
	_, err := pool.Compile(context.Background(), exprJob(t, "1+2"), parallel.Options{Client: "batch"})
	if !errors.Is(err, parallel.ErrQuotaExceeded) {
		t.Fatalf("over-quota compile returned %v, want ErrQuotaExceeded", err)
	}
	var qe *parallel.QuotaError
	if !errors.As(err, &qe) || qe.Client != "batch" || qe.Limit != 1 {
		t.Fatalf("quota error detail = %#v, want client=batch limit=1", err)
	}

	// Priority: a low-priority job queues first, a high-priority gate
	// job after it; when the blocker finishes, the high one must own
	// the slot while the low one is still waiting.
	lowDone := make(chan error, 1)
	go func() {
		_, err := pool.Compile(context.Background(), exprJob(t, "2+3"), parallel.Options{
			Client: "low", Priority: parallel.PriorityLow,
		})
		lowDone <- err
	}()
	waitStats(t, pool, "low-priority job queued", func(st parallel.PoolStats) bool {
		return st.WaitingLow == 1
	})

	started2 := make(chan struct{}, 1)
	release2 := make(chan struct{})
	highDone := make(chan error, 1)
	go func() {
		opts := gated
		opts.Client = "interactive"
		_, err := pool.Compile(context.Background(), gateJob(t, "urgent", started2, release2), opts)
		highDone <- err
	}()
	waitStats(t, pool, "high-priority job queued", func(st parallel.PoolStats) bool {
		return st.WaitingHigh == 1
	})

	close(release)
	if err := <-blockerDone; err != nil {
		t.Fatalf("blocker failed: %v", err)
	}
	// The freed slot went to the high-priority job: it is evaluating
	// (its rule signalled) and the low one is still in the queue.
	<-started2
	if st := pool.Stats(); st.WaitingLow != 1 || st.WaitingHigh != 0 {
		t.Fatalf("with high-priority job running: stats %+v, want the low job still queued", st)
	}
	close(release2)
	if err := <-highDone; err != nil {
		t.Fatalf("high-priority job failed: %v", err)
	}
	if err := <-lowDone; err != nil {
		t.Fatalf("low-priority job failed: %v", err)
	}
}

// expiringCtx is a context whose deadline passes when expire is
// called, not on a timer, so a test can make it pass at an exact point
// of a compile.
type expiringCtx struct {
	context.Context
	done    chan struct{}
	expired atomic.Bool
}

func newExpiringCtx() *expiringCtx {
	return &expiringCtx{Context: context.Background(), done: make(chan struct{})}
}

func (c *expiringCtx) Done() <-chan struct{} { return c.done }

func (c *expiringCtx) Err() error {
	if c.expired.Load() {
		return context.DeadlineExceeded
	}
	return nil
}

func (c *expiringCtx) expire() {
	if c.expired.CompareAndSwap(false, true) {
		close(c.done)
	}
}

// TestPoolDeadlineMidEvaluation is the deadline contract end to end:
// a job whose context deadline expires mid-evaluation comes back with
// context.DeadlineExceeded, counts as cancelled, and leaves the pool
// fully reusable — the same job then compiles cleanly to the same
// bytes as before, repeatedly, proving fragments and librarian handle
// ranges were reclaimed.
func TestPoolDeadlineMidEvaluation(t *testing.T) {
	// Every semantic rule of this grammar first expires the armed
	// context, if any: the deadline passes when the job's first rule
	// runs, mid-evaluation however loaded the host is. No fragment is
	// done at that point and at most one step per worker is running,
	// so with more fragments than workers the job cannot complete.
	lang := pascal.MustNew()
	var armed atomic.Pointer[expiringCtx]
	for _, p := range lang.G.Prods {
		for i := range p.Rules {
			eval := p.Rules[i].Eval
			p.Rules[i].Eval = func(args []ag.Value) ag.Value {
				if c := armed.Swap(nil); c != nil {
					c.expire()
				}
				return eval(args)
			}
		}
	}
	job, err := lang.ClusterJob(workload.Generate(workload.Small()))
	if err != nil {
		t.Fatal(err)
	}
	// NoCache keeps every round a full evaluation.
	opts := parallel.Options{Fragments: 8, NoCache: true}
	pool := parallel.NewPool(parallel.PoolOptions{Workers: 2, MaxInFlight: 2})
	defer pool.Close()

	ref, err := pool.Compile(context.Background(), job, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Frags <= pool.Workers() {
		t.Fatalf("%d fragments on %d workers; the test needs more fragments than workers", ref.Frags, pool.Workers())
	}

	const expiries = 3
	for i := 0; i < expiries; i++ {
		ctx := newExpiringCtx()
		armed.Store(ctx)
		if _, err := pool.Compile(ctx, job, opts); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("compile %d: deadline passed mid-evaluation, got %v, want DeadlineExceeded", i, err)
		}
	}
	if got := pool.Metrics().Cancelled; got < expiries {
		t.Errorf("Metrics.Cancelled = %d, want >= %d", got, expiries)
	}

	for i := 0; i < 3; i++ {
		res, err := pool.Compile(context.Background(), job, opts)
		if err != nil {
			t.Fatalf("clean compile %d after expiries: %v", i, err)
		}
		if res.Program != ref.Program {
			t.Fatalf("clean compile %d differs from reference after expiries", i)
		}
	}
}
