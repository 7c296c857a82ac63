package parallel

import (
	"context"
	"errors"
	"testing"
	"time"
)

// occupy takes admission slots directly from the controller, so the
// admission state machine can be pinned down deterministically without
// real jobs in flight.
func occupy(t *testing.T, p *Pool, client string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		w, err := p.adm.tryAdmit(client, PriorityHigh)
		if err != nil || w != nil {
			t.Fatalf("occupying slot %d: waiter=%v err=%v", i, w, err)
		}
	}
}

// waitCounts polls the admission counters until they match or a
// timeout elapses.
func waitCounts(t *testing.T, p *Pool, inFlight, high, low int) {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for {
		gotIn, gotHigh, gotLow := p.adm.counts()
		if gotIn == inFlight && gotHigh == high && gotLow == low {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("admission counts stuck at in-flight=%d high=%d low=%d, want %d/%d/%d",
				gotIn, gotHigh, gotLow, inFlight, high, low)
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// TestAdmissionOverload pins down the admission-control state machine
// deterministically by occupying admission slots directly: with
// MaxInFlight slots taken and no queue, Compile fails fast with
// ErrOverloaded; with a queue, it waits; releasing a slot admits the
// waiter.
func TestAdmissionOverload(t *testing.T) {
	t.Run("no queue", func(t *testing.T) {
		p := NewPool(PoolOptions{Workers: 1, MaxInFlight: 1, QueueDepth: -1})
		defer p.Close()
		occupy(t, p, "", 1)
		err := p.acquire(context.Background(), Options{})
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("acquire on a full pool with no queue returned %v, want ErrOverloaded", err)
		}
		if got := p.Metrics().RejectedOverload; got != 1 {
			t.Fatalf("RejectedOverload = %d, want 1", got)
		}
		p.adm.release("")
	})

	t.Run("bounded queue", func(t *testing.T) {
		p := NewPool(PoolOptions{Workers: 1, MaxInFlight: 1, QueueDepth: 1})
		defer p.Close()
		occupy(t, p, "", 1)

		// First waiter fits in the queue and blocks...
		admitted := make(chan error, 1)
		go func() {
			err := p.acquire(context.Background(), Options{})
			if err == nil {
				p.adm.release("")
			}
			admitted <- err
		}()
		// ...so give it a moment to enter the queue, then overflow it.
		waitCounts(t, p, 1, 1, 0)
		if err := p.acquire(context.Background(), Options{}); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("second waiter returned %v, want ErrOverloaded", err)
		}

		// Releasing the held slot admits the queued waiter.
		p.adm.release("")
		select {
		case err := <-admitted:
			if err != nil {
				t.Fatalf("queued waiter failed: %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("queued waiter was never admitted")
		}
	})

	t.Run("cancel while queued", func(t *testing.T) {
		p := NewPool(PoolOptions{Workers: 1, MaxInFlight: 1, QueueDepth: 4})
		defer p.Close()
		occupy(t, p, "", 1)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := p.acquire(ctx, Options{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
		}
		// The abandoned waiter must have left the queue.
		waitCounts(t, p, 1, 0, 0)
		p.adm.release("")
	})

	t.Run("close while queued", func(t *testing.T) {
		p := NewPool(PoolOptions{Workers: 1, MaxInFlight: 1, QueueDepth: 4})
		occupy(t, p, "", 1)
		rejected := make(chan error, 1)
		go func() { rejected <- p.acquire(context.Background(), Options{}) }()
		waitCounts(t, p, 1, 1, 0)
		// Close blocks draining the slot we hold; return it from
		// another goroutine.
		go func() {
			time.Sleep(10 * time.Millisecond)
			p.adm.release("")
		}()
		p.Close()
		select {
		case err := <-rejected:
			if !errors.Is(err, ErrPoolClosed) {
				t.Fatalf("waiter on closing pool returned %v, want ErrPoolClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("queued waiter survived Close")
		}
	})
}

// TestAdmissionPriority is the no-starvation contract, pinned down
// deterministically: with the pool saturated and low-priority jobs
// queued FIRST, a later high-priority job is admitted ahead of all of
// them as slots free up, and the low-priority jobs still run (in FIFO
// order) once no high-priority job is waiting.
func TestAdmissionPriority(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, MaxInFlight: 1, QueueDepth: 8})
	defer p.Close()
	occupy(t, p, "", 1)

	order := make(chan string, 3)
	wait := func(label string, prio Priority) {
		if err := p.acquire(context.Background(), Options{Priority: prio}); err != nil {
			t.Errorf("%s: %v", label, err)
			return
		}
		order <- label
		p.adm.release("")
	}
	go wait("low-1", PriorityLow)
	waitCounts(t, p, 1, 0, 1)
	go wait("low-2", PriorityLow)
	waitCounts(t, p, 1, 0, 2)
	go wait("high", PriorityHigh)
	waitCounts(t, p, 1, 1, 2)

	// Free the slot: the high-priority job must get it, despite two
	// low-priority jobs having queued first; then the lows in order.
	p.adm.release("")
	want := []string{"high", "low-1", "low-2"}
	for _, expect := range want {
		select {
		case got := <-order:
			if got != expect {
				t.Fatalf("admission order: got %s, want %s", got, expect)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("waiter %s was never admitted", expect)
		}
	}
}

// TestAdmissionQuota checks per-client quotas: admitted and waiting
// jobs both count, over-quota submissions fail with a typed error
// identifying the client, other clients are unaffected, and releasing
// a job restores the client's headroom.
func TestAdmissionQuota(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, MaxInFlight: 4, ClientQuota: 2})
	defer p.Close()
	occupy(t, p, "greedy", 2)

	_, err := p.adm.tryAdmit("greedy", PriorityHigh)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota admit returned %v, want ErrQuotaExceeded", err)
	}
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Client != "greedy" || qe.Limit != 2 {
		t.Fatalf("quota error = %#v, want client=greedy limit=2", err)
	}
	// The Compile-level path counts the rejection.
	if err := p.acquire(context.Background(), Options{Client: "greedy"}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("acquire over quota returned %v", err)
	}
	if got := p.Metrics().RejectedQuota; got != 1 {
		t.Fatalf("RejectedQuota = %d, want 1", got)
	}

	// Another client has its own quota.
	if err := p.acquire(context.Background(), Options{Client: "modest"}); err != nil {
		t.Fatalf("other client rejected: %v", err)
	}
	p.adm.release("modest")

	// Releasing one greedy job restores headroom.
	p.adm.release("greedy")
	if err := p.acquire(context.Background(), Options{Client: "greedy"}); err != nil {
		t.Fatalf("greedy after release: %v", err)
	}
	p.adm.release("greedy")
	p.adm.release("greedy")

	// The per-client map must not retain zero entries.
	p.adm.mu.Lock()
	n := len(p.adm.perClient)
	p.adm.mu.Unlock()
	if n != 0 {
		t.Errorf("perClient retains %d zero entries", n)
	}
}

// TestPoolDefaults checks option resolution.
func TestPoolDefaults(t *testing.T) {
	p := NewPool(PoolOptions{})
	defer p.Close()
	if p.workers <= 0 || p.maxInFlight != p.workers || p.queueDepth != DefaultQueueDepth {
		t.Errorf("defaults: workers=%d maxInFlight=%d queueDepth=%d", p.workers, p.maxInFlight, p.queueDepth)
	}
	st := p.Stats()
	if st.Workers != p.workers || st.MaxInFlight != p.maxInFlight || st.QueueDepth != DefaultQueueDepth {
		t.Errorf("stats don't reflect configuration: %+v", st)
	}
}

// TestSameTreeWaitHonoursContext holds a job's tree as a running
// compile would and checks that a Compile of the same tree waits for
// it, returns ctx.Err() promptly when its context ends, releases its
// admission slot, and compiles once the tree is free.
func TestSameTreeWaitHonoursContext(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, MaxInFlight: 1})
	defer p.Close()
	job := exprJobInternal(t)
	release, err := holdTree(context.Background(), job.Root)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := p.Compile(ctx, job, Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("compile of a held tree returned %v, want context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("compile gave up %v after its deadline", waited)
	}
	if st := p.Stats(); st.Cancelled != 1 || st.InFlight != 0 {
		t.Fatalf("stats after the abandoned wait: %+v", st)
	}
	done := make(chan error, 1)
	go func() {
		_, err := p.Compile(context.Background(), job, Options{})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("compile of a held tree finished (%v) before the tree was released", err)
	case <-time.After(10 * time.Millisecond):
	}
	release()
	if err := <-done; err != nil {
		t.Fatalf("compile after release: %v", err)
	}
}
