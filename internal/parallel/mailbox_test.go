package parallel

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// mailboxPair builds a runtime and a receiving local fragment, not
// parked, so delivery exercises only the mailbox path (no wake).
func mailboxPair() (*Runtime[message], *frag) {
	r, to := &Runtime[message]{quiet: make(chan struct{})}, &frag{}
	r.Add(&to.Actor, to)
	return r, to
}

// drain empties a's mailbox exactly the way step does: the whole inbox
// under one lock, the drained buffer recycled for the next round.
func drain[M any](a *Actor[M]) []M {
	a.mu.Lock()
	msgs := a.inbox
	a.inbox = a.spare[:0]
	a.mu.Unlock()
	a.spare = msgs
	return msgs
}

// TestMailboxBatchDeliveryAllocFree locks in the zero-allocation
// steady state of batched mailbox delivery: once the inbox and batch
// buffers are warm, shipping a batch of attribute messages and
// draining them performs no allocation. A return to per-message
// posting or per-drain buffer churn fails this immediately.
func TestMailboxBatchDeliveryAllocFree(t *testing.T) {
	r, to := mailboxPair()
	batch := make([]message, 8)
	for i := 0; i < 2; i++ { // warm the inbox capacity
		r.Post(&to.Actor, batch)
		drain(&to.Actor)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.Post(&to.Actor, batch)
		if got := drain(&to.Actor); len(got) != len(batch) {
			t.Fatalf("drained %d messages, want %d", len(got), len(batch))
		}
	})
	if allocs > 0 {
		t.Errorf("mailbox batch delivery allocates %.1f times per batch; want 0", allocs)
	}
}

// TestMailboxDropsAfterDone checks that batches to completed fragments
// are dropped but still counted as messages (the counter feeds the
// deterministic Result.Messages).
func TestMailboxDropsAfterDone(t *testing.T) {
	r, to := mailboxPair()
	to.done = true
	r.Post(&to.Actor, make([]message, 3))
	if n := len(to.inbox); n != 0 {
		t.Errorf("done fragment accepted %d messages", n)
	}
	if got := r.Messages(); got != 3 {
		t.Errorf("message counter = %d, want 3", got)
	}
}

// remoteBody is a fake remote fragment body: each step is one scripted
// response of a session on a worker, taken in order, and holds no
// evaluation slot.
type remoteBody struct {
	Actor[[]byte]
	script []Next
	steps  int
}

func (b *remoteBody) Step(in [][]byte) (Next, error) {
	next := b.script[b.steps]
	b.steps++
	return next, nil
}

func (b *remoteBody) Blocked() []string { return nil }

// TestMailboxWakesParkedOnce checks the park/wake handshake, for a
// local fragment and for a remote one (wire bytes, no evaluation
// slot). A fragment with input waiting does not park. A batch posted to
// a parked fragment counts it busy again and wakes it exactly once; a
// second batch before it runs only queues.
func TestMailboxWakesParkedOnce(t *testing.T) {
	t.Run("local", func(t *testing.T) {
		r, to := mailboxPair()
		wakesParkedOnce(t, r, &to.Actor, make([]message, 4))
	})
	t.Run("remote", func(t *testing.T) {
		r, to := NewRuntime[[]byte](context.Background()), &remoteBody{}
		r.quiet = make(chan struct{})
		r.Add(&to.Actor, to)
		wakesParkedOnce(t, r, &to.Actor, make([][]byte, 4))
	})
}

func wakesParkedOnce[M any](t *testing.T, r *Runtime[M], to *Actor[M], batch []M) {
	r.busy.Store(2) // the posting fragment and to
	to.inbox = append(to.inbox, batch...)
	woke := make(chan bool)
	go func() { woke <- r.park(to) }()
	select {
	case <-woke:
	case <-time.After(5 * time.Second):
		t.Fatal("a fragment with input waiting parked")
	}
	if r.busy.Load() != 2 {
		t.Fatalf("busy = %d after park returned on waiting input, want 2", r.busy.Load())
	}
	drain(to)

	go func() { woke <- r.park(to) }()
	for parked := false; !parked; runtime.Gosched() {
		to.mu.Lock()
		parked = to.parked
		to.mu.Unlock()
	}
	if got := r.busy.Load(); got != 1 {
		t.Fatalf("busy = %d with the fragment parked, want 1", got)
	}
	r.Post(to, batch)
	r.Post(to, batch)
	if !<-woke {
		t.Fatal("park reported the job quiet, want a wake")
	}
	if n := len(to.wake); n != 0 {
		t.Errorf("%d wake signals left over, want exactly one sent and taken", n)
	}
	if got := r.busy.Load(); got != 2 {
		t.Errorf("busy = %d after the wake, want 2", got)
	}
	if got := len(drain(to)); got != 2*len(batch) {
		t.Errorf("drained %d messages, want %d", got, 2*len(batch))
	}
}

// TestRuntimeMoreStepsWithoutParking checks that a step answering More
// is stepped again at once, with an empty mailbox, and that the
// fragment parks only once a step answers Park.
func TestRuntimeMoreStepsWithoutParking(t *testing.T) {
	r, b := NewRuntime[[]byte](context.Background()), &remoteBody{script: []Next{More, More, Park, Done}}
	r.Add(&b.Actor, b)
	if !r.step(&b.Actor, true) {
		t.Fatal("fragment ended, want it parked")
	}
	if b.steps != 3 {
		t.Errorf("stepped %d times before parking, want 3 (two More steps continue)", b.steps)
	}
}

// TestRuntimeDrainNeverAliases checks the drained-buffer swap across
// steps that drain an empty mailbox: the buffer a step is handed must
// never also be the inbox that later posts append to.
func TestRuntimeDrainNeverAliases(t *testing.T) {
	r, b := NewRuntime[[]byte](context.Background()), &remoteBody{script: []Next{More, More, Park}}
	r.Add(&b.Actor, b)
	r.Post(&b.Actor, make([][]byte, 2))
	if !r.step(&b.Actor, false) {
		t.Fatal("fragment ended, want it parked")
	}
	in, spare := b.inbox[:cap(b.inbox)], b.spare[:cap(b.spare)]
	if len(in) > 0 && len(spare) > 0 && &in[0] == &spare[0] {
		t.Error("the inbox shares its buffer with the recycled drained one")
	}
}

// BenchmarkMailboxDelivery measures the per-batch cost of the mailbox
// hot path (one lock per batch, zero allocations).
func BenchmarkMailboxDelivery(b *testing.B) {
	r, to := mailboxPair()
	batch := make([]message, 8)
	r.Post(&to.Actor, batch)
	drain(&to.Actor)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Post(&to.Actor, batch)
		drain(&to.Actor)
	}
}
