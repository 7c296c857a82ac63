package parallel

import (
	"runtime"
	"testing"
	"time"
)

// mailboxPair builds a runtime and a receiving fragment actor, not
// parked, so delivery exercises only the mailbox path (no wake).
func mailboxPair() (*rt, *frag) {
	return &rt{quiet: make(chan struct{})}, &frag{id: 1, wake: make(chan struct{}, 1)}
}

// drain empties to's mailbox exactly the way run does: the whole
// inbox under one lock, the drained buffer recycled for the next round.
func drain(to *frag) []message {
	to.mu.Lock()
	msgs := to.inbox
	to.inbox = to.spare[:0]
	to.mu.Unlock()
	to.spare = msgs
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
		r.postBatch(to, batch)
		drain(to)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.postBatch(to, batch)
		if got := drain(to); len(got) != len(batch) {
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
	r.postBatch(to, make([]message, 3))
	if n := len(to.inbox); n != 0 {
		t.Errorf("done fragment accepted %d messages", n)
	}
	if got := r.messages.Load(); got != 3 {
		t.Errorf("message counter = %d, want 3", got)
	}
}

// TestMailboxWakesParkedOnce checks the park/wake handshake. A
// fragment with input waiting does not park. A batch posted to a
// parked fragment counts it busy again and wakes it exactly once; a
// second batch before it runs only queues.
func TestMailboxWakesParkedOnce(t *testing.T) {
	r, to := mailboxPair()
	r.busy.Store(2) // the posting fragment and to
	batch := make([]message, 4)

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
	r.postBatch(to, batch)
	r.postBatch(to, batch)
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

// BenchmarkMailboxDelivery measures the per-batch cost of the mailbox
// hot path (one lock per batch, zero allocations).
func BenchmarkMailboxDelivery(b *testing.B) {
	r, to := mailboxPair()
	batch := make([]message, 8)
	r.postBatch(to, batch)
	drain(to)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.postBatch(to, batch)
		drain(to)
	}
}
