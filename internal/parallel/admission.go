package parallel

import (
	"errors"
	"fmt"
	"sync"
)

// Priority is a job's admission class. Admission capacity freed by a
// finishing job always goes to the oldest waiting high-priority job
// first, so interactive traffic is never starved by queued batch work;
// low-priority jobs run whenever no high-priority job is waiting.
// Priority orders ADMISSION only — once admitted, fragments of every
// job share the pool's evaluation slots in the order they ask.
type Priority uint8

const (
	// PriorityHigh is the default class: interactive traffic.
	PriorityHigh Priority = iota
	// PriorityLow marks batch work that yields admission to
	// high-priority jobs whenever the pool is saturated.
	PriorityLow
)

// String returns "high" or "low".
func (p Priority) String() string {
	if p == PriorityLow {
		return "low"
	}
	return "high"
}

// PriorityHeader is the HTTP request header that carries a job's
// admission class to pagd, parsed by ParsePriority.
const PriorityHeader = "X-Pag-Priority"

// ParsePriority maps "high"/"low" (and "" = high) to a Priority.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "high":
		return PriorityHigh, nil
	case "low":
		return PriorityLow, nil
	}
	return PriorityHigh, fmt.Errorf("parallel: unknown priority %q (want \"high\" or \"low\")", s)
}

// ErrQuotaExceeded reports that a client already has its full
// per-client quota of jobs admitted or waiting. Returned errors wrap
// it, so errors.Is(err, ErrQuotaExceeded) identifies the case; use
// errors.As with *QuotaError for the client and limit.
var ErrQuotaExceeded = errors.New("parallel: per-client quota exceeded")

// QuotaError is the typed form of an over-quota rejection.
type QuotaError struct {
	// Client is the rejected client identity (Options.Client).
	Client string
	// Limit is the pool's per-client quota (PoolOptions.ClientQuota).
	Limit int
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("parallel: client %q over quota (%d jobs admitted or waiting)", e.Client, e.Limit)
}

// Unwrap makes errors.Is(err, ErrQuotaExceeded) work.
func (e *QuotaError) Unwrap() error { return ErrQuotaExceeded }

// waiter is one job blocked in the admission queue. ready is closed
// exactly once, when a finishing job hands its slot over; granted
// distinguishes that hand-off from an abandoning wake-up (context
// cancellation, pool close), which must not leak the slot.
type waiter struct {
	ready   chan struct{}
	client  string
	granted bool
}

// admission is the pool's admission controller: a hard bound on
// concurrently evaluating jobs (max), a bounded two-class wait queue
// beyond it (depth), and an optional per-client quota covering jobs
// admitted or waiting. All state is guarded by mu; the hot path is
// one short critical section per admit/release.
type admission struct {
	mu    sync.Mutex
	cond  *sync.Cond // signals inFlight == 0 while closed (drain)
	max   int
	depth int
	quota int // per-client bound on admitted+waiting jobs; 0 = unlimited

	inFlight  int
	high, low []*waiter
	perClient map[string]int
	closed    bool
}

func newAdmission(max, depth, quota int) *admission {
	a := &admission{max: max, depth: depth, quota: quota}
	a.cond = sync.NewCond(&a.mu)
	if quota > 0 {
		a.perClient = make(map[string]int)
	}
	return a
}

// addClient adjusts a client's admitted+waiting count, dropping zero
// entries so one-shot client names cannot grow the map forever.
func (a *admission) addClient(client string, d int) {
	if a.perClient == nil {
		return
	}
	n := a.perClient[client] + d
	if n <= 0 {
		delete(a.perClient, client)
		return
	}
	a.perClient[client] = n
}

// tryAdmit is the lock-held fast path: reject (closed, quota, full
// queue), admit immediately, or enqueue a waiter. It returns
// (nil, nil) for immediate admission, (w, nil) for a queued waiter,
// or (nil, err) for a rejection.
func (a *admission) tryAdmit(client string, prio Priority) (*waiter, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil, ErrPoolClosed
	}
	if a.quota > 0 && a.perClient[client] >= a.quota {
		return nil, &QuotaError{Client: client, Limit: a.quota}
	}
	if a.inFlight < a.max {
		a.inFlight++
		a.addClient(client, 1)
		return nil, nil
	}
	if len(a.high)+len(a.low) >= a.depth {
		return nil, ErrOverloaded
	}
	w := &waiter{ready: make(chan struct{}), client: client}
	if prio == PriorityLow {
		a.low = append(a.low, w)
	} else {
		a.high = append(a.high, w)
	}
	a.addClient(client, 1)
	return w, nil
}

// abandon removes a still-waiting waiter (context cancelled, pool
// closing). It reports false when the slot hand-off already happened —
// the caller then owns an admission slot and must release it.
func (a *admission) abandon(w *waiter, prio Priority) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if w.granted {
		return false
	}
	q := &a.high
	if prio == PriorityLow {
		q = &a.low
	}
	for i, cand := range *q {
		if cand == w {
			*q = append((*q)[:i], (*q)[i+1:]...)
			break
		}
	}
	a.addClient(w.client, -1)
	return true
}

// release returns one admission slot. If a job is waiting, the slot is
// handed directly to the oldest high-priority waiter (falling back to
// the oldest low-priority one) without ever becoming free — that
// hand-off is what makes the no-starvation guarantee airtight: a
// low-priority job can never slip into a slot a high-priority job is
// waiting for. While the pool is closing, waiters are not granted
// (they are busy rejecting themselves via closeCh) and the drain
// condition is signalled instead.
func (a *admission) release(client string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.addClient(client, -1)
	if !a.closed {
		var w *waiter
		if len(a.high) > 0 {
			w, a.high = a.high[0], a.high[1:]
		} else if len(a.low) > 0 {
			w, a.low = a.low[0], a.low[1:]
		}
		if w != nil {
			// The slot transfers: inFlight stays, the waiter's client
			// count was already added at enqueue time.
			w.granted = true
			close(w.ready)
			return
		}
	}
	a.inFlight--
	if a.closed && a.inFlight == 0 {
		a.cond.Broadcast()
	}
}

// close flips the controller into rejection mode. Waiters are not
// woken here — they exit via the pool's closeCh broadcast and remove
// themselves through abandon.
func (a *admission) close() {
	a.mu.Lock()
	a.closed = true
	if a.inFlight == 0 {
		a.cond.Broadcast()
	}
	a.mu.Unlock()
}

// drain blocks until no admitted job remains. Only meaningful after
// close: no new job can be admitted, so inFlight is monotone down.
func (a *admission) drain() {
	a.mu.Lock()
	for a.inFlight > 0 {
		a.cond.Wait()
	}
	a.mu.Unlock()
}

// counts reports (inFlight, waitingHigh, waitingLow) for stats.
func (a *admission) counts() (int, int, int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inFlight, len(a.high), len(a.low)
}
