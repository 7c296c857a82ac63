package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pag/internal/cluster"
	"pag/internal/parallel"
	"pag/internal/pascal"
	"pag/internal/workload"
)

// These tests drive fleet jobs through the job runtime they share with
// local pool jobs (parallel.Runtime): its deadlock report, its failure
// handling and its slot rule, seen through the fleet's transport.

func tinyPascalJob(t *testing.T) cluster.Job {
	t.Helper()
	job, err := pascal.MustNew().ClusterJob(workload.Generate(workload.Tiny()))
	if err != nil {
		t.Fatalf("ClusterJob: %v", err)
	}
	return job
}

// settleGoroutines waits for exiting goroutines to finish and returns
// the goroutine count.
func settleGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m < n {
			n = m
		}
	}
	return runtime.NumGoroutine()
}

// hookTransport runs hook before passing each session RPC on to a
// one-worker MemTransport; hook may replace the request body or answer
// with an error instead.
type hookTransport struct {
	*MemTransport
	hook func(path string, body []byte) ([]byte, error)
}

func (h *hookTransport) Do(ctx context.Context, addr, path string, body []byte) ([]byte, error) {
	if path == pathOpen || path == pathSupply {
		var err error
		if body, err = h.hook(path, body); err != nil {
			return nil, err
		}
	}
	return h.MemTransport.Do(ctx, addr, path, body)
}

// hookedCoordinator builds a coordinator over one in-process worker
// behind hook, with the given retry backoff.
func hookedCoordinator(t *testing.T, job cluster.Job, backoff time.Duration, hook func(path string, body []byte) ([]byte, error)) *Coordinator {
	t.Helper()
	mem := NewMemTransport()
	w := NewWorker()
	w.Register(job.G, job.A, job.Lex)
	mem.Add("w0", w)
	client := NewClient(ClientOptions{Workers: []string{"w0"}, Transport: &hookTransport{mem, hook}})
	client.Start()
	t.Cleanup(client.Stop)
	return NewCoordinator(CoordinatorOptions{Client: client, Backoff: backoff, MaxBackoff: backoff})
}

// compileOn runs job on a one-slot pool whose jobs evaluate on co.
func compileOn(co *Coordinator, job cluster.Job, width int) (*parallel.Result, error) {
	pool := parallel.NewPool(parallel.PoolOptions{Workers: 1, Remote: co})
	defer pool.Close()
	return pool.Compile(context.Background(), job, parallel.Options{Workers: width})
}

// TestFleetDeadlockReport loses the attribute values of one supply on
// the way to the worker, so its session never completes and the job
// goes quiet with that fragment unfinished. The job runtime's deadlock
// report must name it, and no goroutine may outlive the job.
func TestFleetDeadlockReport(t *testing.T) {
	job := tinyPascalJob(t)
	var dropped atomic.Int64
	dropped.Store(-1)
	co := hookedCoordinator(t, job, time.Millisecond, func(path string, body []byte) ([]byte, error) {
		var req supplyReq
		if path != pathSupply || unsealFrame(body, &req) != nil || len(req.Msgs) == 0 {
			return body, nil
		}
		frag, err := strconv.Atoi(req.Session[strings.LastIndexByte(req.Session, '-')+1:])
		if err != nil || !dropped.CompareAndSwap(-1, int64(frag)) {
			return body, err
		}
		req.Msgs = nil
		return sealFrame(&req), nil
	})
	before := settleGoroutines()
	_, err := compileOn(co, job, 2)
	if err == nil {
		t.Fatal("a job that lost a batch completed")
	}
	frag := dropped.Load()
	if frag < 0 {
		t.Fatal("no supply carried attribute values")
	}
	if !strings.Contains(err.Error(), "deadlocked") || !strings.Contains(err.Error(), fmt.Sprintf("fragment %d [", frag)) {
		t.Errorf("error %q does not report fragment %d deadlocked", err, frag)
	}
	if after := settleGoroutines(); after > before {
		t.Errorf("goroutines grew from %d to %d", before, after)
	}
}

// TestFleetFatalErrorStopsSiblings: fragment 1's open fails in transit
// and backs off for a minute, then fragment 0's open is refused as
// unevaluable. The refusal fails the job and cancels its context, so
// fragment 1 leaves its backoff at once, and the job returns the
// refusal, not the cancellation it triggered.
func TestFleetFatalErrorStopsSiblings(t *testing.T) {
	job := tinyPascalJob(t)
	backingOff := make(chan struct{})
	var once sync.Once
	co := hookedCoordinator(t, job, time.Minute, func(path string, body []byte) ([]byte, error) {
		var req openReq
		if path != pathOpen || unsealFrame(body, &req) != nil {
			return body, nil
		}
		if req.Frag == 1 {
			once.Do(func() { close(backingOff) })
			return nil, errors.New("connection reset")
		}
		<-backingOff
		return nil, &StatusError{Code: http.StatusUnprocessableEntity, Msg: "unevaluable"}
	})
	done := make(chan error, 1)
	go func() {
		_, err := compileOn(co, job, 2)
		done <- err
	}()
	select {
	case err := <-done:
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusUnprocessableEntity {
			t.Fatalf("got %v, want the 422 refusal", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the job sat out its sibling's backoff")
	}
}

// TestFleetStepsTakeNoSlot: on a one-slot pool, both fragments of a
// width-2 fleet job have their opens in flight at once, because a
// remote step is an RPC and holds no evaluation slot.
func TestFleetStepsTakeNoSlot(t *testing.T) {
	job := tinyPascalJob(t)
	var inFlight, peak atomic.Int32
	both := make(chan struct{})
	co := hookedCoordinator(t, job, time.Millisecond, func(path string, body []byte) ([]byte, error) {
		if path != pathOpen {
			return body, nil
		}
		if n := inFlight.Add(1); n > peak.Load() {
			peak.Store(n)
			if n == 2 {
				close(both)
			}
		}
		select {
		case <-both:
		case <-time.After(2 * time.Second):
		}
		inFlight.Add(-1)
		return body, nil
	})
	res, err := compileOn(co, job, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frags != 2 {
		t.Fatalf("job split into %d fragments, want 2", res.Frags)
	}
	if got := peak.Load(); got != 2 {
		t.Errorf("%d opens in flight at most, want 2", got)
	}
}
