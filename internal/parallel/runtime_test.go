package parallel

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"pag/internal/ag"
	"pag/internal/cluster"
	"pag/internal/pascal"
	"pag/internal/tree"
	"pag/internal/workload"
)

// settle waits for exiting goroutines to finish and returns the
// goroutine count.
func settle() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m < n {
			n = m
		}
	}
	return runtime.NumGoroutine()
}

// dropFirstInput is a local fragment body that loses the first batch
// of attribute values delivered to it, as a lossy link would.
type dropFirstInput struct {
	*frag
	dropped bool
}

func (d *dropFirstInput) Step(in []message) (Next, error) {
	if len(in) > 0 && !d.dropped {
		d.dropped, in = true, nil
	}
	return d.frag.Step(in)
}

// TestLocalDeadlockReport runs a local job whose fragment 1 loses one
// input batch, so the job goes quiet with it unfinished. The job
// runtime's deadlock report must name it, and no goroutine may outlive
// the job.
func TestLocalDeadlockReport(t *testing.T) {
	job, err := pascal.MustNew().ClusterJob(workload.Generate(workload.Tiny()))
	if err != nil {
		t.Fatal(err)
	}
	decomp := tree.Plan(job.Root, tree.GranularityFor(job.Root, 2), 2)
	if decomp.NumFragments() != 2 {
		t.Fatalf("job split into %d fragments, want 2", decomp.NumFragments())
	}
	before := settle()
	j := newLocalJob(context.Background(), make(chan struct{}, 1), job, decomp)
	j.actors[1].body = &dropFirstInput{frag: &j.frags[1]}
	j.Start()
	err = j.Wait()
	if err == nil {
		t.Fatal("a job that lost a batch completed")
	}
	if !strings.Contains(err.Error(), "deadlocked") || !strings.Contains(err.Error(), "fragment 1 [") {
		t.Errorf("error %q does not report fragment 1 deadlocked", err)
	}
	if after := settle(); after > before {
		t.Errorf("goroutines grew from %d to %d", before, after)
	}
}

// TestPanicWinsOverCancellation: a rule that cancels its job's context
// and then panics fails the job with the panic, not the cancellation.
func TestPanicWinsOverCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b := ag.NewBuilder("cancelpanic")
	tok := b.Terminal("tok", ag.Syn("text"))
	s := b.Nonterminal("S", ag.Syn("val"))
	prod := b.Production(s, []*ag.Symbol{tok},
		ag.Def("val", func(args []ag.Value) ag.Value {
			cancel()
			panic("rule exploded after cancelling")
		}, "1.text"))
	b.Start(s)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	job := cluster.Job{G: g, Root: tree.New(prod, tree.NewTerminal(tok, "x", "x"))}
	p := NewPool(PoolOptions{Workers: 1})
	defer p.Close()
	_, err = p.Compile(ctx, job, Options{NoCache: true})
	if err == nil || errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("got %v, want the rule's panic", err)
	}
}
