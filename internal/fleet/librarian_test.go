package fleet_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"pag/internal/ag"
	"pag/internal/cluster"
	"pag/internal/fleet"
	"pag/internal/parallel"
	"pag/internal/rope"
	"pag/internal/tree"
	"pag/internal/workload"
)

// TestHandleRangeExhaustionFailsJob is the librarian store-path
// regression test, on the runtime that keeps handle ranges: a fleet
// job whose fragments exhaust their private handle ranges must fail
// with an error naming rope.ErrRangeExhausted, well within its
// deadline. Exhaustion is job-fatal: the worker answers 422 and the
// coordinator neither retries nor requeues the fragment elsewhere,
// where it could only fail again. The same workers then compile a
// clean job byte-identically to the local pool.
func TestHandleRangeExhaustionFailsJob(t *testing.T) {
	job := pascalJob(t, workload.Tiny())
	e := newEnv(t, 2, job, nil, fleet.CoordinatorOptions{})
	opts := parallel.Options{Workers: 4, NoCache: true}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	restore := rope.SetRangeCapForTesting(0)
	_, err := compileFleet(ctx, e.co, job, opts)
	restore()
	if err == nil || !strings.Contains(err.Error(), rope.ErrRangeExhausted.Error()) {
		t.Fatalf("exhausted job returned %v, want an error naming %q", err, rope.ErrRangeExhausted)
	}
	if ctx.Err() != nil {
		t.Fatalf("exhausted job ran into its deadline: %v", err)
	}
	var se *fleet.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusUnprocessableEntity {
		t.Errorf("exhausted job failed with %v, want the worker's 422", err)
	}
	if st := e.co.FleetStats(); st.Requeues != 0 || st.Retries != 0 || st.DegradedJobs != 0 {
		t.Errorf("exhaustion was retried, requeued or degraded: %+v", st)
	}

	local, err := parallel.Run(job, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := compileFleet(context.Background(), e.co, job, opts)
	if err != nil {
		t.Fatalf("clean job after exhaustion: %v", err)
	}
	if res.Program != local.Program {
		t.Error("clean job after exhaustion differs from the local pool's program")
	}
	if res.RemoteFrags == 0 || res.StoredStrings == 0 {
		t.Errorf("clean job: %d remote fragments, %d stored strings; want the fleet's librarian in use",
			res.RemoteFrags, res.StoredStrings)
	}
}

// TestCoordinatorRejectsTooManyFragments: the coordinator owns the
// fleet's librarian, whose fragments allocate handles from disjoint
// ranges, so it refuses a planned decomposition wider than
// rope.MaxHandleRanges up front instead of letting the ranges wrap.
// The local pool, which keeps no librarian, compiles the same request.
func TestCoordinatorRejectsTooManyFragments(t *testing.T) {
	job := wideListJob(t, rope.MaxHandleRanges+64)
	opts := parallel.Options{Workers: 1, Fragments: rope.MaxHandleRanges + 1, Granularity: tree.MinGranularity, NoCache: true}
	local, err := parallel.Run(job, opts)
	if err != nil {
		t.Fatalf("local pool: %v", err)
	}
	if local.Frags <= rope.MaxHandleRanges {
		t.Fatalf("list planned %d fragments; the test needs more than %d", local.Frags, rope.MaxHandleRanges)
	}
	co := fleet.NewCoordinator(fleet.CoordinatorOptions{})
	_, err = compileFleet(context.Background(), co, job, opts)
	if err == nil || !strings.Contains(err.Error(), "handle ranges") {
		t.Fatalf("fleet job of %d fragments returned %v, want a handle-range width error", local.Frags, err)
	}
	if st := co.FleetStats(); st.LocalFrags != 0 || st.RemoteFrags != 0 {
		t.Errorf("rejected job placed fragments: %+v", st)
	}
}

// TestWorkerRefusesGrammarWithoutAnalysis: sessions run the combined
// evaluator, which needs the grammar's analysis, so a worker whose
// grammar was registered without one refuses every open with a 422
// that says so.
func TestWorkerRefusesGrammarWithoutAnalysis(t *testing.T) {
	job := pascalJob(t, workload.Tiny())
	w := fleet.NewWorker()
	w.Register(job.G, nil, job.Lex)
	mem := fleet.NewMemTransport()
	mem.Add("w0", w)
	client := fleet.NewClient(fleet.ClientOptions{Workers: []string{"w0"}, Transport: mem})
	client.Start()
	defer client.Stop()
	co := fleet.NewCoordinator(fleet.CoordinatorOptions{Client: client, Backoff: time.Millisecond})
	_, err := compileFleet(context.Background(), co, job, parallel.Options{Workers: 2, NoCache: true})
	var se *fleet.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusUnprocessableEntity || !strings.Contains(se.Msg, "without an analysis") {
		t.Fatalf("open on a grammar without analysis returned %v, want a 422 naming the missing analysis", err)
	}
}

// textCodec carries string attribute values across fragment edges.
type textCodec struct{}

func (textCodec) Encode(v ag.Value) ([]byte, error) { return []byte(v.(string)), nil }
func (textCodec) Decode(b []byte) (ag.Value, error) { return string(b), nil }

// wideListJob is a left-recursive list of n tokens under a split
// nonterminal whose every subtree may be cut, so a small granularity
// plans one fragment per list element.
func wideListJob(t *testing.T, n int) cluster.Job {
	t.Helper()
	b := ag.NewBuilder("widelist")
	tok := b.Terminal("tok", ag.Syn("text"))
	list := b.SplitNonterminal("L", 1, ag.Syn("val").WithCodec(textCodec{}))
	s := b.Nonterminal("S", ag.Syn("val").WithCodec(textCodec{}))
	top := b.Production(s, []*ag.Symbol{list}, ag.Copy("val", "1.val"))
	more := b.Production(list, []*ag.Symbol{list, tok},
		ag.Def("val", func(args []ag.Value) ag.Value { return args[1].(string) }, "1.val", "2.text"))
	one := b.Production(list, []*ag.Symbol{tok}, ag.Copy("val", "1.text"))
	b.Start(s)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := ag.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	l := tree.New(one, tree.NewTerminal(tok, "w0", "w0"))
	for i := 1; i < n; i++ {
		w := fmt.Sprintf("w%d", i)
		l = tree.New(more, l, tree.NewTerminal(tok, w, w))
	}
	return cluster.Job{G: g, A: a, Root: tree.New(top, l)}
}
