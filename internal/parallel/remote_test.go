package parallel

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"

	"pag/internal/ag"
	"pag/internal/cluster"
	"pag/internal/exprlang"
	"pag/internal/tree"
)

// stubRemote records what the pool hands a RemoteEvaluator and fills
// in a canned outcome.
type stubRemote struct {
	jobs    []cluster.Job
	opts    []Options
	encoded [][][]byte
	stats   FleetStats
}

func (s *stubRemote) Evaluate(ctx context.Context, job cluster.Job, opts Options, decomp *tree.Decomposition, encoded [][]byte, res *Result) error {
	s.jobs = append(s.jobs, job)
	s.opts = append(s.opts, opts)
	s.encoded = append(s.encoded, encoded)
	res.RootAttrs = make([]ag.Value, len(job.G.Start.Attrs))
	res.Program, res.RemoteFrags, res.Degraded = "remote", 2, true
	return nil
}

func (s *stubRemote) FleetStats() FleetStats { return s.stats }

// TestPoolRemoteRouting: with PoolOptions.Remote set, admitted jobs go
// to the remote evaluator with the mode defaulted, the analysis filled
// in and the fragments planned and encoded, and the fleet counters
// surface through Metrics and the Prometheus text format.
func TestPoolRemoteRouting(t *testing.T) {
	l := exprlang.MustNew()
	root, err := l.Parse(exprlang.Generate(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	stub := &stubRemote{stats: FleetStats{Workers: 2, ReadyWorkers: 1, Requeues: 7, DegradedJobs: 1}}
	p := NewPool(PoolOptions{Workers: 2, Remote: stub})
	defer p.Close()
	job := cluster.Job{G: l.G, Root: root, Lex: l.TerminalAttrs}
	res, err := p.Compile(context.Background(), job, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program != "remote" || !res.Degraded {
		t.Errorf("pool did not return the remote result: %+v", res)
	}
	if len(stub.jobs) != 1 {
		t.Fatalf("remote evaluator saw %d jobs, want 1", len(stub.jobs))
	}
	if stub.jobs[0].A == nil {
		t.Errorf("pool did not fill in the analysis before routing remote")
	}
	if stub.opts[0].Mode != cluster.Combined {
		t.Errorf("mode = %v, want defaulted to Combined", stub.opts[0].Mode)
	}
	if stub.opts[0].Workers != 2 {
		t.Errorf("workers = %d, want pool default 2", stub.opts[0].Workers)
	}
	if res.Decomp == nil || res.Frags != res.Decomp.NumFragments() || res.PlanStats.Width != 2 {
		t.Errorf("result header: frags %d, decomp %v, width %d", res.Frags, res.Decomp != nil, res.PlanStats.Width)
	}
	_, want := tree.SplitEncode(root, tree.GranularityFor(root, 2), 2)
	if !slices.EqualFunc(stub.encoded[0], want, bytes.Equal) {
		t.Errorf("pool handed %d encoded fragments, not SplitEncode's %d", len(stub.encoded[0]), len(want))
	}

	m := p.Metrics()
	if m.Fleet == nil || m.Fleet.Requeues != 7 {
		t.Fatalf("Metrics.Fleet = %+v, want the stub's counters", m.Fleet)
	}
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "pag_fleet_requeues_total 7") {
		t.Errorf("Prometheus output missing pag_fleet_requeues_total 7:\n%s", sb.String())
	}
}

// TestPoolWithoutRemote: no remote evaluator means no fleet section in
// Metrics and no pag_fleet_ lines in the Prometheus output.
func TestPoolWithoutRemote(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1})
	defer p.Close()
	m := p.Metrics()
	if m.Fleet != nil {
		t.Fatalf("Metrics.Fleet = %+v on a local-only pool, want nil", m.Fleet)
	}
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "pag_fleet_") {
		t.Errorf("local-only pool emitted fleet metrics")
	}
}
