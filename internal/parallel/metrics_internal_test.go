package parallel

import (
	"context"
	"strings"
	"testing"
	"time"

	"pag/internal/ag"
	"pag/internal/cluster"
	"pag/internal/tree"
)

// exprJobInternal builds the smallest possible healthy job for
// in-package pool tests (the external suite has richer pascal helpers).
func exprJobInternal(t *testing.T) cluster.Job {
	t.Helper()
	b := ag.NewBuilder("metrics-test")
	tok := b.Terminal("tok", ag.Syn("text"))
	s := b.Nonterminal("S", ag.Syn("val"))
	prod := b.Production(s, []*ag.Symbol{tok},
		ag.Def("val", func(args []ag.Value) ag.Value { return args[0] }, "1.text"))
	b.Start(s)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := ag.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	root := tree.New(prod, tree.NewTerminal(tok, "x", "x"))
	return cluster.Job{G: g, A: a, Root: root}
}

// TestHistogramBuckets pins the bucket math: observations land in the
// bucket whose upper bound is the first >= the value, snapshots are
// cumulative, and the sum tracks in seconds.
func TestHistogramBuckets(t *testing.T) {
	var h histogram
	h.observe(5 * time.Microsecond)  // <= 10µs → bucket 0
	h.observe(10 * time.Microsecond) // == bound → bucket 0 (le semantics)
	h.observe(11 * time.Microsecond) // → bucket 1 (25µs)
	h.observe(3 * time.Millisecond)  // → le=5ms
	h.observe(42 * time.Second)      // → +Inf overflow
	s := h.snapshot()

	if s.Count != 5 {
		t.Fatalf("Count = %d, want 5", s.Count)
	}
	wantCum := map[float64]int64{
		10e-6:  2, // 5µs and the boundary 10µs
		25e-6:  3,
		500e-6: 3,
		5e-3:   4,
		10:     4, // 42s only shows in Count (+Inf)
	}
	for i, bound := range histBounds {
		if want, ok := wantCum[bound]; ok && s.Buckets[i] != want {
			t.Errorf("cumulative count at le=%g: got %d, want %d", bound, s.Buckets[i], want)
		}
	}
	wantSum := (5*time.Microsecond + 10*time.Microsecond + 11*time.Microsecond +
		3*time.Millisecond + 42*time.Second).Seconds()
	if diff := s.SumSeconds - wantSum; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("SumSeconds = %g, want %g", s.SumSeconds, wantSum)
	}
}

// TestHistogramQuantile sanity-checks the interpolated quantiles.
func TestHistogramQuantile(t *testing.T) {
	var h histogram
	if got := h.snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty histogram p50 = %g, want 0", got)
	}
	// 100 observations of ~2ms: p50 and p99 must land inside the
	// (1ms, 2.5ms] bucket.
	for i := 0; i < 100; i++ {
		h.observe(2 * time.Millisecond)
	}
	s := h.snapshot()
	for _, q := range []float64{0.5, 0.99} {
		got := s.Quantile(q)
		if got <= 1e-3 || got > 2.5e-3 {
			t.Errorf("q%g = %g, want within (1ms, 2.5ms]", q, got)
		}
	}
}

// TestWritePrometheus compiles one job and checks the exposition
// output carries every series family the scrape contract names:
// job/outcome counters, admission rejections, queue-depth gauges,
// cache counters and the latency histograms.
func TestWritePrometheus(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 2, MaxInFlight: 1, QueueDepth: -1})
	defer p.Close()
	job := exprJobInternal(t)
	if _, err := p.Compile(context.Background(), job, Options{Fragments: 2}); err != nil {
		t.Fatal(err)
	}
	// Force one overload rejection so the reason-labelled counter is
	// nonzero.
	occupy(t, p, "", 1)
	if err := p.acquire(context.Background(), Options{}); err == nil {
		t.Fatal("expected overload")
	}
	p.adm.release("")

	var sb strings.Builder
	if err := p.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`pag_jobs_total{outcome="done"} 1`,
		`pag_jobs_total{outcome="failed"} 0`,
		`pag_admission_rejected_total{reason="overloaded"} 1`,
		`pag_admission_rejected_total{reason="quota"} 0`,
		`pag_queue_depth{priority="high"} 0`,
		`pag_queue_depth{priority="low"} 0`,
		"pag_in_flight 0",
		"pag_cache_hits_total 0",
		"pag_cache_misses_total 1",
		`pag_phase_seconds_bucket{phase="split",le="+Inf"} 1`,
		`pag_phase_seconds_bucket{phase="eval",le="+Inf"} 1`,
		`pag_phase_seconds_bucket{phase="splice",le="+Inf"} 1`,
		`pag_queue_wait_seconds_count 1`,
		`pag_job_wall_seconds_count 1`,
		"# TYPE pag_jobs_total counter",
		"# TYPE pag_queue_wait_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition output missing %q", want)
		}
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "%!") {
		t.Errorf("exposition output malformed:\n%s", out)
	}
}
