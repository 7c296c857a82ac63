package parallel_test

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"pag/internal/ag"
	"pag/internal/cluster"
	"pag/internal/exprlang"
	"pag/internal/parallel"
	"pag/internal/pascal"
	"pag/internal/tree"
	"pag/internal/workload"
)

// sameRootBytes fails the test unless got's root attributes encode, one
// by one through their codecs, to want's bytes.
func sameRootBytes(t *testing.T, g *ag.Grammar, what string, got, want *parallel.Result) {
	t.Helper()
	if len(got.RootAttrs) != len(want.RootAttrs) {
		t.Fatalf("%s: %d root attributes, want %d", what, len(got.RootAttrs), len(want.RootAttrs))
	}
	for ai, a := range g.Start.Attrs {
		gb, err := a.Codec.Encode(got.RootAttrs[ai])
		if err != nil {
			t.Fatalf("%s: encoding %s: %v", what, a.Name, err)
		}
		wb, err := a.Codec.Encode(want.RootAttrs[ai])
		if err != nil {
			t.Fatalf("%s: encoding the reference %s: %v", what, a.Name, err)
		}
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s: root attribute %s differs from the cold compile's", what, a.Name)
		}
	}
	if got.Program != want.Program || got.Frags != want.Frags || got.Messages != want.Messages {
		t.Errorf("%s: program %d bytes, %d fragments, %d messages; cold %d, %d, %d", what,
			len(got.Program), got.Frags, got.Messages, len(want.Program), want.Frags, want.Messages)
	}
}

// TestSourceKeyPerWidth pins what a source key serves. A job recorded
// at width 2 is served at width 2 from memory, and from disk in a fresh
// pool, without a parse. Widths 1, 4 and 8 miss it: every fragment
// numbers its labels from its own unique-identifier base
// (cluster.UIDBaseFor), so one source compiles to a different program
// at each width, and the width stays in the key. Each width then
// records and hits in turn. Every hit equals that width's cold compile
// in each root attribute's codec bytes.
func TestSourceKeyPerWidth(t *testing.T) {
	lang := pascal.MustNew()
	src := workload.Generate(workload.Small())
	ctx := context.Background()
	widths := []int{2, 1, 4, 8}

	cold := make(map[int]*parallel.Result)
	nocache := parallel.NewPool(parallel.PoolOptions{Workers: 2, CacheBytes: -1})
	defer nocache.Close()
	for _, w := range widths {
		res, err := nocache.Compile(ctx, pascalSrcJob(t, src), parallel.Options{Fragments: w})
		if err != nil {
			t.Fatal(err)
		}
		cold[w] = res
	}

	var parses atomic.Int64
	parse := func() (*tree.Node, error) {
		parses.Add(1)
		return lang.Parse(src)
	}
	compile := func(pool *parallel.Pool, w int) *parallel.Result {
		t.Helper()
		res, err := pool.CompileSource(ctx, lang.SourceJob(src), parse, parallel.Options{Fragments: w})
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		return res
	}

	dir := t.TempDir()
	pool := diskPool(t, dir)
	compile(pool, 2)
	for _, w := range widths {
		res := compile(pool, w)
		if w == 2 {
			sameRootBytes(t, lang.G, "width-2 memory hit", res, cold[w])
		} else {
			sameRootBytes(t, lang.G, "miss after a width-2 recording", res, cold[w])
		}
	}
	if n := parses.Load(); n != 4 {
		t.Errorf("%d parses, want 4: the width-2 recording and one miss at each other width", n)
	}
	for _, w := range widths {
		sameRootBytes(t, lang.G, "memory hit", compile(pool, w), cold[w])
	}
	if st := pool.Stats(); parses.Load() != 4 || st.CacheHits != 5 || st.CacheMisses != 4 {
		t.Errorf("after the repeats: %d parses, %+v; want 4 parses, 5 hits, 4 misses", parses.Load(), st)
	}
	pool.Close() // flushes the spills

	fresh := diskPool(t, dir)
	defer fresh.Close()
	for _, w := range widths {
		sameRootBytes(t, lang.G, "disk hit", compile(fresh, w), cold[w])
	}
	if st := fresh.Stats(); parses.Load() != 4 || st.DiskHits != int64(len(widths)) {
		t.Errorf("fresh pool: %d parses, %+v; want no parse and %d disk hits", parses.Load(), st, len(widths))
	}
}

// TestSourceKeyParseFailureRecordsNothing: a source that fails to parse
// returns the parser's error, counts as no job, and leaves no entry in
// either tier, so a second submission fails the same way.
func TestSourceKeyParseFailureRecordsNothing(t *testing.T) {
	lang := pascal.MustNew()
	bad := "program p;\nbegin\n  x := \nend.\n"
	pool := diskPool(t, t.TempDir())
	for round := 0; round < 2; round++ {
		parse := func() (*tree.Node, error) { return lang.Parse(bad) }
		_, err := pool.CompileSource(context.Background(), lang.SourceJob(bad), parse, parallel.Options{Fragments: 2})
		if _, want := lang.Parse(bad); err == nil || err.Error() != want.Error() {
			t.Fatalf("round %d: got %v, want the parser's error %v", round, err, want)
		}
	}
	pool.Close()
	st := pool.Stats()
	if st.CacheEntries != 0 || st.CacheHits != 0 || st.DiskWrites != 0 || st.Done != 0 || st.Failed != 0 {
		t.Errorf("a parse failure left state behind: %+v", st)
	}
}

// TestSourceKeyRequired: CompileSource refuses a job without a source
// key rather than parse it to key it by its tree.
func TestSourceKeyRequired(t *testing.T) {
	pool := parallel.NewPool(parallel.PoolOptions{Workers: 1})
	defer pool.Close()
	parse := func() (*tree.Node, error) { return nil, errors.New("not called") }
	if _, err := pool.CompileSource(context.Background(), cluster.Job{}, parse, parallel.Options{}); err == nil {
		t.Fatal("a keyless job was accepted")
	}
}

// TestSourceKeyKeylessTree: a hand-built job has no source key, so the
// pool keys it by its tree: a second tree parsed from the same program
// hits the first one's recording. A hit plans nothing, so it leaves the
// plan metrics as the cold run filed them.
func TestSourceKeyKeylessTree(t *testing.T) {
	l := exprlang.MustNew()
	a, err := ag.Analyze(l.G)
	if err != nil {
		t.Fatal(err)
	}
	src := exprlang.Generate(8, 6)
	job := func() cluster.Job {
		root, err := l.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return cluster.Job{G: l.G, A: a, Root: root, Lex: l.TerminalAttrs}
	}
	pool := parallel.NewPool(parallel.PoolOptions{Workers: 2})
	defer pool.Close()
	ctx := context.Background()
	opts := parallel.Options{Fragments: 4}
	cold, err := pool.Compile(ctx, job(), opts)
	if err != nil {
		t.Fatal(err)
	}
	before := pool.Metrics()
	warm, err := pool.Compile(ctx, job(), opts)
	if err != nil {
		t.Fatal(err)
	}
	sameRootBytes(t, l.G, "keyless hit", warm, cold)
	after := pool.Metrics()
	if after.CacheHits != 1 || after.CacheMisses != 1 {
		t.Errorf("want 1 hit and 1 miss: %+v", after.PoolStats)
	}
	if warm.Decomp != nil || warm.PlanStats != (parallel.PlanStats{}) {
		t.Errorf("a hit reported a plan: %+v", warm.PlanStats)
	}
	if after.LastBalance != before.LastBalance || after.PlanTime.Count != before.PlanTime.Count {
		t.Errorf("a hit filed plan metrics: balance %v -> %v, plans %d -> %d",
			before.LastBalance, after.LastBalance, before.PlanTime.Count, after.PlanTime.Count)
	}
	if after.Done != 2 || after.Wall.Count != 2 {
		t.Errorf("the hit was not filed as a done job: %d done, %d wall samples", after.Done, after.Wall.Count)
	}
}
