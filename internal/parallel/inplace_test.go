// The reuse cases set the deprecated Mode and Librarian knobs on
// purpose: the pool refuses the one and ignores the other.
//
//lint:file-ignore SA1019 the deprecated knobs are set on purpose
package parallel_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pag/internal/ag"
	"pag/internal/cluster"
	"pag/internal/parallel"
	"pag/internal/tree"
	"pag/internal/workload"
)

// treeState is what a pool compile, which cuts and evaluates the
// caller's tree in place, must hand back unchanged: the encoding, the
// content address and every node's cached size.
type treeState struct {
	enc   []byte
	hash  tree.Digest
	sizes []int
}

func stateOf(root *tree.Node) treeState {
	s := treeState{enc: tree.Encode(root), hash: tree.Hash(root)}
	root.Walk(func(n *tree.Node) { s.sizes = append(s.sizes, n.Size()) })
	return s
}

func checkRestored(t *testing.T, what string, root *tree.Node, want treeState) {
	t.Helper()
	got := stateOf(root)
	if !bytes.Equal(got.enc, want.enc) || got.hash != want.hash || !slices.Equal(got.sizes, want.sizes) {
		t.Fatalf("%s: the job's tree was not restored", what)
	}
}

// textCodec carries string attribute values across fragment edges.
type textCodec struct{}

func (textCodec) Encode(v ag.Value) ([]byte, error) { return []byte(v.(string)), nil }
func (textCodec) Decode(b []byte) (ag.Value, error) { return string(b), nil }

// boomListJob is a left-recursive list of tokens under a split
// nonterminal, so the pool cuts it into several fragments; the rule
// over a "boom" token panics. The first token sits in the deepest
// fragment.
func boomListJob(t *testing.T, first string) cluster.Job {
	t.Helper()
	b := ag.NewBuilder("boomlist")
	tok := b.Terminal("tok", ag.Syn("text"))
	list := b.SplitNonterminal("L", 1, ag.Syn("val").WithCodec(textCodec{}))
	s := b.Nonterminal("S", ag.Syn("val"))
	item := func(v ag.Value) string {
		if v == "boom" {
			panic("kaboom: rule exploded")
		}
		return v.(string)
	}
	top := b.Production(s, []*ag.Symbol{list}, ag.Copy("val", "1.val"))
	more := b.Production(list, []*ag.Symbol{list, tok},
		ag.Def("val", func(args []ag.Value) ag.Value { return args[0].(string) + item(args[1]) }, "1.val", "2.text"))
	one := b.Production(list, []*ag.Symbol{tok},
		ag.Def("val", func(args []ag.Value) ag.Value { return item(args[0]) }, "1.text"))
	b.Start(s)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := ag.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	l := tree.New(one, tree.NewTerminal(tok, first, first))
	for i := 1; i < 64; i++ {
		w := fmt.Sprintf("w%02d", i)
		l = tree.New(more, l, tree.NewTerminal(tok, w, w))
	}
	return cluster.Job{G: g, A: a, Root: tree.New(top, l)}
}

// TestCompileRestoresTree checks the in-place contract of Pool.Compile:
// the pool cuts the caller's tree and evaluates it where it lies, with
// no copy, and on every return path — success, cancellation, a
// panicking rule, a refused mode — it hands the tree back encoding,
// hashing and sized exactly as before. The same tree then compiles
// again, under other options and cache states, to the program a fresh
// parse gives.
func TestCompileRestoresTree(t *testing.T) {
	base := workload.Generate(workload.Tiny())
	edited := editSameLen(t, base, "(gtotal - gtotal)", "(gtotal - gcount)")
	job := pascalSrcJob(t, base)
	before := stateOf(job.Root)
	ctx := context.Background()
	opts := parallel.Options{Fragments: 4}

	t.Run("success", func(t *testing.T) {
		pool := parallel.NewPool(parallel.PoolOptions{Workers: 2})
		defer pool.Close()
		res, err := pool.Compile(ctx, job, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkRestored(t, "success", job.Root, before)
		if res.Decomp.NumFragments() < 2 {
			t.Fatalf("compile made %d fragments; the test needs cuts", res.Decomp.NumFragments())
		}
		// Every fragment root is a node of the caller's tree: no copy.
		nodes := map[*tree.Node]bool{}
		job.Root.Walk(func(n *tree.Node) { nodes[n] = true })
		for _, f := range res.Decomp.Frags {
			if !nodes[f.Root] {
				t.Fatalf("fragment %d's root is not a node of the job's tree", f.ID)
			}
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		pool := parallel.NewPool(parallel.PoolOptions{Workers: 2})
		defer pool.Close()
		cancelled := 0
		for _, d := range []time.Duration{0, 50 * time.Microsecond, 200 * time.Microsecond, time.Millisecond} {
			cctx, cancel := context.WithCancel(ctx)
			timer := time.AfterFunc(d, cancel)
			_, err := pool.Compile(cctx, job, parallel.Options{Fragments: 8, NoCache: true})
			timer.Stop()
			cancel()
			switch {
			case errors.Is(err, context.Canceled):
				cancelled++
			case err != nil:
				t.Fatalf("delay %v: %v", d, err)
			}
			checkRestored(t, fmt.Sprintf("cancelled after %v", d), job.Root, before)
		}
		t.Logf("%d of 4 compiles cancelled", cancelled)
	})

	t.Run("panicking rule", func(t *testing.T) {
		pool := parallel.NewPool(parallel.PoolOptions{Workers: 2})
		defer pool.Close()
		bad := boomListJob(t, "boom")
		badBefore := stateOf(bad.Root)
		_, err := pool.Compile(ctx, bad, parallel.Options{Fragments: 4})
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("panicking job returned %v, want an evaluation-panic report", err)
		}
		checkRestored(t, "panicking rule", bad.Root, badBefore)
		good := boomListJob(t, "w00")
		res, err := pool.Compile(ctx, good, parallel.Options{Fragments: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.Decomp.NumFragments() < 2 {
			t.Fatalf("list job made %d fragments; the test needs cuts", res.Decomp.NumFragments())
		}
	})

	// Reuse: the tree every case above compiled, compiled again, must
	// give what a fresh parse gives under the same options.
	fresh := func(t *testing.T, o parallel.Options) string {
		t.Helper()
		o.NoCache = true
		res, err := parallel.Run(pascalSrcJob(t, base), o)
		if err != nil {
			t.Fatal(err)
		}
		return res.Program
	}
	reuse := []struct {
		name string
		opts parallel.Options
	}{
		{"width 1", parallel.Options{Fragments: 1}},
		{"width 2", parallel.Options{Fragments: 2}},
		{"width 3", parallel.Options{Fragments: 3}},
		{"width 8", parallel.Options{Fragments: 8}},
		// The deprecated Librarian knob is ignored.
		{"no librarian", parallel.Options{Fragments: 4, Librarian: false}},
	}
	for _, c := range reuse {
		t.Run("reuse "+c.name, func(t *testing.T) {
			pool := parallel.NewPool(parallel.PoolOptions{Workers: 2})
			defer pool.Close()
			want := fresh(t, parallel.Options{Fragments: c.opts.Fragments})
			// Cold (recording), then warm (whole-tree hit).
			for _, round := range []string{"cold", "warm"} {
				res, err := pool.Compile(ctx, job, c.opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Program != want {
					t.Fatalf("%s compile of the reused tree differs from a fresh parse", round)
				}
				checkRestored(t, round, job.Root, before)
			}
		})
	}

	t.Run("reuse dynamic", func(t *testing.T) {
		pool := parallel.NewPool(parallel.PoolOptions{Workers: 2})
		defer pool.Close()
		// The pool refuses dynamic mode before it touches the tree; the
		// tree then compiles as usual.
		if _, err := pool.Compile(ctx, job, parallel.Options{Fragments: 4, Mode: cluster.Dynamic}); err == nil {
			t.Fatal("dynamic-mode compile was not refused")
		}
		checkRestored(t, "refused dynamic", job.Root, before)
		res, err := pool.Compile(ctx, job, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Program != fresh(t, opts) {
			t.Fatal("compile of the reused tree after a refused mode differs from a fresh parse")
		}
		checkRestored(t, "dynamic", job.Root, before)
	})

	t.Run("reuse incremental", func(t *testing.T) {
		pool := parallel.NewPool(parallel.PoolOptions{Workers: 2})
		defer pool.Close()
		// Record an edit of the program, then compile the reused base
		// tree next to it: a whole-job miss, evaluated live.
		if _, err := pool.Compile(ctx, pascalSrcJob(t, edited), opts); err != nil {
			t.Fatal(err)
		}
		res, err := pool.Compile(ctx, job, opts)
		if err != nil {
			t.Fatal(err)
		}
		if st := pool.Stats(); st.CacheHits != 0 {
			t.Fatalf("compile of the reused tree hit the edit's recording: %+v", st)
		}
		if res.Program != fresh(t, opts) {
			t.Fatal("compile of the reused tree after an edit differs from a fresh parse")
		}
		checkRestored(t, "incremental", job.Root, before)
	})
}

// TestSameTreeConcurrentCompiles compiles one Job from 8 goroutines on
// two pools at once (run it with -race). Each compile evaluates the
// tree in place, so compiles of one tree take turns across pools;
// every output must equal a fresh parse's and the tree must come back
// unchanged.
func TestSameTreeConcurrentCompiles(t *testing.T) {
	src := workload.Generate(workload.Tiny())
	job := pascalSrcJob(t, src)
	before := stateOf(job.Root)
	opts := parallel.Options{Fragments: 4}
	ref, err := parallel.Run(pascalSrcJob(t, src), opts)
	if err != nil {
		t.Fatal(err)
	}
	pools := []*parallel.Pool{
		parallel.NewPool(parallel.PoolOptions{Workers: 2}),
		parallel.NewPool(parallel.PoolOptions{Workers: 2, CacheBytes: -1}),
	}
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	const n = 8
	got := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := opts
			o.NoCache = i%4 == 0
			res, err := pools[i%2].Compile(context.Background(), job, o)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = res.Program
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("compile %d: %v", i, errs[i])
		}
		if got[i] != ref.Program {
			t.Errorf("compile %d: program differs from a fresh parse's", i)
		}
	}
	checkRestored(t, "concurrent compiles", job.Root, before)
}
