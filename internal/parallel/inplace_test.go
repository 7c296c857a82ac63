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
	"sync/atomic"
	"testing"
	"time"

	"pag/internal/ag"
	"pag/internal/cluster"
	"pag/internal/fleet"
	"pag/internal/parallel"
	"pag/internal/tree"
	"pag/internal/workload"
)

// treeState is what a compile, which only reads the caller's tree,
// must leave as it found it: the encoding, the content address, every
// node's cached size and every node's children.
type treeState struct {
	enc      []byte
	hash     tree.Digest
	sizes    []int
	children []*tree.Node // every Children slice's pointers, in preorder
}

func stateOf(root *tree.Node) treeState {
	s := treeState{enc: tree.Encode(root), hash: tree.Hash(root)}
	root.Walk(func(n *tree.Node) {
		s.sizes = append(s.sizes, n.Size())
		s.children = append(s.children, n.Children...)
	})
	return s
}

// checkUntouched fails unless root is in state want and no interior
// node or remote leaf holds attribute slots.
func checkUntouched(t *testing.T, what string, root *tree.Node, want treeState) {
	t.Helper()
	got := stateOf(root)
	if !bytes.Equal(got.enc, want.enc) || got.hash != want.hash || !slices.Equal(got.sizes, want.sizes) ||
		!slices.Equal(got.children, want.children) {
		t.Fatalf("%s: the job's tree changed", what)
	}
	root.Walk(func(n *tree.Node) {
		if !n.Sym.Terminal && n.Attrs != nil {
			t.Fatalf("%s: %s node holds attribute slots", what, n.Sym.Name)
		}
	})
}

// textCodec carries string attribute values across fragment edges.
type textCodec struct{}

func (textCodec) Encode(v ag.Value) ([]byte, error) { return []byte(v.(string)), nil }
func (textCodec) Decode(b []byte) (ag.Value, error) { return string(b), nil }

// listJob is a left-recursive list of 64 tokens under a split
// nonterminal, so the pool cuts it into several fragments; item is the
// rule over each token's text. The first token sits in the deepest
// fragment.
func listJob(t *testing.T, first string, item func(string) string) cluster.Job {
	t.Helper()
	b := ag.NewBuilder("list")
	tok := b.Terminal("tok", ag.Syn("text"))
	list := b.SplitNonterminal("L", 1, ag.Syn("val").WithCodec(textCodec{}))
	s := b.Nonterminal("S", ag.Syn("val"))
	top := b.Production(s, []*ag.Symbol{list}, ag.Copy("val", "1.val"))
	more := b.Production(list, []*ag.Symbol{list, tok},
		ag.Def("val", func(args []ag.Value) ag.Value { return args[0].(string) + item(args[1].(string)) }, "1.val", "2.text"))
	one := b.Production(list, []*ag.Symbol{tok},
		ag.Def("val", func(args []ag.Value) ag.Value { return item(args[0].(string)) }, "1.text"))
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

// boomListJob is a listJob whose rule over a "boom" token panics.
func boomListJob(t *testing.T, first string) cluster.Job {
	return listJob(t, first, func(v string) string {
		if v == "boom" {
			panic("kaboom: rule exploded")
		}
		return v
	})
}

// TestCompileRestoresTree checks the read-only contract of
// Pool.Compile: the pool evaluates the caller's tree where it lies,
// with no copy and no cut, and on every return path — success,
// cancellation, a panicking rule, a refused mode, a fleet job — the
// tree is untouched: it encodes, hashes and is sized as before, every
// node has the same children, and no interior node or remote leaf
// holds attribute slots. The same tree then compiles again, under
// other options and cache states, to the program a fresh parse gives.
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
		checkUntouched(t, "success", job.Root, before)
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
			checkUntouched(t, fmt.Sprintf("cancelled after %v", d), job.Root, before)
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
		checkUntouched(t, "panicking rule", bad.Root, badBefore)
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
				checkUntouched(t, round, job.Root, before)
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
		checkUntouched(t, "refused dynamic", job.Root, before)
		res, err := pool.Compile(ctx, job, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Program != fresh(t, opts) {
			t.Fatal("compile of the reused tree after a refused mode differs from a fresh parse")
		}
		checkUntouched(t, "dynamic", job.Root, before)
	})

	t.Run("fleet", func(t *testing.T) {
		// A coordinator without workers evaluates every fragment on its
		// in-process fallback, through the same wire endpoint a worker
		// runs.
		pool := parallel.NewPool(parallel.PoolOptions{Workers: 2, Remote: fleet.NewCoordinator(fleet.CoordinatorOptions{})})
		defer pool.Close()
		res, err := pool.Compile(ctx, job, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Program != fresh(t, opts) {
			t.Fatal("fleet compile of the reused tree differs from a fresh parse")
		}
		checkUntouched(t, "fleet", job.Root, before)
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
		checkUntouched(t, "incremental", job.Root, before)
	})
}

// TestSameTreeConcurrentCompiles compiles one Job from 8 goroutines on
// two pools at once (run it with -race). Every compile only reads the
// tree; every output must equal a fresh parse's and the tree must stay
// untouched.
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
	checkUntouched(t, "concurrent compiles", job.Root, before)
}

// TestSameTreeCompilesOverlap checks that compiles of one tree run at
// once rather than in turn: one compile is held mid-evaluation in a
// gate rule while a second compile of the same tree, on another pool,
// runs to the end. Both give the program of an ungated compile.
func TestSameTreeCompilesOverlap(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var gated atomic.Bool
	job := listJob(t, "gate", func(v string) string {
		if v == "gate" && gated.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
		return v
	})
	before := stateOf(job.Root)
	opts := parallel.Options{Fragments: 4, NoCache: true}
	want, err := parallel.Run(listJob(t, "gate", func(v string) string { return v }), opts)
	if err != nil {
		t.Fatal(err)
	}

	held := parallel.NewPool(parallel.PoolOptions{Workers: 2})
	defer held.Close()
	first := make(chan error, 1)
	var firstRes *parallel.Result
	go func() {
		var err error
		firstRes, err = held.Compile(context.Background(), job, opts)
		first <- err
	}()
	<-entered
	defer close(release) // a failing check below must not leave the first compile hanging

	other := parallel.NewPool(parallel.PoolOptions{Workers: 2})
	defer other.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := other.Compile(ctx, job, opts)
	if err != nil {
		t.Fatalf("compile beside a held compile of the same tree: %v", err)
	}
	select {
	case err := <-first:
		t.Fatalf("the gated compile finished (%v) before its gate opened", err)
	default:
	}
	if res.Program != want.Program || fmt.Sprint(res.RootAttrs) != fmt.Sprint(want.RootAttrs) {
		t.Fatalf("overlapping compile gave %v, want %v", res.RootAttrs, want.RootAttrs)
	}
	checkUntouched(t, "overlap", job.Root, before)

	release <- struct{}{} // the deferred close then finds nobody waiting
	if err := <-first; err != nil {
		t.Fatalf("gated compile: %v", err)
	}
	if fmt.Sprint(firstRes.RootAttrs) != fmt.Sprint(want.RootAttrs) {
		t.Fatalf("gated compile gave %v, want %v", firstRes.RootAttrs, want.RootAttrs)
	}
	checkUntouched(t, "after both compiles", job.Root, before)
}
