package eval_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"pag/internal/ag"
	"pag/internal/eval"
	"pag/internal/exprlang"
	"pag/internal/pascal"
	"pag/internal/rope"
	"pag/internal/tree"
	"pag/internal/workload"
)

// rootValues renders the root's attribute values, code ropes as the
// text they spell, so two evaluations compare by value.
func rootValues(root *tree.Node) string {
	var out []string
	for i := range root.Sym.Attrs {
		v := root.Attrs[i]
		if c, ok := v.(rope.Code); ok {
			v = rope.FlattenCode(c, nil)
		}
		out = append(out, fmt.Sprint(v))
	}
	return strings.Join(out, "\n")
}

// staticMatchesDynamic evaluates one tree built by parse with the
// static evaluator, whose single-visit productions keep their
// children's instances in frames, and another with the dynamic
// evaluator, which keeps every instance in node slots, and fails t if
// their root values differ. It returns the static evaluation's root.
func staticMatchesDynamic(t *testing.T, a *ag.Analysis, parse func() *tree.Node) *tree.Node {
	t.Helper()
	rs := parse()
	if err := eval.NewStatic(a, eval.Hooks{}).EvaluateTree(rs); err != nil {
		t.Fatal(err)
	}
	rd := parse()
	d := eval.NewDynamic(a.G, rd, eval.Hooks{})
	if d.Run(); !d.Done() {
		t.Fatalf("dynamic evaluator blocked: %v", d.Blocked())
	}
	if s, d := rootValues(rs), rootValues(rd); s != d {
		t.Errorf("static root values differ from dynamic:\nstatic  %.300s\ndynamic %.300s", s, d)
	}
	return rs
}

func pascalParser(t *testing.T, l *pascal.Lang, src string) func() *tree.Node {
	return func() *tree.Node {
		root, err := l.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return root
	}
}

func exprParser(t *testing.T, l *exprlang.Lang, src string) func() *tree.Node {
	return func() *tree.Node { return parseCase(t, l, src) }
}

// TestStaticFramesMatchDynamic checks frame storage against node
// slots on Pascal programs, whose block, procedure part and procedure
// declaration take two visits (their children keep node slots), on
// exprlang programs and on the two-visit grammar of multivisit_test.go.
func TestStaticFramesMatchDynamic(t *testing.T) {
	pl := pascal.MustNew()
	for _, cfg := range []workload.Config{workload.Tiny(), workload.Small(), workload.CourseCompiler()} {
		for _, seed := range []int64{cfg.Seed, 1, 2} {
			cfg.Seed = seed
			t.Run(fmt.Sprintf("pascal/procs=%d/seed=%d", cfg.Procs, seed), func(t *testing.T) {
				staticMatchesDynamic(t, pl.A, pascalParser(t, pl, workload.Generate(cfg)))
			})
		}
	}

	el := exprlang.MustNew()
	ea, err := ag.Analyze(el.G)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		exprlang.Generate(1, 1), exprlang.Generate(4, 6), exprlang.Generate(9, 3),
		exprlang.GenerateNested(5, 4), "let x = 2 in 1 + 3*x ni", "y + 3",
	} {
		t.Run("exprlang/"+truncate(src), func(t *testing.T) {
			staticMatchesDynamic(t, ea, exprParser(t, el, src))
		})
	}

	tp := newTwoPhase(t)
	for _, vals := range [][]int{{4}, {3, 9, 1}, {5, 2, 8, 8, 0, 7}} {
		t.Run(fmt.Sprintf("twophase/%v", vals), func(t *testing.T) {
			staticMatchesDynamic(t, tp.a, func() *tree.Node { return tp.build(vals) })
		})
	}
}

// TestStaticFramesDeep evaluates trees 50,000 frames deep: a sum of
// 50,000 terms and a let-block whose body is one. The frame stack grows
// over many chunks while every frame below the top is live, and ends
// too large for the free list to keep. (Each slot of these frames is
// written again before it is read, so TestStaticFramesDeepInherited is
// the one that sees a clobbered frame.)
func TestStaticFramesDeep(t *testing.T) {
	l := exprlang.MustNew()
	a, err := ag.Analyze(l.G)
	if err != nil {
		t.Fatal(err)
	}
	const terms = 50_000
	sum := "1" + strings.Repeat("+1", terms-1)
	block := "let v = 3 in v" + strings.Repeat("+v", terms-1) + " ni"
	for name, tc := range map[string]struct {
		src  string
		want int
	}{"sum": {sum, terms}, "block": {block, 3 * terms}} {
		t.Run(name, func(t *testing.T) {
			root := staticMatchesDynamic(t, a, exprParser(t, l, tc.src))
			if got := root.Attrs[exprlang.AttrValue]; got != tc.want {
				t.Errorf("static value = %v, want %d", got, tc.want)
			}
		})
	}
}

// TestStaticFramesDeepInherited evaluates a 50,000-deep chain whose
// inherited depth differs at every level and is read again after the
// deep visit returns (sum = 1.sum + depth), so a frame overwritten
// while the visits below it ran would change the result.
func TestStaticFramesDeepInherited(t *testing.T) {
	b := ag.NewBuilder("depthchain")
	item := b.Terminal("ITEM")
	list := b.Nonterminal("list", ag.Inh("depth"), ag.Syn("sum"))
	root := b.Nonterminal("root", ag.Syn("out"))
	b.Start(root)
	pRoot := b.Production(root, []*ag.Symbol{list},
		ag.Const("1.depth", 1),
		ag.Copy("out", "1.sum"),
	)
	pOne := b.Production(list, []*ag.Symbol{item},
		ag.Copy("sum", "depth"),
	)
	pCons := b.Production(list, []*ag.Symbol{list, item},
		ag.Def("1.depth", func(a []ag.Value) ag.Value { return a[0].(int) + 1 }, "depth"),
		ag.Def("sum", func(a []ag.Value) ag.Value { return a[0].(int) + a[1].(int) }, "1.sum", "depth"),
	)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := ag.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	const depth = 50_000
	build := func() *tree.Node {
		n := tree.New(pOne, tree.NewTerminal(item, "i"))
		for i := 1; i < depth; i++ {
			n = tree.New(pCons, n, tree.NewTerminal(item, "i"))
		}
		return tree.New(pRoot, n)
	}
	r := staticMatchesDynamic(t, a, build)
	if got, want := r.Attrs[0], depth*(depth+1)/2; got != want {
		t.Errorf("static out = %v, want %d", got, want)
	}
}

// TestStaticFramesConcurrent runs static evaluations on several
// goroutines at once. They share the free list of frame stacks, so a
// stack lent to two visits at a time would mix their values.
func TestStaticFramesConcurrent(t *testing.T) {
	l := pascal.MustNew()
	srcs := []string{workload.Generate(workload.Tiny()), workload.Generate(workload.Small())}
	want := make([]string, len(srcs))
	for i, src := range srcs {
		want[i] = rootValues(staticMatchesDynamic(t, l.A, pascalParser(t, l, src)))
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 10 {
				k := (g + i) % len(srcs)
				root, err := l.Parse(srcs[k])
				if err != nil {
					t.Error(err)
					return
				}
				if err := eval.NewStatic(l.A, eval.Hooks{}).EvaluateTree(root); err != nil {
					t.Error(err)
					return
				}
				if got := rootValues(root); got != want[k] {
					t.Errorf("goroutine %d, run %d: root values differ from a lone evaluation", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzStaticFrames: for any seed, the program generated from it gets
// the same root values from the static evaluator, with its frames, as
// from the dynamic evaluator, with node slots everywhere.
func FuzzStaticFrames(f *testing.F) {
	for _, seed := range []int64{0, 7, 42, 1987} {
		f.Add(seed)
	}
	pl := pascal.MustNew()
	el := exprlang.MustNew()
	ea, err := ag.Analyze(el.G)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		u := uint64(seed)
		pick := func(n uint64) int {
			v := int(u % n)
			u /= n
			return v
		}
		if pick(2) == 0 {
			blocks, exprs := pick(6)+1, pick(8)+1
			src := exprlang.Generate(blocks, exprs)
			if pick(2) == 0 {
				src = exprlang.GenerateNested(blocks, exprs)
			}
			staticMatchesDynamic(t, ea, exprParser(t, el, src))
			return
		}
		cfg := workload.Config{
			Procs: pick(5), NestedEvery: pick(4), StmtsPerProc: pick(12) + 1,
			MainStmts: pick(12) + 1, BigProcIndex: -1, Seed: seed,
		}
		staticMatchesDynamic(t, pl.A, pascalParser(t, pl, workload.Generate(cfg)))
	})
}
