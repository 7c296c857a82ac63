package eval_test

import (
	"fmt"
	"testing"

	"pag/internal/ag"
	"pag/internal/eval"
	"pag/internal/exprlang"
	"pag/internal/tree"
)

var exprCases = []struct {
	src  string
	want int
}{
	{"let x = 2 in 1 + 3*x ni", 7},
	{"42", 42},
	{"2*3 + 4*5", 26},
	{"(2+3)*4", 20},
	{"let a = 5 in let b = a * a in b + a ni ni", 30},
	{"let x = 1 in x + x + x ni * 2", 5}, // precedence: x+x+(x ni *2)? no: ni closes; actually (let..ni)*? see note
	{"y + 3", 3},                         // undefined identifier evaluates to 0
	{exprlang.Generate(4, 6), (1 + 2 + 3 + 4) * (1 + 2 + 3 + 4 + 5 + 6)},
	{exprlang.GenerateNested(3, 4), 1 + (1+2+3+4)*(1+2+3)},
}

func init() {
	// Fix the precedence-sensitive case: "let x = 1 in x + x + x ni * 2"
	// parses as let x=1 in (x+x+x) ni, then * 2 applies to the block
	// value: (1+1+1)*2 = 6... but '*' binds tighter than '+', and the
	// block is a factor, so the parse is 3 * 2 = 6.
	exprCases[5].want = 6
}

func parseCase(t *testing.T, l *exprlang.Lang, src string) *tree.Node {
	t.Helper()
	root, err := l.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return root
}

func TestDynamicEvaluatesExpressions(t *testing.T) {
	l := exprlang.MustNew()
	for _, tc := range exprCases {
		root := parseCase(t, l, tc.src)
		d := eval.NewDynamic(l.G, root, eval.Hooks{})
		d.Run()
		if !d.Done() {
			t.Fatalf("%q: dynamic evaluator blocked: %v", tc.src, d.Blocked())
		}
		if got := root.Attrs[exprlang.AttrValue]; got != tc.want {
			t.Errorf("%q: dynamic value = %v, want %d", tc.src, got, tc.want)
		}
	}
}

func TestStaticEvaluatesExpressions(t *testing.T) {
	l := exprlang.MustNew()
	a, err := ag.Analyze(l.G)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	for _, tc := range exprCases {
		root := parseCase(t, l, tc.src)
		s := eval.NewStatic(a, eval.Hooks{})
		if err := s.EvaluateTree(root); err != nil {
			t.Fatalf("%q: %v", tc.src, err)
		}
		if got := root.Attrs[exprlang.AttrValue]; got != tc.want {
			t.Errorf("%q: static value = %v, want %d", tc.src, got, tc.want)
		}
	}
}

func TestStaticRejectsRemoteLeaves(t *testing.T) {
	l := exprlang.MustNew()
	a, err := ag.Analyze(l.G)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	root := parseCase(t, l, exprlang.Generate(4, 6))
	d := tree.Decompose(root, 10, 4)
	if d.NumFragments() < 2 {
		t.Fatal("decomposition produced no cuts")
	}
	s := eval.NewStatic(a, eval.Hooks{})
	if err := s.EvaluateTree(root); err == nil {
		t.Fatal("static evaluator accepted a fragment with remote leaves")
	}
}

func TestCombinedOnUnsplitTreeIsPureStatic(t *testing.T) {
	l := exprlang.MustNew()
	a, err := ag.Analyze(l.G)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	for _, tc := range exprCases {
		root := parseCase(t, l, tc.src)
		var got ag.Value
		c := eval.NewCombined(a, root, nil, eval.Hooks{OnRootSyn: func(attr int, v ag.Value) {
			if attr == exprlang.AttrValue {
				got = v
			}
		}})
		// The start symbol has no inherited attributes, so the whole
		// fragment evaluates in one Run.
		c.Run()
		if !c.Done() {
			t.Fatalf("%q: combined evaluator not done: %v", tc.src, c.Blocked())
		}
		if got != tc.want {
			t.Errorf("%q: combined value = %v, want %d", tc.src, got, tc.want)
		}
		if st := c.Stats(); st.DynamicEvals != 0 {
			t.Errorf("%q: unsplit combined run evaluated %d attrs dynamically, want 0", tc.src, st.DynamicEvals)
		}
	}
}

// pump runs a set of fragment evaluators to completion, relaying
// attribute values between fragments synchronously. It is the
// single-process stand-in for the network runtime in cluster.
type pump struct {
	evs   []eval.FragmentEvaluator
	queue []func()
	// beforeRun, if set, is called before every Run; yields counts
	// the Runs that stopped at a yield point.
	beforeRun func()
	yields    int
	// shipped[i] lists, in order, every value fragment i's evaluator
	// handed to its hooks; rootAttrs[i] holds the synthesized values of
	// fragment i's root.
	shipped   [][]string
	rootAttrs [][]ag.Value
}

// pumpFrag is one fragment as a pump sees it: its root, its leaves in
// preorder, the fragment each leaf stands for, and its parent fragment.
type pumpFrag struct {
	root   *tree.Node
	leaves []*tree.Node
	ids    []int
	parent int
}

// cutFrags are the fragments of d whose cuts Decompose applied: each
// fragment's leaves are its remote leaves.
func cutFrags(d *tree.Decomposition) []pumpFrag {
	out := make([]pumpFrag, len(d.Frags))
	for i, f := range d.Frags {
		out[i] = pumpFrag{root: f.Root, leaves: tree.RemoteLeaves(f.Root), parent: f.Parent}
		for _, leaf := range out[i].leaves {
			out[i].ids = append(out[i].ids, leaf.RemoteID)
		}
	}
	return out
}

// plannedFrags are the fragments of a planned decomposition: each
// fragment's leaves are the cut nodes below it, in the uncut tree.
func plannedFrags(d *tree.Decomposition) []pumpFrag {
	out := make([]pumpFrag, len(d.Frags))
	for i, f := range d.Frags {
		out[i] = pumpFrag{root: f.Root, leaves: d.Leaves(i), ids: d.Children(i), parent: f.Parent}
	}
	return out
}

func newPump(t *testing.T, g *ag.Grammar, a *ag.Analysis, d *tree.Decomposition, combined bool) *pump {
	t.Helper()
	return newPumpWith(t, g, a, d, combined, eval.Hooks{})
}

// newPumpWith is newPump over evaluators whose hooks start from base
// (the pump installs the routing callbacks itself).
func newPumpWith(t *testing.T, g *ag.Grammar, a *ag.Analysis, d *tree.Decomposition, combined bool, base eval.Hooks) *pump {
	t.Helper()
	return newPumpOver(g, a, cutFrags(d), combined, base)
}

// newPumpOver builds one evaluator per fragment of frags.
func newPumpOver(g *ag.Grammar, a *ag.Analysis, frags []pumpFrag, combined bool, base eval.Hooks) *pump {
	p := &pump{shipped: make([][]string, len(frags)), rootAttrs: make([][]ag.Value, len(frags))}
	leafIdx := make([]int, len(frags)) // fragment id -> its leaf's index in the parent
	for _, f := range frags {
		for k, id := range f.ids {
			leafIdx[id] = k
		}
	}
	for i, f := range frags {
		p.rootAttrs[i] = make([]ag.Value, len(f.root.Sym.Attrs))
		hooks := base
		hooks.OnRemoteInh = func(leaf, attr int, v ag.Value) {
			if base.OnRemoteInh != nil {
				base.OnRemoteInh(leaf, attr, v)
			}
			child := f.ids[leaf]
			sym := f.leaves[leaf].Sym
			p.shipped[i] = append(p.shipped[i], fmt.Sprintf("down %d.%s = %s", child, sym.Attrs[attr].Name, show(sym, attr, v)))
			p.queue = append(p.queue, func() {
				p.evs[child].Supply(eval.Root, attr, v)
				p.runAll(p.evs[child])
			})
		}
		hooks.OnRootSyn = func(attr int, v ag.Value) {
			p.shipped[i] = append(p.shipped[i], fmt.Sprintf("up %s = %s", f.root.Sym.Attrs[attr].Name, show(f.root.Sym, attr, v)))
			p.rootAttrs[i][attr] = v
			if f.parent < 0 {
				return // root fragment: final attribute
			}
			p.queue = append(p.queue, func() {
				p.evs[f.parent].Supply(leafIdx[i], attr, v)
				p.runAll(p.evs[f.parent])
			})
		}
		if combined {
			p.evs = append(p.evs, eval.NewCombined(a, f.root, f.leaves, hooks))
		} else {
			p.evs = append(p.evs, eval.NewDynamic(g, f.root, hooks))
		}
	}
	return p
}

// show renders attribute attr of sym's value v: its encoding where the
// attribute has a codec, so values that hold pointers compare by
// content, and its formatting otherwise.
func show(sym *ag.Symbol, attr int, v ag.Value) string {
	if c := sym.Attrs[attr].Codec; c != nil {
		if data, err := c.Encode(v); err == nil {
			return fmt.Sprintf("%q", data)
		}
	}
	return fmt.Sprint(v)
}

func (p *pump) run(t *testing.T) {
	t.Helper()
	for _, e := range p.evs {
		p.runAll(e)
	}
	for len(p.queue) > 0 {
		next := p.queue[0]
		p.queue = p.queue[1:]
		next()
	}
	for i, e := range p.evs {
		if !e.Done() {
			t.Fatalf("fragment %d blocked: %v", i, e.Blocked())
		}
	}
}

// runAll runs e until it blocks, resuming it after every yield.
func (p *pump) runAll(e eval.FragmentEvaluator) {
	for {
		if p.beforeRun != nil {
			p.beforeRun()
		}
		e.Run()
		if !e.Yielded() {
			return
		}
		p.yields++
	}
}

func TestDistributedEvaluationAgrees(t *testing.T) {
	l := exprlang.MustNew()
	a, err := ag.Analyze(l.G)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	srcs := []string{
		exprlang.Generate(3, 4),
		exprlang.Generate(6, 8),
		exprlang.Generate(10, 3),
		"let x = 2 in 1 + 3*x ni",
	}
	for _, src := range srcs {
		// Sequential reference value.
		ref := parseCase(t, l, src)
		eval.NewDynamic(l.G, ref, eval.Hooks{}).Run()
		want := ref.Attrs[exprlang.AttrValue]

		for _, mode := range []string{"dynamic", "combined"} {
			for _, frags := range []int{2, 3, 5} {
				root := parseCase(t, l, src)
				gran := tree.GranularityFor(root, frags)
				d := tree.Decompose(root, gran, frags)
				p := newPump(t, l.G, a, d, mode == "combined")
				p.run(t)
				got := p.rootAttrs[0][exprlang.AttrValue]
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s x%d on %q: value = %v, want %v (frags=%d)",
						mode, frags, truncate(src), got, want, d.NumFragments())
				}
			}
		}
	}
}

func TestCombinedDynamicFractionIsSmall(t *testing.T) {
	l := exprlang.MustNew()
	a, err := ag.Analyze(l.G)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	root := parseCase(t, l, exprlang.Generate(12, 10))
	d := tree.Decompose(root, tree.GranularityFor(root, 5), 5)
	if d.NumFragments() < 3 {
		t.Fatalf("expected several fragments, got %d", d.NumFragments())
	}
	p := newPump(t, l.G, a, d, true)
	p.run(t)
	var total eval.Stats
	for _, e := range p.evs {
		total.Add(e.Stats())
	}
	if total.StaticEvals == 0 {
		t.Fatal("no static evaluations recorded")
	}
	if f := total.DynamicFraction(); f >= 0.30 {
		t.Errorf("dynamic fraction = %.2f, want < 0.30 (paper: vast majority static)", f)
	}
}

func truncate(s string) string {
	if len(s) > 32 {
		return s[:32] + "..."
	}
	return s
}
