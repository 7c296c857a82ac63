package eval_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"pag/internal/ag"
	"pag/internal/eval"
	"pag/internal/tree"
)

// twoPhase builds a grammar whose nonterminal needs two visits:
//
//	root -> chain            chain.min = 0; chain.shift = chain.max + 1
//	                         root.out = chain.sum
//	chain -> LEAF(n)         max = max(min, n); sum = n + shift
//	chain -> chain LEAF(n)   min/max thread down/up; second phase: shift
//	                         threads down, sum accumulates up
//
// Phase 1 computes the maximum leaf value (up), phase 2 distributes a
// shift derived from it (down) and sums shifted values (up). The chain
// symbol is splittable, so distributed evaluation must gate static
// visits per phase and exchange four attribute values per boundary.
type twoPhaseLang struct {
	g     *ag.Grammar
	a     *ag.Analysis
	leaf  *ag.Symbol
	chain *ag.Symbol
	root  *ag.Symbol
	pOne  *ag.Production
	pCons *ag.Production
	pRoot *ag.Production
}

type tpIntCodec struct{}

func (tpIntCodec) Encode(v ag.Value) ([]byte, error) {
	return binary.AppendVarint(nil, int64(v.(int))), nil
}

func (tpIntCodec) Decode(d []byte) (ag.Value, error) {
	n, k := binary.Varint(d)
	if k <= 0 {
		return nil, fmt.Errorf("bad int")
	}
	return int(n), nil
}

func newTwoPhase(t *testing.T) *twoPhaseLang {
	t.Helper()
	b := ag.NewBuilder("twophase")
	l := &twoPhaseLang{}
	l.leaf = b.Terminal("LEAF", ag.Syn("n"))
	ic := tpIntCodec{}
	l.chain = b.SplitNonterminal("chain", 4,
		ag.Syn("max").WithCodec(ic), ag.Inh("min").WithCodec(ic),
		ag.Syn("sum").WithCodec(ic), ag.Inh("shift").WithCodec(ic))
	l.root = b.Nonterminal("root", ag.Syn("out").WithCodec(ic))
	b.Start(l.root)

	maxOf := func(a, b int) int {
		if a > b {
			return a
		}
		return b
	}
	l.pRoot = b.Production(l.root, []*ag.Symbol{l.chain},
		ag.Const("1.min", 0),
		ag.Def("1.shift", func(a []ag.Value) ag.Value { return a[0].(int) + 1 }, "1.max"),
		ag.Copy("out", "1.sum"),
	)
	l.pOne = b.Production(l.chain, []*ag.Symbol{l.leaf},
		ag.Def("max", func(a []ag.Value) ag.Value { return maxOf(a[0].(int), a[1].(int)) },
			"min", "1.n"),
		ag.Def("sum", func(a []ag.Value) ag.Value { return a[0].(int) + a[1].(int) },
			"shift", "1.n"),
	)
	l.pCons = b.Production(l.chain, []*ag.Symbol{l.chain, l.leaf},
		ag.Copy("1.min", "min"),
		ag.Def("max", func(a []ag.Value) ag.Value { return maxOf(a[0].(int), a[1].(int)) },
			"1.max", "2.n"),
		ag.Copy("1.shift", "shift"),
		ag.Def("sum", func(a []ag.Value) ag.Value { return a[0].(int) + a[1].(int) + a[2].(int) },
			"1.sum", "2.n", "shift"),
	)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	l.g = g
	l.a, err = ag.Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return l
}

// build constructs a chain over the given leaf values.
func (l *twoPhaseLang) build(vals []int) *tree.Node {
	leaf := func(n int) *tree.Node {
		return tree.NewTerminal(l.leaf, fmt.Sprint(n), n)
	}
	node := tree.New(l.pOne, leaf(vals[0]))
	for _, v := range vals[1:] {
		node = tree.New(l.pCons, node, leaf(v))
	}
	return tree.New(l.pRoot, node)
}

// expected computes the reference value: each leaf contributes
// n + (max+1), plus every interior chain node adds shift once more.
func (l *twoPhaseLang) expected(vals []int) int {
	max := 0
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	shift := max + 1
	sum := 0
	for _, v := range vals {
		sum += v
	}
	// pOne adds shift once; each pCons adds shift once.
	return sum + shift*len(vals)
}

func TestTwoPhaseAnalysis(t *testing.T) {
	l := newTwoPhase(t)
	if v := l.a.NumVisits(l.chain); v != 2 {
		t.Fatalf("chain visits = %d, want 2 (%+v)", v, l.a.Phases(l.chain))
	}
	ph := l.a.Phases(l.chain)
	if len(ph[0].Inh) != 1 || l.chain.Attrs[ph[0].Inh[0]].Name != "min" {
		t.Errorf("phase 1 inh = %+v, want [min]", ph[0].Inh)
	}
	if len(ph[1].Syn) != 1 || l.chain.Attrs[ph[1].Syn[0]].Name != "sum" {
		t.Errorf("phase 2 syn = %+v, want [sum]", ph[1].Syn)
	}
	if !l.a.DependsTransitively(l.chain, l.chain.AttrIndex("min"), l.chain.AttrIndex("max")) {
		t.Error("max should depend on min")
	}
}

func TestTwoPhaseSequentialAgreement(t *testing.T) {
	l := newTwoPhase(t)
	vals := []int{3, 1, 4, 1, 5, 9, 2, 6}
	want := l.expected(vals)

	rootD := l.build(vals)
	d := eval.NewDynamic(l.g, rootD, eval.Hooks{})
	d.Run()
	if !d.Done() {
		t.Fatalf("dynamic blocked: %v", d.Blocked())
	}
	if got := rootD.Attrs[0]; got != want {
		t.Errorf("dynamic out = %v, want %d", got, want)
	}

	rootS := l.build(vals)
	st := eval.NewStatic(l.a, eval.Hooks{})
	if err := st.EvaluateTree(rootS); err != nil {
		t.Fatal(err)
	}
	if got := rootS.Attrs[0]; got != want {
		t.Errorf("static out = %v, want %d", got, want)
	}
}

func TestTwoPhaseDistributed(t *testing.T) {
	// Distribute a long chain over several fragments: phase-1 values
	// must flow up through every boundary, the root turns them around,
	// and phase-2 values flow back down before the sums return. This
	// exercises the combined evaluator's per-phase gating of static
	// subtrees across machines.
	l := newTwoPhase(t)
	vals := make([]int, 40)
	for i := range vals {
		vals[i] = (i * 7) % 13
	}
	want := l.expected(vals)

	for _, mode := range []string{"dynamic", "combined"} {
		for _, frags := range []int{2, 3, 5} {
			root := l.build(vals)
			dec := tree.Decompose(root, tree.GranularityFor(root, frags), frags)
			if dec.NumFragments() < 2 {
				t.Fatalf("no cuts at frags=%d", frags)
			}
			p := newPump(t, l.g, l.a, dec, mode == "combined")
			p.run(t)
			if got := p.rootAttrs[0][0]; got != want {
				t.Errorf("%s x%d: out = %v, want %d", mode, frags, got, want)
			}
		}
	}
}

func TestTwoPhaseCombinedStatsAcrossBoundaries(t *testing.T) {
	l := newTwoPhase(t)
	vals := make([]int, 60)
	for i := range vals {
		vals[i] = i % 10
	}
	root := l.build(vals)
	dec := tree.Decompose(root, tree.GranularityFor(root, 4), 4)
	p := newPump(t, l.g, l.a, dec, true)
	p.run(t)
	var total eval.Stats
	for _, e := range p.evs {
		total.Add(e.Stats())
	}
	// Each boundary exchanges four attribute values (max/sum up,
	// min/shift down).
	wantSupplied := 4 * (dec.NumFragments() - 1)
	if total.Supplied != wantSupplied {
		t.Errorf("supplied = %d, want %d (4 per boundary)", total.Supplied, wantSupplied)
	}
	// A chain decomposition is the combined evaluator's worst case:
	// every chain node above the cut lies on the spine, so most
	// attributes go dynamic — unlike the Pascal tree, where procedure
	// bodies hang off the spine. The bottom fragment must still be
	// fully static, so some static evaluation always remains.
	if total.StaticEvals == 0 {
		t.Error("no static evaluations; the bottom fragment should be fully static")
	}
	if f := total.DynamicFraction(); f >= 1.0 {
		t.Errorf("dynamic fraction = %.2f; combined must keep some work static", f)
	}
}
