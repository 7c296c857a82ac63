package eval_test

import (
	"testing"

	"pag/internal/eval"
	"pag/internal/exprlang"
	"pag/internal/symtab"
	"pag/internal/tree"
)

// TestTwoEvaluatorsOverSameFragment checks that evaluators over one
// subtree are independent: each keeps its instances in its own rows, so
// a second evaluator built over the subtree — which publishes its own
// rows on the nodes — leaves the first one's instances alone, and the
// first completes once its inherited attribute arrives.
func TestTwoEvaluatorsOverSameFragment(t *testing.T) {
	l := exprlang.MustNew()
	root, err := l.Parse(exprlang.Generate(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	var block *tree.Node
	root.Walk(func(n *tree.Node) {
		if block == nil && n.Sym.Name == "block" {
			block = n
		}
	})
	if block == nil {
		t.Fatal("generated source has no block subtree")
	}
	stabAttr := block.Sym.AttrIndex("stab")

	d1 := eval.NewDynamic(l.G, block, eval.Hooks{})
	d1.Run()
	if d1.Done() {
		t.Fatal("fragment completed before its inherited attribute arrived")
	}
	// The rival evaluator publishes its rows on every node.
	d2 := eval.NewDynamic(l.G, block, eval.Hooks{})
	_ = d2

	d1.Supply(eval.Root, stabAttr, symtab.New())
	d1.Run()
	if !d1.Done() {
		t.Fatalf("first evaluator lost its instances to the second; blocked: %v", d1.Blocked())
	}
}
