package eval_test

import (
	"fmt"
	"testing"
	"time"

	"pag/internal/ag"
	"pag/internal/eval"
	"pag/internal/exprlang"
	"pag/internal/tree"
)

// TestYieldAfterPriority checks the yield contract on both fragment
// evaluators: with Hooks.YieldAfterPriority, Run returns right after
// the instance whose evaluation shipped a priority remote-inherited
// value — no further instance is charged in that Run — and driving the
// evaluators to completion gives the same attribute values and Stats
// as a run that never yields.
func TestYieldAfterPriority(t *testing.T) {
	l := exprlang.MustNew()
	a, err := ag.Analyze(l.G)
	if err != nil {
		t.Fatal(err)
	}
	yields := 0
	for _, src := range []string{exprlang.Generate(6, 8), exprlang.GenerateNested(4, 5), "let x = 2 in 1 + 3*x ni"} {
		for _, combined := range []bool{false, true} {
			for _, frags := range []int{2, 3, 5} {
				name := fmt.Sprintf("combined=%v/x%d/%s", combined, frags, truncate(src))
				decompose := func() *tree.Decomposition {
					root := parseCase(t, l, src)
					return tree.Decompose(root, tree.GranularityFor(root, frags), frags)
				}

				ref := decompose()
				refPump := newPump(t, l.G, a, ref, combined)
				refPump.run(t)
				if refPump.yields != 0 {
					t.Fatalf("%s: evaluators without the flag yielded", name)
				}

				// shipped is raised by a priority shipment and cleared
				// before every Run; a charge in between is an instance
				// evaluated after the yield point.
				shipped := false
				got := decompose()
				p := newPumpWith(t, l.G, a, got, combined, eval.Hooks{
					YieldAfterPriority: true,
					Charge: func(time.Duration) {
						if shipped {
							t.Fatalf("%s: evaluation continued after a priority value was shipped", name)
						}
					},
					OnRemoteInh: func(leaf *tree.Node, attr int, _ ag.Value) {
						if leaf.Sym.Attrs[attr].Priority {
							shipped = true
						}
					},
				})
				p.beforeRun = func() { shipped = false }
				p.run(t)
				yields += p.yields

				for i := range ref.Frags {
					if w, g := dumpAttrs(ref.Frags[i].Root), dumpAttrs(got.Frags[i].Root); w != g {
						t.Errorf("%s: fragment %d attributes differ from the non-yielding run:\n got %s\nwant %s", name, i, g, w)
					}
					if w, g := refPump.evs[i].Stats(), p.evs[i].Stats(); w != g {
						t.Errorf("%s: fragment %d stats %+v, want %+v", name, i, g, w)
					}
				}
			}
		}
	}
	if yields == 0 {
		t.Error("no evaluator ever yielded; the test exercises nothing")
	}
}

// TestNoYieldUnderNoPriority checks that the priority ablation also
// switches yielding off: with NoPriority no value jumps the queue, so
// none is worth stopping for.
func TestNoYieldUnderNoPriority(t *testing.T) {
	l := exprlang.MustNew()
	a, err := ag.Analyze(l.G)
	if err != nil {
		t.Fatal(err)
	}
	for _, combined := range []bool{false, true} {
		root := parseCase(t, l, exprlang.Generate(6, 8))
		d := tree.Decompose(root, tree.GranularityFor(root, 3), 3)
		p := newPumpWith(t, l.G, a, d, combined, eval.Hooks{YieldAfterPriority: true, NoPriority: true})
		p.run(t)
		if p.yields != 0 {
			t.Errorf("combined=%v: %d yields under NoPriority", combined, p.yields)
		}
	}
}

// dumpAttrs renders every attribute value of a fragment in preorder.
func dumpAttrs(root *tree.Node) string {
	var out []string
	root.Walk(func(n *tree.Node) {
		out = append(out, fmt.Sprint(n.Attrs))
	})
	return fmt.Sprint(out)
}
