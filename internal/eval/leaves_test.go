package eval_test

import (
	"fmt"
	"slices"
	"testing"

	"pag/internal/ag"
	"pag/internal/eval"
	"pag/internal/exprlang"
	"pag/internal/pascal"
	"pag/internal/tree"
	"pag/internal/workload"
)

// TestCutNodesActAsRemoteLeaves checks that an evaluator recognises its
// leaves by the list it is given: combined evaluators over the planned
// fragments of one uncut tree, each told to stop at the cut nodes
// below it, ship the same values in the same order, end with the same
// root values and report the same Stats as combined evaluators over
// the decoded fragments, whose leaves are real remote leaves. It runs
// on the Tiny, Small and Course Pascal programs and on expression
// programs at each width of 2-4 that cuts them, and leaves the uncut tree as it was.
func TestCutNodesActAsRemoteLeaves(t *testing.T) {
	type lang struct {
		name string
		a    *ag.Analysis
		lex  tree.TerminalAttrs
		srcs []string
	}
	p, e := pascal.MustNew(), exprlang.MustNew()
	ea, err := ag.Analyze(e.G)
	if err != nil {
		t.Fatal(err)
	}
	parse := map[string]func(string) (*tree.Node, error){"pascal": p.Parse, "expr": e.Parse}
	for _, l := range []lang{
		{"pascal", p.A, p.TerminalAttrs, []string{
			workload.Generate(workload.Tiny()), workload.Generate(workload.Small()), workload.Generate(workload.CourseCompiler()),
		}},
		{"expr", ea, e.TerminalAttrs, []string{exprlang.Generate(6, 8), exprlang.Generate(12, 9)}},
	} {
		cut := 0
		for si, src := range l.srcs {
			root, err := parse[l.name](src)
			if err != nil {
				t.Fatal(err)
			}
			before := tree.Encode(root)
			for width := 2; width <= 4; width++ {
				name := fmt.Sprintf("%s program %d at width %d", l.name, si, width)
				d, enc := tree.SplitEncode(root, tree.GranularityFor(root, width), width)
				if d.NumFragments() < 2 {
					continue
				}
				cut++
				decoded := make([]pumpFrag, len(enc))
				for i, data := range enc {
					r, err := tree.Decode(l.a.G, data, l.lex)
					if err != nil {
						t.Fatal(err)
					}
					decoded[i] = pumpFrag{root: r, leaves: tree.RemoteLeaves(r), parent: d.Frags[i].Parent}
					for _, leaf := range decoded[i].leaves {
						decoded[i].ids = append(decoded[i].ids, leaf.RemoteID)
					}
				}
				want := newPumpOver(l.a.G, l.a, decoded, true, eval.Hooks{})
				want.run(t)
				got := newPumpOver(l.a.G, l.a, plannedFrags(d), true, eval.Hooks{})
				got.run(t)
				for i := range enc {
					if !slices.Equal(got.shipped[i], want.shipped[i]) {
						t.Errorf("%s: fragment %d shipped\n%.300v\nover its cut nodes, want\n%.300v", name, i, got.shipped[i], want.shipped[i])
					}
					sym := d.Frags[i].Root.Sym
					for ai := range sym.Attrs {
						if g, w := show(sym, ai, got.rootAttrs[i][ai]), show(sym, ai, want.rootAttrs[i][ai]); g != w {
							t.Errorf("%s: fragment %d root %s = %.100s over its cut nodes, want %.100s", name, i, sym.Attrs[ai].Name, g, w)
						}
					}
					if g, w := got.evs[i].Stats(), want.evs[i].Stats(); g != w {
						t.Errorf("%s: fragment %d stats %+v over its cut nodes, want %+v", name, i, g, w)
					}
				}
			}
			if !slices.Equal(tree.Encode(root), before) {
				t.Fatalf("%s program %d: evaluating over the cut nodes changed the tree", l.name, si)
			}
			root.Walk(func(n *tree.Node) {
				if !n.Sym.Terminal && n.Attrs != nil {
					t.Fatalf("%s program %d: a %s node holds attribute slots", l.name, si, n.Sym.Name)
				}
			})
		}
		if cut == 0 {
			t.Errorf("no %s program was cut; the test exercises nothing", l.name)
		}
	}
}
