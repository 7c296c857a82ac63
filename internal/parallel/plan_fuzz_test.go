package parallel

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"pag/internal/ag"
	"pag/internal/exprlang"
	"pag/internal/tree"
)

// FuzzPlan fuzzes the planning layer's invariants on arbitrary
// appendix-grammar programs: the grammar cut plan (which replay
// aglint reads) is a pure, deterministic function of
// (grammar, analysis); and at any width the non-mutating SplitEncode
// and the pool's plan (Plan) agree with the fragments Decompose cuts
// out of a clone: each planned fragment's leaves are the cut nodes its
// remote leaves stand for, in the same order, and planning leaves the
// tree as it was.
func FuzzPlan(f *testing.F) {
	f.Add("1+2*(3+4)+5*6", uint8(3))
	f.Add("let x = 2 in 1 + 3*x ni", uint8(2))
	f.Add(exprlang.Generate(6, 5), uint8(4))
	f.Add(exprlang.Generate(12, 9), uint8(6))
	l := exprlang.MustNew()
	a, err := ag.Analyze(l.G)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string, width uint8) {
		root, err := l.Parse(src)
		if err != nil {
			t.Skip() // not a program; nothing to plan
		}

		// Plan purity: two independent constructions agree symbol by
		// symbol, with and without the analysis; without one, every cut
		// exchanges a single wave.
		p1, p2 := ag.NewCutPlan(l.G, a), ag.NewCutPlan(l.G, a)
		d1, d2 := ag.NewCutPlan(l.G, nil), ag.NewCutPlan(l.G, nil)
		for _, s := range l.G.Symbols {
			for _, pp := range [][2]*ag.CutPlan{{p1, p2}, {d1, d2}} {
				x, y := pp[0], pp[1]
				// The cost is the message count plus the class count, so
				// equal costs and messages mean equal classes too.
				if x.CutCost(s) != y.CutCost(s) || x.CutMessages(s) != y.CutMessages(s) {
					t.Fatalf("cut plan not deterministic for %s", s.Name)
				}
			}
			if n := len(d1.Waves(s)); n != 1 {
				t.Fatalf("plan without analysis gives %s %d waves, want 1", s.Name, n)
			}
		}

		// The fleet's non-mutating split agrees with the cut fragments
		// byte for byte, and with their sizes.
		w := 2 + int(width)%7
		gran := tree.GranularityFor(root, w)
		d := tree.Decompose(root.Clone(), gran, w)
		if b := d.Balance(); b < 1 || b != b {
			t.Fatalf("balance %v out of domain", b)
		}
		dp, enc := tree.SplitEncode(root, gran, w)
		if dp.NumFragments() != d.NumFragments() || dp.Balance() != d.Balance() {
			t.Fatalf("SplitEncode plans %d fragments (balance %v), Decompose %d (%v)",
				dp.NumFragments(), dp.Balance(), d.NumFragments(), d.Balance())
		}
		if !slices.Equal(dp.Sizes(), d.Sizes()) {
			t.Fatalf("SplitEncode sizes %v, Decompose %v", dp.Sizes(), d.Sizes())
		}
		for i, f := range d.Frags {
			if dp.Frags[i].Parent != f.Parent || !bytes.Equal(enc[i], tree.Encode(f.Root)) {
				t.Fatalf("SplitEncode fragment %d differs from the cut fragment", i)
			}
		}

		// The pool's plan makes the same fragments and hands each the
		// cut nodes its remote leaves replace, in tree order, without
		// touching the tree.
		whole, wholeHash := tree.Encode(root), tree.Hash(root)
		pl := tree.Plan(root, gran, w)
		if pl.NumFragments() != d.NumFragments() || pl.Balance() != d.Balance() || !slices.Equal(pl.Sizes(), d.Sizes()) {
			t.Fatalf("Plan plans %d fragments (balance %v, sizes %v), Decompose %d (%v, %v)",
				pl.NumFragments(), pl.Balance(), pl.Sizes(), d.NumFragments(), d.Balance(), d.Sizes())
		}
		for i, f := range d.Frags {
			if pl.Frags[i].Parent != f.Parent {
				t.Fatalf("Plan fragment %d has parent %d, want %d", i, pl.Frags[i].Parent, f.Parent)
			}
			if got, want := render(pl.Frags[i].Root, pl.Leaves(i), pl.Children(i)), render(f.Root, nil, nil); got != want {
				t.Fatalf("Plan fragment %d over its leaves reads\n%s\nthe cut fragment\n%s", i, got, want)
			}
		}
		if !bytes.Equal(tree.Encode(root), whole) || tree.Hash(root) != wholeHash {
			t.Fatal("planning changed the tree")
		}
	})
}

// render spells out the subtree at n in preorder, with a remote leaf —
// or leaves[k], which stands for fragment ids[k] — as its fragment id.
func render(n *tree.Node, leaves []*tree.Node, ids []int) string {
	var b strings.Builder
	var walk func(n *tree.Node)
	walk = func(n *tree.Node) {
		if k := slices.Index(leaves, n); k >= 0 {
			fmt.Fprintf(&b, "<%s %d>", n.Sym.Name, ids[k])
			return
		}
		switch {
		case n.Remote:
			fmt.Fprintf(&b, "<%s %d>", n.Sym.Name, n.RemoteID)
		case n.Sym.Terminal:
			fmt.Fprintf(&b, "%q", n.Token)
		default:
			fmt.Fprintf(&b, "(%d", n.Prod.Index)
			for _, c := range n.Children {
				walk(c)
			}
			b.WriteString(")")
		}
	}
	walk(n)
	return b.String()
}
