package parallel

import (
	"bytes"
	"slices"
	"testing"

	"pag/internal/ag"
	"pag/internal/exprlang"
	"pag/internal/tree"
)

// FuzzPlan fuzzes the planning layer's invariants on arbitrary
// appendix-grammar programs: the grammar cut plan (which replay
// pruning and aglint read) is a pure, deterministic function of
// (grammar, analysis); and at any width the non-mutating SplitEncode
// and the pool's in-place cut (SplitInPlace) agree with the fragments
// Decompose cuts out of a clone, and undoing the in-place cut gives
// the tree back.
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
		// symbol, with and without the analysis.
		p1, p2 := ag.NewCutPlan(l.G, a), ag.NewCutPlan(l.G, a)
		dyn := ag.NewCutPlan(l.G, nil)
		for _, s := range l.G.Symbols {
			if p1.CutCost(s) != p2.CutCost(s) || p1.CutMessages(s) != p2.CutMessages(s) {
				t.Fatalf("cut plan not deterministic for %s", s.Name)
			}
			if p1.Classes(s) != p2.Classes(s) {
				t.Fatalf("class count not deterministic for %s", s.Name)
			}
			if dyn.Exact(s) {
				t.Fatalf("plan without analysis claims an exact incidence matrix for %s", s.Name)
			}
			// The incidence relation is reflexive: an attribute never
			// proves independent of itself.
			for i := range s.Attrs {
				if p1.Independent(s, i, i) {
					t.Fatalf("%s attr %d independent of itself", s.Name, i)
				}
			}
		}

		// The fleet's non-mutating split agrees with the cut fragments
		// byte for byte, and with their sizes and digests.
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
		hp, h := dp.Digests(), d.Digests()
		if !slices.Equal(dp.Sizes(), d.Sizes()) {
			t.Fatalf("SplitEncode sizes %v, Decompose %v", dp.Sizes(), d.Sizes())
		}
		for i, f := range d.Frags {
			if dp.Frags[i].Parent != f.Parent || !bytes.Equal(enc[i], tree.Encode(f.Root)) || hp[i] != h[i] {
				t.Fatalf("SplitEncode fragment %d differs from the cut fragment", i)
			}
		}

		// The pool's in-place cut makes the same fragments, hands each
		// its remote leaves in tree order, and its undo restores the
		// tree; the decomposition stays valid after the undo.
		whole, wholeHash := tree.Encode(root), tree.Hash(root)
		di, leaves, undo := tree.SplitInPlace(root, gran, w)
		check := func(when string) {
			if di.NumFragments() != d.NumFragments() || di.Balance() != d.Balance() || !slices.Equal(di.Sizes(), d.Sizes()) {
				t.Fatalf("%s: SplitInPlace plans %d fragments (balance %v, sizes %v), Decompose %d (%v, %v)", when,
					di.NumFragments(), di.Balance(), di.Sizes(), d.NumFragments(), d.Balance(), d.Sizes())
			}
			if !slices.Equal(di.Digests(), h) {
				t.Fatalf("%s: SplitInPlace digests differ from the cut fragments'", when)
			}
		}
		check("cut")
		for i, f := range d.Frags {
			if di.Frags[i].Parent != f.Parent || !bytes.Equal(tree.Encode(di.Frags[i].Root), enc[i]) {
				t.Fatalf("SplitInPlace fragment %d differs from the cut fragment", i)
			}
			if !slices.Equal(leaves[i], tree.RemoteLeaves(di.Frags[i].Root)) {
				t.Fatalf("SplitInPlace fragment %d: remote leaves not those of the cut fragment in tree order", i)
			}
		}
		undo()
		if !bytes.Equal(tree.Encode(root), whole) || tree.Hash(root) != wholeHash {
			t.Fatal("undoing the in-place cut did not restore the tree")
		}
		check("undone")
	})
}
