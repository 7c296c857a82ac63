package tree_test

import (
	"testing"

	"pag/internal/exprlang"
	"pag/internal/tree"
)

// FuzzHash fuzzes the content-address invariants the whole-job cache
// keys on: determinism, clone invariance, mutation sensitivity (any
// single-token mutation changes the digest — a miss served as a hit
// would silently return another program's output), and post-cut
// locality (mutating one fragment's token leaves every other
// fragment's digest unchanged while changing that fragment's).
func FuzzHash(f *testing.F) {
	f.Add("1+2*(3+4)+5*6", uint8(0), uint8(3))
	f.Add("let x = 2 in 1 + 3*x ni", uint8(2), uint8(2))
	f.Add(exprlang.Generate(6, 5), uint8(7), uint8(4))
	f.Add(exprlang.Generate(12, 9), uint8(31), uint8(6))
	l := exprlang.MustNew()
	f.Fuzz(func(t *testing.T, src string, pick uint8, width uint8) {
		root, err := l.Parse(src)
		if err != nil {
			t.Skip() // not a program; nothing to hash
		}
		h := tree.Hash(root)
		if h != tree.Hash(root) {
			t.Fatal("hash is not deterministic")
		}
		if hc := tree.Hash(root.Clone()); hc != h {
			t.Fatal("clone hashes differently")
		}

		// Collect terminals and mutate the pick-th one.
		var terms []*tree.Node
		var walk func(n *tree.Node)
		walk = func(n *tree.Node) {
			if n.Sym.Terminal {
				terms = append(terms, n)
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		mut := root.Clone()
		walk(mut)
		if len(terms) == 0 {
			t.Skip()
		}
		target := terms[int(pick)%len(terms)]
		target.Token += "x"
		if tree.Hash(mut) == h {
			t.Fatalf("token mutation of %q did not change the hash", target.Sym.Name)
		}

		// Post-cut locality: mutate a token inside one fragment of a
		// decomposition; only that fragment's digest may change.
		w := 2 + int(width)%5
		a := root.Clone()
		b := root.Clone()
		da := tree.Decompose(a, tree.GranularityFor(a, w), w)
		db := tree.Decompose(b, tree.GranularityFor(b, w), w)
		if da.NumFragments() != db.NumFragments() {
			t.Fatalf("same tree decomposed to %d vs %d fragments", da.NumFragments(), db.NumFragments())
		}
		victim := int(pick) % da.NumFragments()
		terms = nil
		walk(db.Frags[victim].Root)
		if len(terms) == 0 {
			t.Skip() // fragment of remote leaves only
		}
		terms[int(width)%len(terms)].Token += "y"
		ha, hb := da.Digests(), db.Digests()
		for i := range ha {
			if i == victim {
				if ha[i] == hb[i] {
					t.Fatalf("fragment %d mutated but digest unchanged", i)
				}
			} else if ha[i] != hb[i] {
				t.Fatalf("fragment %d untouched but digest changed (mutation was in %d)", i, victim)
			}
		}
	})
}
