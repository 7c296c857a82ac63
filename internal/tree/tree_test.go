package tree_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pag/internal/exprlang"
	"pag/internal/tree"
)

func parse(t *testing.T, src string) (*exprlang.Lang, *tree.Node) {
	t.Helper()
	l := exprlang.MustNew()
	root, err := l.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return l, root
}

func TestNodeBasics(t *testing.T) {
	_, root := parse(t, "let x = 2 in 1 + 3*x ni")
	if root.Count() < 10 {
		t.Errorf("Count = %d, suspiciously small", root.Count())
	}
	if root.Size() <= 0 {
		t.Error("Size must be positive")
	}
	if root.CountAttrs() <= root.Count() {
		t.Error("attribute instances should outnumber nodes for this grammar")
	}
	visited := 0
	root.Walk(func(*tree.Node) { visited++ })
	if visited != root.Count() {
		t.Errorf("Walk visited %d, Count = %d", visited, root.Count())
	}
}

func TestCloneIsDeepAndEqual(t *testing.T) {
	_, root := parse(t, exprlang.Generate(3, 4))
	clone := root.Clone()
	if !tree.Equal(root, clone) {
		t.Fatal("clone not equal to original")
	}
	// Mutating the clone's structure must not affect the original.
	clone.Children[0] = clone.Children[0].Children[0]
	if tree.Equal(root, clone) {
		t.Fatal("mutation of clone affected equality check")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	l, root := parse(t, exprlang.Generate(4, 7))
	data := tree.Encode(root)
	back, err := tree.Decode(l.G, data, l.TerminalAttrs)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !tree.Equal(root, back) {
		t.Error("round trip changed the tree")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	l, root := parse(t, "1 + 2")
	data := tree.Encode(root)
	for _, mutate := range []func([]byte) []byte{
		func(d []byte) []byte { return d[:len(d)/2] },                // truncated
		func(d []byte) []byte { d[0] = 99; return d },                // bad tag
		func(d []byte) []byte { return append(d, 1, 2, 3) },          // trailing
		func(d []byte) []byte { d[1] = 0xFF; d[2] = 0xFF; return d }, // bad index
	} {
		d := append([]byte(nil), data...)
		if _, err := tree.Decode(l.G, mutate(d), l.TerminalAttrs); err == nil {
			t.Error("Decode accepted corrupted input")
		}
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	// Property: any generated expression round-trips.
	l := exprlang.MustNew()
	f := func(blocks, exprs uint8) bool {
		b := int(blocks%6) + 1
		e := int(exprs%8) + 1
		root, err := l.Parse(exprlang.Generate(b, e))
		if err != nil {
			return false
		}
		back, err := tree.Decode(l.G, tree.Encode(root), l.TerminalAttrs)
		return err == nil && tree.Equal(root, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDecomposePartitionsNodes(t *testing.T) {
	_, root := parse(t, exprlang.Generate(8, 10))
	before := root.Count()
	d := tree.Decompose(root, tree.GranularityFor(root, 4), 4)
	if d.NumFragments() < 2 {
		t.Fatalf("no cuts (frags=%d)", d.NumFragments())
	}
	// Every original node lands in exactly one fragment; remote leaves
	// are new placeholder nodes.
	total, remotes := 0, 0
	for _, f := range d.Frags {
		f.Root.Walk(func(n *tree.Node) {
			if n.Remote {
				remotes++
			} else {
				total++
			}
		})
	}
	if total != before {
		t.Errorf("fragments hold %d real nodes, original had %d", total, before)
	}
	if remotes != d.NumFragments()-1 {
		t.Errorf("%d remote leaves for %d fragments", remotes, d.NumFragments())
	}
}

func TestDecomposeProcessTreeWellFormed(t *testing.T) {
	_, root := parse(t, exprlang.Generate(12, 8))
	d := tree.Decompose(root, tree.GranularityFor(root, 5), 5)
	if d.Frags[0].Parent != -1 {
		t.Error("fragment 0 must be the root fragment")
	}
	for _, f := range d.Frags[1:] {
		if f.Parent < 0 || f.Parent >= f.ID {
			t.Errorf("fragment %d has parent %d; parents must precede children", f.ID, f.Parent)
		}
		// The parent fragment must hold the matching remote leaf.
		found := false
		d.Frags[f.Parent].Root.Walk(func(n *tree.Node) {
			if n.Remote && n.RemoteID == f.ID {
				found = true
			}
		})
		if !found {
			t.Errorf("fragment %d: no remote leaf in parent %d", f.ID, f.Parent)
		}
	}
}

func TestDecomposeRespectsMaxFrags(t *testing.T) {
	_, root := parse(t, exprlang.Generate(20, 6))
	for _, max := range []int{1, 2, 3, 6} {
		clone := root.Clone()
		d := tree.Decompose(clone, 64, max)
		if d.NumFragments() > max {
			t.Errorf("maxFrags=%d produced %d fragments", max, d.NumFragments())
		}
	}
}

func TestDecomposeOnlyCutsSplitSymbols(t *testing.T) {
	l, root := parse(t, exprlang.Generate(10, 10))
	d := tree.Decompose(root, 32, 8)
	for _, f := range d.Frags[1:] {
		if f.Root.Sym != l.Block {
			t.Errorf("fragment %d rooted at %s; only block is splittable", f.ID, f.Root.Sym)
		}
	}
}

func TestSpine(t *testing.T) {
	_, root := parse(t, exprlang.Generate(6, 8))
	d := tree.Decompose(root, tree.GranularityFor(root, 3), 3)
	spine := tree.Spine(d.Frags[0].Root, tree.RemoteLeaves(d.Frags[0].Root))
	if len(spine) == 0 {
		t.Fatal("root fragment with remote leaves has an empty spine")
	}
	// Spine nodes have a remote descendant; off-spine nodes do not.
	var check func(n *tree.Node) bool
	check = func(n *tree.Node) bool {
		hasRemote := n.Remote
		for _, c := range n.Children {
			if check(c) {
				hasRemote = true
			}
		}
		if !n.Remote && spine[n] != hasRemote {
			t.Errorf("spine marking wrong at %s: marked=%v hasRemoteBelow=%v", n.Sym, spine[n], hasRemote)
		}
		return hasRemote
	}
	check(d.Frags[0].Root)
	// A tree with no remote leaves has no spine.
	if s := tree.Spine(d.Frags[0].Root, nil); len(s) != 0 {
		t.Errorf("spine of %d nodes without remote leaves", len(s))
	}
	if s := tree.Spine(d.Frags[len(d.Frags)-1].Root, tree.RemoteLeaves(d.Frags[len(d.Frags)-1].Root)); len(s) != 0 {
		last := d.Frags[len(d.Frags)-1]
		hasRemote := false
		last.Root.Walk(func(n *tree.Node) { hasRemote = hasRemote || n.Remote })
		if !hasRemote {
			t.Errorf("leaf fragment has spine of %d nodes", len(s))
		}
	}
}

func TestGranularityMonotone(t *testing.T) {
	_, root := parse(t, exprlang.Generate(16, 8))
	prev := 1 << 30
	for machines := 1; machines <= 8; machines++ {
		g := tree.GranularityFor(root, machines)
		if g > prev {
			t.Errorf("granularity grew with machine count: %d at %d machines", g, machines)
		}
		prev = g
	}
}

func TestBalanceMetric(t *testing.T) {
	// The appendix grammar can only cut single blocks (no list split
	// points), so the root fragment keeps everything else and the
	// balance is mediocre — but it must still be a valid ratio >= 1.
	_, root := parse(t, exprlang.Generate(10, 10))
	d := tree.Decompose(root, tree.GranularityFor(root, 5), 5)
	if b := d.Balance(); b < 1.0 || b > float64(d.NumFragments()) {
		t.Errorf("balance = %.2f out of range [1, frags]", b)
	}
}

func TestDescribeStable(t *testing.T) {
	_, root := parse(t, exprlang.Generate(6, 6))
	d := tree.Decompose(root, tree.GranularityFor(root, 3), 3)
	a, b := d.Describe(), d.Describe()
	if a != b {
		t.Error("Describe not deterministic")
	}
}

func TestSizeStableUnderReads(t *testing.T) {
	// Size must be a pure function of the tree (caching must not drift).
	_, root := parse(t, exprlang.Generate(3, 3))
	s1 := root.Size()
	rng := rand.New(rand.NewSource(1))
	root.Walk(func(n *tree.Node) {
		if rng.Intn(2) == 0 {
			n.Size()
		}
	})
	if s2 := root.Size(); s1 != s2 {
		t.Errorf("Size drifted: %d -> %d", s1, s2)
	}
}
