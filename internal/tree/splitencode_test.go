package tree_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"pag/internal/exprlang"
	"pag/internal/pascal"
	"pag/internal/tree"
	"pag/internal/workload"
)

// TestSplitEncodeMatchesDecompose is the differential test of the
// non-mutating split: for widths 1-8, on the workload programs and
// the planning fuzzer's seed programs, SplitEncode must produce byte
// for byte the encodings of the fragments Decompose cuts out of a
// clone, with the same IDs,
// parents, children, sizes, balance and digests — and leave the tree
// untouched.
func TestSplitEncodeMatchesDecompose(t *testing.T) {
	pl := pascal.MustNew()
	for _, cfg := range []workload.Config{workload.Tiny(), workload.Small(), workload.CourseCompiler()} {
		job, err := pl.ClusterJob(workload.Generate(cfg))
		if err != nil {
			t.Fatal(err)
		}
		checkSplitEncode(t, fmt.Sprintf("pascal seed %d", cfg.Seed), job.Root)
	}
	el := exprlang.MustNew()
	for _, src := range []string{"1+2*(3+4)+5*6", "let x = 2 in 1 + 3*x ni", exprlang.Generate(6, 5), exprlang.Generate(12, 9)} {
		root, err := el.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		checkSplitEncode(t, fmt.Sprintf("expr %.20q", src), root)
	}
}

func checkSplitEncode(t *testing.T, name string, root *tree.Node) {
	t.Helper()
	before := tree.Encode(root)
	for width := 1; width <= 8; width++ {
		gran := tree.GranularityFor(root, width)
		clone := root.Clone()
		want := tree.Decompose(clone, gran, width)
		got, enc := tree.SplitEncode(root, gran, width)
		where := fmt.Sprintf("%s, width %d", name, width)
		if got.NumFragments() != want.NumFragments() || len(enc) != want.NumFragments() {
			t.Fatalf("%s: %d fragments (%d encodings), want %d", where, got.NumFragments(), len(enc), want.NumFragments())
		}
		for i, f := range want.Frags {
			g := got.Frags[i]
			if g.ID != f.ID || g.Parent != f.Parent {
				t.Errorf("%s: fragment %d is (id %d, parent %d), want (%d, %d)", where, i, g.ID, g.Parent, f.ID, f.Parent)
			}
			if !slices.Equal(got.Children(i), want.Children(i)) {
				t.Errorf("%s: fragment %d children %v, want %v", where, i, got.Children(i), want.Children(i))
			}
			if !bytes.Equal(enc[i], tree.Encode(f.Root)) {
				t.Errorf("%s: fragment %d encoding differs from the cut fragment's", where, i)
			}
		}
		if !slices.Equal(got.Sizes(), want.Sizes()) {
			t.Errorf("%s: sizes %v, want %v", where, got.Sizes(), want.Sizes())
		}
		if got.Balance() != want.Balance() {
			t.Errorf("%s: balance %v, want %v", where, got.Balance(), want.Balance())
		}
		if !slices.Equal(got.Digests(), want.Digests()) {
			t.Errorf("%s: digests differ from the cut fragments'", where)
		}
		if got.Describe() != want.Describe() {
			t.Errorf("%s: process tree\n%s\nwant\n%s", where, got.Describe(), want.Describe())
		}
	}
	if !bytes.Equal(tree.Encode(root), before) {
		t.Fatalf("%s: SplitEncode modified the tree", name)
	}
}
