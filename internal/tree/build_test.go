package tree_test

import (
	"bytes"
	"fmt"
	"testing"

	"pag/internal/ag"
	"pag/internal/exprlang"
	"pag/internal/pascal"
	"pag/internal/tree"
	"pag/internal/workload"
)

// rebuild copies a parsed tree node by node through the heap
// constructors New and NewTerminal.
func rebuild(n *tree.Node) *tree.Node {
	if n.Sym.Terminal {
		return tree.NewTerminal(n.Sym, n.Token, n.Attrs...)
	}
	kids := make([]*tree.Node, len(n.Children))
	for i, c := range n.Children {
		kids[i] = rebuild(c)
	}
	return tree.New(n.Prod, kids...)
}

// sameSizes reports the first node whose Size differs between a and b
// (trees of equal shape), or "" if none does.
func sameSizes(a, b *tree.Node, path string) string {
	if a.Size() != b.Size() {
		return fmt.Sprintf("%s: size %d, heap-built %d", path, a.Size(), b.Size())
	}
	for i := range a.Children {
		if d := sameSizes(a.Children[i], b.Children[i], fmt.Sprintf("%s/%d", path, i)); d != "" {
			return d
		}
	}
	return ""
}

// TestBuilderMatchesHeapConstructors is the differential check on
// Builder: trees the parsers build from slabs must equal, encode, size
// and hash exactly like the same trees built by New and NewTerminal, so
// cache keys and recordings made before slab building stay valid.
func TestBuilderMatchesHeapConstructors(t *testing.T) {
	type source struct {
		name  string
		parse func() (*tree.Node, error)
	}
	var srcs []source
	pl := pascal.MustNew()
	for _, shape := range []string{"tiny", "small", "course"} {
		cfg, err := workload.ByName(shape)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{cfg.Seed, 1, 2, 9001} {
			cfg.Seed = seed
			src := workload.Generate(cfg)
			srcs = append(srcs, source{fmt.Sprintf("pascal/%s/seed=%d", shape, seed),
				func() (*tree.Node, error) { return pl.Parse(src) }})
		}
	}
	el := exprlang.MustNew()
	for name, src := range map[string]string{
		"Generate(6,5)":        exprlang.Generate(6, 5),
		"Generate(40,12)":      exprlang.Generate(40, 12),
		"GenerateNested(5,4)":  exprlang.GenerateNested(5, 4),
		"GenerateNested(30,3)": exprlang.GenerateNested(30, 3),
		"let":                  "let x = 2 in 1 + 3*x ni",
		"parens":               "((1))",
	} {
		srcs = append(srcs, source{"exprlang/" + name,
			func() (*tree.Node, error) { return el.Parse(src) }})
	}

	for _, s := range srcs {
		t.Run(s.name, func(t *testing.T) {
			built, err := s.parse()
			if err != nil {
				t.Fatal(err)
			}
			heap := rebuild(built)
			if !tree.Equal(built, heap) {
				t.Fatal("slab-built tree differs from the heap-built copy")
			}
			if !bytes.Equal(tree.Encode(built), tree.Encode(heap)) {
				t.Fatal("encodings differ")
			}
			if d := sameSizes(built, heap, "root"); d != "" {
				t.Fatal(d)
			}
			if tree.Hash(built) != tree.Hash(heap) {
				t.Fatal("hashes differ")
			}
		})
	}
}

// panicMessage runs f and returns what it panicked with ("" if it did
// not panic).
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestBuilderChecksLikeNew pins that Builder.New and Builder.NewTerminal
// reject what New and NewTerminal reject, with the same message.
func TestBuilderChecksLikeNew(t *testing.T) {
	l := exprlang.MustNew()
	var b tree.Builder
	num := tree.NewTerminal(l.Number, "7", "7")
	plus := tree.NewTerminal(l.Plus, "+")
	for name, args := range map[string]struct {
		p    *ag.Production
		kids []*tree.Node
	}{
		"child symbol mismatch": {l.PNum, []*tree.Node{plus}},
		"too few children":      {l.PAdd, []*tree.Node{num}},
		"too many children":     {l.PNum, []*tree.Node{num, num}},
	} {
		want := panicMessage(func() { tree.New(args.p, args.kids...) })
		if want == "" {
			t.Fatalf("%s: tree.New accepted", name)
		}
		if got := panicMessage(func() { b.New(args.p, args.kids...) }); got != want {
			t.Errorf("%s: Builder.New panicked with %q, want %q", name, got, want)
		}
	}
	want := panicMessage(func() { tree.NewTerminal(l.Expr, "x") })
	if want == "" {
		t.Fatal("tree.NewTerminal accepted a nonterminal")
	}
	if got := panicMessage(func() { b.NewTerminal(l.Expr, "x") }); got != want {
		t.Errorf("Builder.NewTerminal panicked with %q, want %q", got, want)
	}
}
