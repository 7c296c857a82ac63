package tree_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"pag/internal/ag"
	"pag/internal/exprlang"
	"pag/internal/tree"
)

// FuzzDecode fuzzes the network boundary of the tree codec: Decode
// reads subtrees a fleet worker receives from a coordinator, so any
// input must yield a tree or an error, never a panic, and an accepted
// input must re-encode to exactly the bytes it was decoded from.
func FuzzDecode(f *testing.F) {
	l := exprlang.MustNew()
	for _, src := range []string{"1+2*(3+4)+5*6", "let x = 2 in 1 + 3*x ni", exprlang.Generate(6, 5)} {
		root, err := l.Parse(src)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(tree.Encode(root))
		_, enc := tree.SplitEncode(root, tree.GranularityFor(root, 3), 3, tree.PlanSize, nil)
		for _, e := range enc {
			f.Add(e) // fragments with remote leaves
		}
	}
	f.Add([]byte{})
	f.Add([]byte{9})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := tree.Decode(l.G, data, l.TerminalAttrs)
		if err != nil {
			return
		}
		if got := tree.Encode(n); !bytes.Equal(got, data) {
			t.Fatalf("decoded %x, re-encoded %x", data, got)
		}
		if got, want := n.Size(), linearSize(n); got != want {
			t.Fatalf("decoded size %d, want %d", got, want)
		}
	})
}

// linearSize recomputes Node.Size from scratch.
func linearSize(n *tree.Node) int {
	switch {
	case n.Remote:
		return 4
	case n.Sym.Terminal:
		return 3 + len(n.Token)
	}
	s := 2
	for _, c := range n.Children {
		s += linearSize(c)
	}
	return s
}

// TestDecodeRejectsHostileInput pins the inputs that used to panic
// inside the tree constructors, plus the codec's canonical-form rules.
func TestDecodeRejectsHostileInput(t *testing.T) {
	l := exprlang.MustNew()
	root, err := l.Parse("1+2")
	if err != nil {
		t.Fatal(err)
	}
	good := tree.Encode(root)
	if _, err := tree.Decode(l.G, good, l.TerminalAttrs); err != nil {
		t.Fatalf("valid encoding rejected: %v", err)
	}

	var prod *ag.Production // a production whose first child is a terminal
	var nonterm *ag.Symbol
	for _, p := range l.G.Prods {
		if prod == nil && len(p.RHS) > 0 && p.RHS[0].Terminal {
			prod = p
		}
		if nonterm == nil && len(p.RHS) > 0 && !p.RHS[0].Terminal {
			nonterm = p.RHS[0]
		}
	}
	uv := func(b []byte, v int) []byte { return binary.AppendUvarint(b, uint64(v)) }
	cases := map[string][]byte{
		// Interior node whose first child is a remote leaf of the
		// wrong symbol: used to panic in tree.New.
		"child symbol mismatch": uv(uv(append(uv([]byte{1}, prod.Index), 3), nonterm.Index), 1),
		// A nonterminal index under the terminal tag: used to panic in
		// NewTerminal.
		"nonterminal as terminal": append(uv(uv([]byte{2}, nonterm.Index), 1), 'x'),
		"non-canonical varint":    {2, 0x80 | byte(l.Number.Index), 0, 1, '7'},
		"remote terminal":         uv(uv([]byte{3}, l.Number.Index), 1),
		"token past the end":      uv(uv([]byte{2}, l.Number.Index), 1<<40),
		"truncated":               good[:len(good)-1],
		"trailing bytes":          append(append([]byte(nil), good...), 0),
		"bad tag":                 {7},
		// A chain of left-recursive interior nodes deeper than any
		// program: an error, not a goroutine stack overflow.
		"nesting too deep": bytes.Repeat(uv([]byte{1}, l.PAdd.Index), 1<<18+2),
	}
	for name, data := range cases {
		if _, err := tree.Decode(l.G, data, l.TerminalAttrs); err == nil {
			t.Errorf("%s: %x decoded without error", name, data)
		}
	}
}
