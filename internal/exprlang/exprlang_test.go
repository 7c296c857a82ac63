package exprlang_test

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"pag/internal/eval"
	"pag/internal/exprlang"
	"pag/internal/symtab"
	"pag/internal/tree"
)

func value(t *testing.T, l *exprlang.Lang, src string) int {
	t.Helper()
	root, err := l.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	d := eval.NewDynamic(l.G, root, eval.Hooks{})
	d.Run()
	if !d.Done() {
		t.Fatalf("%q: evaluator blocked", src)
	}
	return root.Attrs[exprlang.AttrValue].(int)
}

func TestAppendixExample(t *testing.T) {
	// The paper: "let x = 2 in 1 + 3*x ni can be read as the sum of 1
	// and 3 times x, where x = 2. The value of the expression is 7."
	l := exprlang.MustNew()
	if got := value(t, l, "let x = 2 in 1 + 3*x ni"); got != 7 {
		t.Errorf("appendix example = %d, want 7", got)
	}
}

func TestPrecedenceAndAssociativity(t *testing.T) {
	l := exprlang.MustNew()
	cases := map[string]int{
		"2+3*4":               14,
		"2*3+4":               10,
		"2*(3+4)":             14,
		"1+2+3":               6,
		"2*3*4":               24,
		"((((5))))":           5,
		"let a=1 in a ni * 9": 9,
		"let a = let b = 2 in b*b ni in a + 1 ni": 5,
	}
	for src, want := range cases {
		if got := value(t, l, src); got != want {
			t.Errorf("%q = %d, want %d", src, got, want)
		}
	}
}

func TestShadowing(t *testing.T) {
	l := exprlang.MustNew()
	// Inner binding shadows the outer one; applicative tables mean the
	// outer expression still sees the old binding.
	src := "let x = 1 in let x = 2 in x ni + x ni"
	if got := value(t, l, src); got != 3 {
		t.Errorf("%q = %d, want 3 (inner 2 + outer 1)", src, got)
	}
}

func TestUndefinedIdentifierIsZero(t *testing.T) {
	l := exprlang.MustNew()
	if got := value(t, l, "q + 5"); got != 5 {
		t.Errorf("undefined identifier: got %d, want 5", got)
	}
}

func TestParseErrors(t *testing.T) {
	l := exprlang.MustNew()
	bad := []string{
		"",
		"1 +",
		"let x 2 in x ni",
		"let x = 2 in x", // missing ni
		"(1 + 2",
		"1 ) 2",
		"let 2 = x in x ni",
		"#",
	}
	for _, src := range bad {
		if _, err := l.Parse(src); err == nil {
			t.Errorf("Parse accepted %q", src)
		}
	}
}

// TestParseNestingLimit pins the parser's nesting bound: parentheses
// and let-blocks nested past it are a syntax error rather than a stack
// overflow, and a few hundred levels still parse.
func TestParseNestingLimit(t *testing.T) {
	l := exprlang.MustNew()
	parens := func(n int) string { return strings.Repeat("(", n) + "1" + strings.Repeat(")", n) }
	lets := func(n int) string { return strings.Repeat("let x = 1 in ", n) + "x" + strings.Repeat(" ni", n) }
	for _, src := range []string{parens(500), lets(500)} {
		if _, err := l.Parse(src); err != nil {
			t.Errorf("Parse(%.20q...): %v", src, err)
		}
	}
	for _, src := range []string{parens(1 << 16), lets(1 << 16)} {
		_, err := l.Parse(src)
		if err == nil || !strings.Contains(err.Error(), "exprlang: nesting deeper than 1024 levels at offset") {
			t.Errorf("Parse(%.20q...) = %v, want a nesting error", src, err)
		}
	}
}

// TestParseListBudget pins the bound on the levels lists add to a path
// (tree.MaxListRun): a program at the budget parses and its tree
// survives Encode and Decode, as a fleet worker receives it; one more
// term is an error. Runs add up along a path through parentheses, and a
// sum of 2^18+10 terms, which once parsed into a tree Decode refused,
// is rejected.
func TestParseListBudget(t *testing.T) {
	l := exprlang.MustNew()
	sum := func(terms int) string { return "1" + strings.Repeat("+1", terms-1) }
	half := tree.MaxListRun / 2
	for name, tc := range map[string]struct{ at, over string }{
		"sum":    {sum(tree.MaxListRun + 1), sum(tree.MaxListRun + 2)},
		"nested": {"(" + sum(half+1) + ")" + strings.Repeat("*1", half), "(" + sum(half+2) + ")" + strings.Repeat("*1", half)},
		"huge":   {sum(8), sum(1<<18 + 10)},
	} {
		root, err := l.Parse(tc.at)
		if err != nil {
			t.Fatalf("%s at the budget: %v", name, err)
		}
		if _, err := tree.Decode(l.G, tree.Encode(root), l.TerminalAttrs); err != nil {
			t.Errorf("%s at the budget: Decode: %v", name, err)
		}
		_, err = l.Parse(tc.over)
		if err == nil || !strings.Contains(err.Error(), "exprlang: lists deeper than 131072 levels at offset") {
			t.Errorf("%s over the budget: got %v, want a list-depth error", name, err)
		}
	}
}

func TestGenerateValueFormula(t *testing.T) {
	l := exprlang.MustNew()
	tri := func(n int) int { return n * (n + 1) / 2 }
	f := func(blocks, exprs uint8) bool {
		b := int(blocks%5) + 1
		e := int(exprs%6) + 1
		return value(t, l, exprlang.Generate(b, e)) == tri(b)*tri(e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGenerateNestedValue(t *testing.T) {
	l := exprlang.MustNew()
	// GenerateNested(b, e): 1 + sum_{i=1..b} i * T(e).
	got := value(t, l, exprlang.GenerateNested(4, 3))
	want := 1 + (1+2+3+4)*(1+2+3)
	if got != want {
		t.Errorf("nested value = %d, want %d", got, want)
	}
}

func TestCodecsRoundTrip(t *testing.T) {
	l := exprlang.MustNew()
	// Every attribute of the split symbol must round-trip through its
	// conversion functions (paper §2.5).
	for _, ai := range []int{exprlang.AttrValue, exprlang.AttrStab} {
		attr := l.Block.Attrs[ai]
		if attr.Codec == nil {
			t.Fatalf("block.%s has no codec", attr.Name)
		}
	}
	root, err := l.Parse("let x = 2 in let y = 5 in x + y ni ni")
	if err != nil {
		t.Fatal(err)
	}
	d := eval.NewDynamic(l.G, root, eval.Hooks{})
	d.Run()
	if !d.Done() {
		t.Fatal("evaluator blocked")
	}
	roundTrips := 0
	root.Walk(func(n *tree.Node) {
		if n.Sym != l.Block {
			return
		}
		for ai := range n.Sym.Attrs {
			codec := n.Sym.Attrs[ai].Codec
			data, err := codec.Encode(n.Attrs[ai])
			if err != nil {
				t.Fatalf("Encode %s: %v", n.Sym.Attrs[ai].Name, err)
			}
			back, err := codec.Decode(data)
			if err != nil {
				t.Fatalf("Decode %s: %v", n.Sym.Attrs[ai].Name, err)
			}
			switch v := n.Attrs[ai].(type) {
			case int:
				if back != v {
					t.Errorf("int round trip: %v != %v", back, v)
				}
			case *symtab.Table:
				bt := back.(*symtab.Table)
				if bt.Len() != v.Len() {
					t.Errorf("stab round trip: %d entries != %d", bt.Len(), v.Len())
				}
				for _, e := range v.Entries() {
					got, ok := bt.Lookup(e.Name)
					if !ok || got != e.Val {
						t.Errorf("stab round trip lost %s=%v (got %v, %v)", e.Name, e.Val, got, ok)
					}
				}
			}
			roundTrips++
		}
	})
	if roundTrips < 4 {
		t.Errorf("only %d attribute round trips exercised", roundTrips)
	}
	// A name length beyond the end of the input is an error, not a panic.
	stab := l.Block.Attrs[exprlang.AttrStab].Codec
	if _, err := stab.Decode(binary.AppendUvarint([]byte{1}, math.MaxUint64)); err == nil {
		t.Error("stab decode accepted a name length beyond the input")
	}
	// A wrong-typed value is an encode error, not a panic.
	if _, err := stab.Encode(symtab.New().Add("x", "text")); err == nil {
		t.Error("stab encoded a binding to a string")
	}
	if _, err := l.Block.Attrs[exprlang.AttrValue].Codec.Encode("7"); err == nil {
		t.Error("value codec encoded a string")
	}
}
