package agspec_test

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"pag/internal/ag"
	"pag/internal/agspec"
	"pag/internal/eval"
	"pag/internal/exprlang"
	"pag/internal/tree"
)

func parseAppendix(t *testing.T) *agspec.Result {
	t.Helper()
	res, err := agspec.Parse(agspec.AppendixSpec, agspec.AppendixLibrary())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return res
}

func TestAppendixSpecParses(t *testing.T) {
	res := parseAppendix(t)
	g := res.Grammar
	if len(g.Prods) != 8 {
		t.Errorf("productions = %d, want 8 (as in the appendix)", len(g.Prods))
	}
	if res.StartFn != "printn" {
		t.Errorf("start function = %q, want printn", res.StartFn)
	}
	if len(res.Prec) != 2 || res.Prec[0].Tokens[0] != "'+'" {
		t.Errorf("precedence = %+v", res.Prec)
	}
	block := g.SymbolNamed("block")
	if block == nil || !block.Split || block.MinSplitSize != 40 {
		t.Errorf("block symbol wrong: %+v", block)
	}
	expr := g.SymbolNamed("expr")
	if expr == nil {
		t.Fatal("expr missing")
	}
	stab := expr.AttrIndex("stab")
	if stab < 0 || !expr.Attrs[stab].Priority {
		t.Error("expr.stab should be a priority attribute")
	}
}

func TestAppendixSpecIsOrdered(t *testing.T) {
	res := parseAppendix(t)
	a, err := ag.Analyze(res.Grammar)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	expr := res.Grammar.SymbolNamed("expr")
	if v := a.NumVisits(expr); v != 1 {
		t.Errorf("expr visits = %d, want 1", v)
	}
}

// buildAppendixTree constructs the tree for "let x = 2 in 1 + 3*x ni"
// over the spec-built grammar (the parser generator is out of scope; we
// play scanner and parser by hand, as Figure 1's input stage would).
func buildAppendixTree(t *testing.T, g *ag.Grammar) *tree.Node {
	t.Helper()
	prod := func(name string) *ag.Production {
		for _, p := range g.Prods {
			if p.Name == name {
				return p
			}
		}
		t.Fatalf("no production %q; have:\n%s", name, allProds(g))
		return nil
	}
	sym := func(name string) *ag.Symbol {
		s := g.SymbolNamed(name)
		if s == nil {
			t.Fatalf("no symbol %q", name)
		}
		return s
	}
	term := func(symName, text string) *tree.Node {
		s := sym(symName)
		if len(s.Attrs) > 0 {
			return tree.NewTerminal(s, text, text)
		}
		return tree.NewTerminal(s, text)
	}
	num := func(text string) *tree.Node {
		return tree.New(prod("expr -> NUMBER"), term("NUMBER", text))
	}
	ident := func(text string) *tree.Node {
		return tree.New(prod("expr -> IDENTIFIER"), term("IDENTIFIER", text))
	}
	// 3 * x
	mulE := tree.New(prod("expr -> expr '*' expr"), num("3"), term("'*'", "*"), ident("x"))
	// 1 + 3*x
	addE := tree.New(prod("expr -> expr '+' expr"), num("1"), term("'+'", "+"), mulE)
	// let x = 2 in ... ni
	block := tree.New(prod("block -> LET IDENTIFIER '=' expr IN expr NI"),
		term("LET", "let"), term("IDENTIFIER", "x"), term("'='", "="),
		num("2"), term("IN", "in"), addE, term("NI", "ni"))
	blockE := tree.New(prod("expr -> block"), block)
	return tree.New(prod("main_expr -> expr"), blockE)
}

func allProds(g *ag.Grammar) string {
	var names []string
	for _, p := range g.Prods {
		names = append(names, p.Name)
	}
	return strings.Join(names, "\n")
}

func TestAppendixSpecEvaluates(t *testing.T) {
	res := parseAppendix(t)
	root := buildAppendixTree(t, res.Grammar)

	// Dynamic evaluation.
	d := eval.NewDynamic(res.Grammar, root, eval.Hooks{})
	d.Run()
	if !d.Done() {
		t.Fatalf("blocked: %v", d.Blocked())
	}
	mainExpr := res.Grammar.SymbolNamed("main_expr")
	vi := mainExpr.AttrIndex("value")
	if got := root.Attrs[vi]; got != 7 {
		t.Errorf("dynamic value = %v, want 7 (the appendix's example)", got)
	}

	// Static evaluation must agree.
	a, err := ag.Analyze(res.Grammar)
	if err != nil {
		t.Fatal(err)
	}
	root2 := buildAppendixTree(t, res.Grammar)
	st := eval.NewStatic(a, eval.Hooks{})
	if err := st.EvaluateTree(root2); err != nil {
		t.Fatal(err)
	}
	if got := root2.Attrs[vi]; got != 7 {
		t.Errorf("static value = %v, want 7", got)
	}
}

func TestSpecMatchesHandBuiltGrammar(t *testing.T) {
	// The spec-built grammar must agree with the hand-built exprlang
	// grammar (modulo production order): same split points, same
	// attribute shapes, same analysis phases.
	res := parseAppendix(t)
	l := exprlang.MustNew()
	if got, want := len(res.Grammar.Prods), len(l.G.Prods); got != want {
		t.Errorf("production count %d != exprlang %d", got, want)
	}
	specA, err := ag.Analyze(res.Grammar)
	if err != nil {
		t.Fatal(err)
	}
	handA, err := ag.Analyze(l.G)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"expr", "block", "main_expr"} {
		ss := res.Grammar.SymbolNamed(name)
		hs := l.G.SymbolNamed(name)
		if hs == nil { // exprlang uses main_expr too
			t.Fatalf("exprlang lacks %s", name)
		}
		if specA.NumVisits(ss) != handA.NumVisits(hs) {
			t.Errorf("%s: spec visits %d != hand-built %d", name,
				specA.NumVisits(ss), handA.NumVisits(hs))
		}
	}
}

func TestSpecErrors(t *testing.T) {
	lib := agspec.AppendixLibrary()
	cases := []struct {
		name, src, want string
	}{
		{"missing-sep", "%name A\n", "missing %%"},
		{"unknown-decl", "%frob A\n%%\n", "unknown declaration"},
		{"dup-symbol", "%name A A\n%%\n", "declared twice"},
		{"unknown-start", "%name A\n%start nope\n%%\n", "unknown symbol"},
		{"bad-attr-kind", "%nosplit x : attr v\n%%\n", "syn or inh"},
		{"split-no-size", "%split x : syn value\n%%\n", "bad size"},
		{"split-no-codec", "%split x 10 : syn mystery\n%%\n", "conversion function"},
		{"unknown-fn", "%name N\n%nosplit e : syn value\n%start e\n%%\ne : N\n  $.value = mystery($1.string) ;\n", "unknown semantic function"},
		{"bad-ref", "%name N\n%nosplit e : syn value\n%start e\n%%\ne : N\n  $.value = $x.string ;\n", "bad"},
		{"unknown-rhs", "%nosplit e : syn value\n%start e\n%%\ne : ghost\n", "unknown symbol"},
	}
	for _, tc := range cases {
		_, err := agspec.Parse(tc.src, lib)
		if err == nil {
			t.Errorf("%s: Parse accepted bad spec", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestSpecLiteralArguments(t *testing.T) {
	// Integer and string literals as semantic-function arguments.
	lib := agspec.Library{
		Funcs: map[string]func([]ag.Value) ag.Value{
			"concat": func(a []ag.Value) ag.Value { return a[0].(string) + a[1].(string) },
			"addk":   func(a []ag.Value) ag.Value { return a[0].(int) + a[1].(int) },
		},
	}
	src := `
%name WORD
%nosplit s : syn text, syn n
%start s
%%
s : WORD
  $.text = concat($1.string, '!') ;
  $.n = addk(40, 2) ;
`
	res, err := agspec.Parse(src, lib)
	if err != nil {
		t.Fatal(err)
	}
	word := res.Grammar.SymbolNamed("WORD")
	root := tree.New(res.Grammar.Prods[0], tree.NewTerminal(word, "hi", "hi"))
	d := eval.NewDynamic(res.Grammar, root, eval.Hooks{})
	d.Run()
	s := res.Grammar.SymbolNamed("s")
	if got := root.Attrs[s.AttrIndex("text")]; got != "hi!" {
		t.Errorf("text = %v", got)
	}
	if got := root.Attrs[s.AttrIndex("n")]; got != 42 {
		t.Errorf("n = %v", got)
	}
}

// TestAppendixStabCodecRejectsHostileLength: a name length beyond the
// end of the input is an error, not a panic.
func TestAppendixStabCodecRejectsHostileLength(t *testing.T) {
	stab := agspec.AppendixLibrary().Codecs["stab"]
	if _, err := stab.Decode(binary.AppendUvarint([]byte{1}, math.MaxUint64)); err == nil {
		t.Error("stab decode accepted a name length beyond the input")
	}
	// A wrong-typed value is an encode error, not a panic.
	if _, err := stab.Encode(7); err == nil {
		t.Error("stab codec encoded an int")
	}
	if _, err := agspec.AppendixLibrary().Codecs["value"].Encode(nil); err == nil {
		t.Error("value codec encoded nil")
	}
}
