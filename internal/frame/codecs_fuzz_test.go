package frame_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"pag/internal/ag"
	"pag/internal/agspec"
	"pag/internal/eval"
	"pag/internal/exprlang"
	"pag/internal/pascal"
	"pag/internal/tree"
	"pag/internal/workload"
)

// attrCodec is one attribute codec of a grammar, named grammar.attr.
type attrCodec struct {
	name  string
	codec ag.Codec
}

// grammarCodecs lists the codec of every attribute, on any symbol, of
// the Pascal, exprlang and appendix grammars: one entry per grammar and
// attribute name, in declaration order.
func grammarCodecs(t testing.TB) []attrCodec {
	appendix, err := agspec.Parse(agspec.AppendixSpec, agspec.AppendixLibrary())
	if err != nil {
		t.Fatal(err)
	}
	var out []attrCodec
	seen := map[string]bool{}
	for _, g := range []struct {
		name string
		*ag.Grammar
	}{{"pascal", pascal.MustNew().G}, {"exprlang", exprlang.MustNew().G}, {"appendix", appendix.Grammar}} {
		for _, s := range g.Symbols {
			for _, a := range s.Attrs {
				name := g.name + "." + a.Name
				if a.Codec != nil && !seen[name] {
					seen[name] = true
					out = append(out, attrCodec{name, a.Codec})
				}
			}
		}
	}
	return out
}

// attrValues evaluates root and returns every attribute value a codec
// can ship, by attribute name.
func attrValues(t testing.TB, g *ag.Grammar, root *tree.Node) map[string][]ag.Value {
	d := eval.NewDynamic(g, root, eval.Hooks{})
	d.Run()
	if !d.Done() {
		t.Fatal("evaluator blocked")
	}
	vals := map[string][]ag.Value{}
	root.Walk(func(n *tree.Node) {
		for i, a := range n.Sym.Attrs {
			if a.Codec != nil && n.Attrs[i] != nil {
				vals[a.Name] = append(vals[a.Name], n.Attrs[i])
			}
		}
	})
	return vals
}

// codecSeeds encodes real attribute values from compiles: the Tiny and
// Small workload programs and a program with semantic errors for the
// Pascal codecs (env, decl, errs, label, lbase, lused, code), and
// exprlang programs for the expression grammars' int and table codecs,
// one of them holding a value past 2^31 (100000*100000). Each codec
// gets its shortest and its three longest distinct encodings of at most
// 4 KiB, plus the shortest with a trailing zero byte; each int codec also gets the
// trailing-byte and overlong encodings of 1.
func codecSeeds(t testing.TB, codecs []attrCodec) (which []uint8, data [][]byte) {
	p := pascal.MustNew()
	values := map[string][]ag.Value{}
	for _, src := range []string{
		workload.Generate(workload.Tiny()),
		workload.Generate(workload.Small()),
		"program e; procedure p(var a: integer); begin a := b end; begin p(1) end.",
	} {
		root, err := p.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		for name, vs := range attrValues(t, p.G, root) {
			values["pascal."+name] = append(values["pascal."+name], vs...)
		}
	}
	x := exprlang.MustNew()
	for _, src := range []string{
		exprlang.Generate(3, 3),
		exprlang.GenerateNested(4, 2),
		"let x = 100000*100000 in let y = 7 in x + y ni ni",
	} {
		root, err := x.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		for name, vs := range attrValues(t, x.G, root) {
			// The appendix grammar has exprlang's attributes and values.
			values["exprlang."+name] = append(values["exprlang."+name], vs...)
			values["appendix."+name] = append(values["appendix."+name], vs...)
		}
	}
	for i, c := range codecs {
		add := func(b []byte) {
			which = append(which, uint8(i))
			data = append(data, b)
		}
		var kept [][]byte
		for _, v := range values[c.name] {
			b, err := c.codec.Encode(v)
			if err != nil {
				t.Fatalf("%s: encode %v: %v", c.name, v, err)
			}
			if len(b) <= 4<<10 && !slices.ContainsFunc(kept, func(k []byte) bool { return bytes.Equal(k, b) }) {
				kept = append(kept, b)
			}
		}
		if len(kept) == 0 {
			t.Fatalf("%s: no value from the seed compiles", c.name)
		}
		// The shortest and the three longest encodings.
		slices.SortStableFunc(kept, func(a, b []byte) int { return len(a) - len(b) })
		if len(kept) > 4 {
			kept = append(kept[:1], kept[len(kept)-3:]...)
		}
		for _, b := range kept {
			add(b)
		}
		add(append(bytes.Clone(kept[0]), 0))
		if _, err := c.codec.Encode(1); err == nil {
			add([]byte{0x02, 0x99})
			add([]byte{0x82, 0x00})
		}
	}
	return which, data
}

// FuzzCodecs drives every attribute codec of the three grammars with
// the same two rules: decoding never panics, and an accepted input
// re-encodes to the identical bytes, so a decoder accepts exactly what
// its encoder writes.
func FuzzCodecs(f *testing.F) {
	codecs := grammarCodecs(f)
	which, data := codecSeeds(f, codecs)
	for i := range which {
		f.Add(which[i], data[i])
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		c := codecs[int(which)%len(codecs)]
		v, err := c.codec.Decode(data)
		if err != nil {
			return
		}
		back, err := c.codec.Encode(v)
		if err != nil {
			t.Fatalf("%s: decoded %x to %v, which does not encode: %v", c.name, data, v, err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("%s: decoded %x to %s, which encodes to %x", c.name, data, fmt.Sprint(v), back)
		}
	})
}
