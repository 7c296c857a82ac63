package pascal

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"pag/internal/tree"
	"pag/internal/workload"
)

// nestedParens is the shape of the source that once crashed pagd
// (cmd/pagd's TestDeepNestingRejected posts it 4M deep), scaled to
// depth n: an assignment of a constant inside n parentheses.
func nestedParens(n int) string {
	return "program p;\nvar x: integer;\nbegin\n  x := " +
		strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "\nend.\n"
}

// TestParseNestingLimit pins the nesting bound: every recursive
// construct is rejected past maxNesting with a line-numbered error, not
// a stack overflow, and stays accepted well inside it.
func TestParseNestingLimit(t *testing.T) {
	l := MustNew()
	shapes := map[string]func(n int) string{
		"parens": nestedParens,
		"not": func(n int) string {
			return "program p;\nvar b: boolean;\nbegin\n  b := " + strings.Repeat("not ", n) + "true\nend.\n"
		},
		"negation": func(n int) string {
			return "program p;\nvar x: integer;\nbegin\n  x := " + strings.Repeat("- ", n) + "1\nend.\n"
		},
		"compound": func(n int) string {
			return "program p;\nbegin\n" + strings.Repeat("begin ", n) + strings.Repeat("end ", n) + "\nend.\n"
		},
		"if": func(n int) string {
			return "program p;\nbegin\n" + strings.Repeat("if true then ", n) + "writeln(1)\nend.\n"
		},
		"array": func(n int) string {
			return "program p;\nvar a: " + strings.Repeat("array [1..2] of ", n) + "integer;\nbegin\nend.\n"
		},
		"procedure": func(n int) string {
			var b strings.Builder
			b.WriteString("program p;\n")
			for i := 0; i < n; i++ {
				fmt.Fprintf(&b, "procedure q%d;\n", i)
			}
			b.WriteString("begin end")
			b.WriteString(strings.Repeat(";\nbegin end", n))
			b.WriteString(".\n")
			return b.String()
		},
	}
	for name, gen := range shapes {
		if _, err := l.Parse(gen(maxNesting / 2)); err != nil {
			t.Errorf("%s at depth %d: %v", name, maxNesting/2, err)
		}
		_, err := l.Parse(gen(2 * maxNesting))
		if err == nil || !strings.Contains(err.Error(), "nesting deeper than") || !strings.Contains(err.Error(), ": line ") {
			t.Errorf("%s at depth %d: got %v, want a line-numbered nesting error", name, 2*maxNesting, err)
		}
	}
}

// TestParseListBudget pins the bound on the levels lists add to a path
// (tree.MaxListRun): statement lists and sums at the budget parse and
// their trees survive Encode and Decode, as a fleet worker receives
// them; one more element is a line-numbered error.
func TestParseListBudget(t *testing.T) {
	l := MustNew()
	stmts := func(n int) string {
		return "program p;\nvar x: integer;\nbegin\n" + strings.Repeat("x := 1;\n", n-1) + "x := 1\nend.\n"
	}
	sum := func(terms int) string {
		return "program p;\nvar x: integer;\nbegin\n  x := 1" + strings.Repeat("+1", terms-1) + "\nend.\n"
	}
	for name, gen := range map[string]func(int) string{"statements": stmts, "sum": sum} {
		root, err := l.Parse(gen(tree.MaxListRun + 1))
		if err != nil {
			t.Fatalf("%s at the budget: %v", name, err)
		}
		if _, err := tree.Decode(l.G, tree.Encode(root), l.TerminalAttrs); err != nil {
			t.Errorf("%s at the budget: Decode: %v", name, err)
		}
		_, err = l.Parse(gen(tree.MaxListRun + 2))
		if err == nil || !strings.Contains(err.Error(), "lists deeper than 131072 levels") || !strings.Contains(err.Error(), ": line ") {
			t.Errorf("%s over the budget: got %v, want a line-numbered list-depth error", name, err)
		}
	}
}

// TestParseReportsScanErrors pins that a scanning failure is what Parse
// reports whenever the parse runs into it, at the failure's line.
func TestParseReportsScanErrors(t *testing.T) {
	l := MustNew()
	for src, want := range map[string]string{
		"program p;\nbegin\n  x := 1 @ 2\nend.":   `pascal: line 3: unexpected character '@'`,
		"program p;\nbegin\nend.\n{ open":         "pascal: line 4: unterminated { comment",
		"program p;\nbegin\n  writeln('abc\nend.": "pascal: line 3: unterminated string literal",
		"program p;\nbegin\nend. $":               `pascal: line 3: unexpected character '$'`,
	} {
		_, err := l.Parse(src)
		if err == nil || err.Error() != want {
			t.Errorf("Parse(%q) = %v, want %q", src, err, want)
		}
	}
}

// TestParseAllocs guards the slab-built parse: a course program costs
// at most two allocations per terminal leaf (the boxed lexeme
// attribute, and a string literal's text) plus one per slab of nodes,
// attribute slots and child pointers — not several per node — and at
// most 3.5 MB, since interior nodes get no attribute slots (5.2 MB
// when every interior node had them).
func TestParseAllocs(t *testing.T) {
	l := MustNew()
	src := workload.Generate(workload.CourseCompiler())
	root, err := l.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var nodes, terms, slots int
	root.Walk(func(n *tree.Node) {
		nodes++
		slots += len(n.Attrs) + len(n.Children)
		if n.Sym.Terminal {
			terms++
		}
	})
	const slab = 1024 // arena.slabSize
	limit := 2*terms + (nodes+slots)/slab + 16
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := l.Parse(src); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d nodes, %d terminals, %d slots: %.0f allocations (limit %d)", nodes, terms, slots, allocs, limit)
	if allocs > float64(limit) {
		t.Errorf("parsing the course program costs %.0f allocations, want at most %d", allocs, limit)
	}
	const runs, maxBytes = 5, 3_500_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := l.Parse(src); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perParse := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes allocated per parse (limit %d)", perParse, maxBytes)
	if perParse > maxBytes {
		t.Errorf("parsing the course program allocates %d bytes, want at most %d", perParse, maxBytes)
	}
}

// FuzzParse fuzzes the Pascal frontend: Parse must never panic, and a
// tree it accepts must survive the network codec — re-encode to the
// same bytes after Decode, with equal sizes at every node — since every
// tree a compile ships to a fleet worker takes that path.
func FuzzParse(f *testing.F) {
	for _, cfg := range []workload.Config{workload.Tiny(), workload.Small(), workload.CourseCompiler()} {
		f.Add(workload.Generate(cfg))
	}
	f.Add(nestedParens(2 * maxNesting))
	f.Add("program p; begin writeln('it''s', 1 + 2 * 3) end.")
	f.Add("program p; begin end. {")
	l := MustNew()
	f.Fuzz(func(t *testing.T, src string) {
		root, err := l.Parse(src)
		if err != nil {
			return
		}
		enc := tree.Encode(root)
		back, err := tree.Decode(l.G, enc, l.TerminalAttrs)
		if err != nil {
			t.Fatalf("decoding a parsed tree: %v", err)
		}
		if got := tree.Encode(back); !bytes.Equal(got, enc) {
			t.Fatal("parsed tree does not re-encode identically after Decode")
		}
		var sizes func(a, b *tree.Node)
		sizes = func(a, b *tree.Node) {
			if a.Size() != b.Size() {
				t.Fatalf("node %s: size %d, decoded %d", a.Sym, a.Size(), b.Size())
			}
			for i := range a.Children {
				sizes(a.Children[i], b.Children[i])
			}
		}
		sizes(root, back)
	})
}

// TestParseConcurrent parses on one Lang from several goroutines, as
// pagd does: each call builds through its own Builder, so the trees
// are independent and identical to a sequential parse (the race
// detector checks the rest).
func TestParseConcurrent(t *testing.T) {
	l := MustNew()
	src := workload.Generate(workload.Small())
	root, err := l.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	want := tree.Encode(root)
	errs := make(chan error, 4)
	for range 4 {
		go func() {
			for range 5 {
				r, err := l.Parse(src)
				if err == nil && !bytes.Equal(tree.Encode(r), want) {
					err = fmt.Errorf("concurrent parse built a different tree")
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for range 4 {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
