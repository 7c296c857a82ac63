package ag

import (
	"errors"
	"testing"
)

// binGrammar builds a tiny two-phase grammar:
//
//	root -> node            node.down1 = 1; node.down2 = node.up1 + 1; root.out = node.up2
//	node -> LEAF            node.up1 = node.down1; node.up2 = node.down2
//	node -> node node       threading both phases through the children
//
// node needs two visits: up1 depends on down1, down2 depends on up1 (at
// the parent), up2 depends on down2.
func binGrammar(t *testing.T) (*Grammar, *Symbol, *Symbol) {
	t.Helper()
	b := NewBuilder("two-phase")
	leaf := b.Terminal("LEAF")
	node := b.Nonterminal("node",
		Syn("up1"), Syn("up2"), Inh("down1"), Inh("down2"))
	root := b.Nonterminal("root", Syn("out"))
	b.Start(root)

	add := func(a []Value) Value { return a[0].(int) + a[1].(int) }
	b.Production(root, []*Symbol{node},
		Const("1.down1", 1),
		Def("1.down2", func(a []Value) Value { return a[0].(int) + 1 }, "1.up1"),
		Copy("out", "1.up2"),
	)
	b.Production(node, []*Symbol{leaf},
		Copy("up1", "down1"),
		Copy("up2", "down2"),
	)
	b.Production(node, []*Symbol{node, node},
		Copy("1.down1", "down1"),
		Copy("2.down1", "down1"),
		Def("up1", add, "1.up1", "2.up1"),
		Copy("1.down2", "down2"),
		Copy("2.down2", "down2"),
		Def("up2", add, "1.up2", "2.up2"),
	)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g, node, root
}

// TestCompiledLocations checks where compiled plans put operands:
// single-visit and two-visit productions alike lay their nonterminal
// children's attributes out in their frame, in child order, and read a
// terminal child's values from its node.
func TestCompiledLocations(t *testing.T) {
	g, _, _ := binGrammar(t)
	a, err := Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	for _, p := range g.Prods {
		cp := a.Compiled(p)
		off := make([]int32, len(p.RHS)+1)
		frame := int32(0)
		for occ := 1; occ <= len(p.RHS); occ++ {
			off[occ] = -1
			if sym := p.Sym(occ); !sym.Terminal {
				off[occ] = frame
				frame += int32(len(sym.Attrs))
			}
		}
		if cp.Frame != int(frame) {
			t.Errorf("%s: Frame %d, want %d", p, cp.Frame, frame)
		}
		for _, seg := range cp.Segments {
			for _, op := range seg {
				if op.Rule == nil {
					if want := off[op.Child]; op.Frame != want || op.FrameEnd != want+int32(len(p.Sym(int(op.Child)).Attrs)) {
						t.Errorf("%s: visit(%d,#%d) frame [%d,%d), want it at %d", p, op.Child, op.Visit, op.Frame, op.FrameEnd, want)
					}
					continue
				}
				for k, ref := range append([]AttrRef{op.Rule.Target}, op.Rule.Deps...) {
					l := op.Target
					if k > 0 {
						l = op.Args[k-1]
					}
					var want Loc
					switch {
					case ref.Occ == 0:
						want = Loc{Where: InOwn, Index: int32(ref.Attr)}
					case off[ref.Occ] < 0:
						want = Loc{Where: InChild, Occ: int32(ref.Occ), Index: int32(ref.Attr)}
					default:
						want = Loc{Where: InFrame, Index: off[ref.Occ] + int32(ref.Attr)}
					}
					if l != want {
						t.Errorf("%s: %v lives at %+v, want %+v", p, ref, l, want)
					}
				}
			}
		}
	}
}

func TestAnalyzeTwoPhase(t *testing.T) {
	g, node, root := binGrammar(t)
	a, err := Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if got := a.NumVisits(node); got != 2 {
		t.Fatalf("node visits = %d, want 2 (phases: %+v)", got, a.Phases(node))
	}
	if got := a.NumVisits(root); got != 1 {
		t.Fatalf("root visits = %d, want 1", got)
	}
	up1 := node.AttrIndex("up1")
	up2 := node.AttrIndex("up2")
	down1 := node.AttrIndex("down1")
	down2 := node.AttrIndex("down2")
	if v := a.VisitOf(node, up1); v != 1 {
		t.Errorf("up1 visit = %d, want 1", v)
	}
	if v := a.VisitOf(node, down1); v != 1 {
		t.Errorf("down1 visit = %d, want 1", v)
	}
	if v := a.VisitOf(node, up2); v != 2 {
		t.Errorf("up2 visit = %d, want 2", v)
	}
	if v := a.VisitOf(node, down2); v != 2 {
		t.Errorf("down2 visit = %d, want 2", v)
	}
	if !a.DependsTransitively(node, down1, up1) {
		t.Error("up1 should depend on down1")
	}
	if a.DependsTransitively(node, up2, up1) {
		t.Error("up1 should not depend on up2")
	}
}

func TestAnalyzePlansCoverAllRules(t *testing.T) {
	g, _, _ := binGrammar(t)
	a, err := Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	for _, p := range g.Prods {
		plan := a.Plan(p)
		evals := 0
		for _, seg := range plan.Segments {
			for _, op := range seg {
				if op.Kind == OpEval {
					evals++
				}
			}
		}
		if evals != len(p.Rules) {
			t.Errorf("%s: plan has %d evals, want %d", p, evals, len(p.Rules))
		}
	}
}

func TestAnalyzeVisitSequenceOrder(t *testing.T) {
	g, node, _ := binGrammar(t)
	a, err := Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	// In the binary production, visit 1 must evaluate both children's
	// down1 before visiting them, and up1 after both child visits.
	var p *Production
	for _, q := range g.Prods {
		if q.LHS == node && len(q.RHS) == 2 {
			p = q
		}
	}
	seg := a.Plan(p).Segments[0]
	pos := map[string]int{}
	for i, op := range seg {
		pos[op.String()] = i
	}
	down1 := node.AttrIndex("down1")
	up1 := node.AttrIndex("up1")
	for c := 1; c <= 2; c++ {
		ev := VisitOp{Kind: OpEval, Occ: c, Attr: down1}.String()
		vi := VisitOp{Kind: OpVisit, Child: c, Visit: 1}.String()
		if pos[ev] > pos[vi] {
			t.Errorf("child %d: down1 evaluated at %d after visit at %d", c, pos[ev], pos[vi])
		}
		up := VisitOp{Kind: OpEval, Occ: 0, Attr: up1}.String()
		if pos[up] < pos[vi] {
			t.Errorf("up1 evaluated at %d before child %d visit at %d", pos[up], c, pos[vi])
		}
	}
}

func TestAnalyzeCircular(t *testing.T) {
	b := NewBuilder("circular")
	x := b.Nonterminal("x", Syn("s"), Inh("i"))
	root := b.Nonterminal("root", Syn("out"))
	leaf := b.Terminal("LEAF")
	b.Start(root)
	// root -> x: x.i = x.s  (cycle through the same occurrence)
	b.Production(root, []*Symbol{x},
		Copy("1.i", "1.s"),
		Copy("out", "1.s"),
	)
	b.Production(x, []*Symbol{leaf},
		Copy("s", "i"),
	)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	_, err = Analyze(g)
	var ce *CircularityError
	if !errors.As(err, &ce) {
		t.Fatalf("Analyze err = %v, want CircularityError", err)
	}
}

func TestBuilderRejectsIncompleteness(t *testing.T) {
	b := NewBuilder("incomplete")
	leaf := b.Terminal("LEAF")
	root := b.Nonterminal("root", Syn("out"))
	b.Start(root)
	b.Production(root, []*Symbol{leaf}) // no rule for root.out
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a production that does not define root.out")
	}
}

func TestBuilderRejectsNonNormalForm(t *testing.T) {
	b := NewBuilder("nonnormal")
	leaf := b.Terminal("LEAF")
	root := b.Nonterminal("root", Syn("out"), Inh("in"))
	b.Start(root)
	// Defining the LHS's own inherited attribute is not normal form.
	b.Production(root, []*Symbol{leaf},
		Const("out", 0),
		Const("in", 0),
	)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a rule defining an LHS inherited attribute")
	}
}

func TestBuilderRejectsSplitWithoutCodec(t *testing.T) {
	b := NewBuilder("nocodec")
	leaf := b.Terminal("LEAF")
	root := b.Nonterminal("root", Syn("out"))
	s := b.SplitNonterminal("frag", 10, Syn("v"))
	b.Start(root)
	b.Production(root, []*Symbol{s}, Copy("out", "1.v"))
	b.Production(s, []*Symbol{leaf}, Const("v", 1))
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a split symbol without codecs")
	}
}

func TestNotOrderedDetected(t *testing.T) {
	// Classic non-ordered but noncircular situation: two attribute
	// pairs whose required orders conflict between productions, so no
	// single total order per symbol works.
	b := NewBuilder("notordered")
	leaf := b.Terminal("LEAF")
	x := b.Nonterminal("x", Syn("s1"), Syn("s2"), Inh("i1"), Inh("i2"))
	root := b.Nonterminal("root", Syn("out"))
	b.Start(root)
	add := func(a []Value) Value { return a[0] }
	// In production A, x.i2 depends on x.s1 (order: i1 -> s1 -> i2 -> s2).
	b.Production(root, []*Symbol{x, leaf},
		Const("1.i1", 0),
		Def("1.i2", add, "1.s1"),
		Copy("out", "1.s2"),
	)
	// In production B, x.i1 depends on x.s2 (order: i2 -> s2 -> i1 -> s1).
	b.Production(root, []*Symbol{leaf, x},
		Const("2.i2", 0),
		Def("2.i1", add, "2.s2"),
		Copy("out", "2.s1"),
	)
	b.Production(x, []*Symbol{leaf},
		Copy("s1", "i1"),
		Copy("s2", "i2"),
	)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	_, err = Analyze(g)
	var ne *NotOrderedError
	var ce *CircularityError
	if !errors.As(err, &ne) && !errors.As(err, &ce) {
		t.Fatalf("Analyze err = %v, want NotOrderedError or CircularityError", err)
	}
}
