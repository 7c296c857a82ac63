package ag

// This file extends the OAG analysis (analysis.go) into a grammar-level
// decomposition plan: for every symbol, what a parse-tree cut at that
// symbol costs in cross-machine attribute messages, and in which waves
// those messages travel. Attribute occurrences are folded into
// *equivalence classes* — attributes of one symbol that become
// available in the same visit travel in the same wave across a cut.
// The splitter does not read the plan (cuts are size-driven, §2.5);
// aglint reports it, ranking each split symbol by cut cost.

// Wave is one round of attribute traffic across a cut: the inherited
// attributes the parent fragment ships down before the visit, and the
// synthesized attributes the child fragment ships up after it. Values
// are attribute indices into Symbol.Attrs.
type Wave struct {
	Inh []int
	Syn []int
}

// cutSym is the per-symbol slice of a CutPlan.
type cutSym struct {
	// waves is the symbol's static wave schedule, in visit order.
	waves    []Wave
	messages int
	cost     int
}

// CutPlan is a grammar-level decomposition plan: per-symbol cut costs
// (how many inherited+synthesized attribute messages a cut at that
// symbol implies), occurrence equivalence classes, and the static wave
// schedule each cut exchanges.
// It is computed once per grammar — with an Analysis when the grammar
// is ordered (exact wave structure), or from the grammar alone in
// dynamic mode (conservative single-wave structure).
type CutPlan struct {
	G *Grammar
	A *Analysis // nil in dynamic mode

	syms []cutSym
}

// NewCutPlan builds the decomposition plan for g. a may be nil (dynamic
// mode); the plan then assumes a single wave per cut. Construction is
// pure and deterministic: the same grammar and analysis always produce
// the same plan.
func NewCutPlan(g *Grammar, a *Analysis) *CutPlan {
	cp := &CutPlan{G: g, A: a, syms: make([]cutSym, len(g.Symbols))}
	for i, s := range g.Symbols {
		cp.syms[i] = buildCutSym(s, a)
	}
	return cp
}

func buildCutSym(s *Symbol, a *Analysis) cutSym {
	n := len(s.Attrs)
	cs := cutSym{messages: n}

	// Visit numbers: from the analysis where available; terminals and
	// dynamic mode collapse to one visit.
	visit := func(ai int) int {
		if a != nil && !s.Terminal {
			if v := a.VisitOf(s, ai); v > 0 {
				return v
			}
		}
		return 1
	}
	maxVisit := 1
	for ai := 0; ai < n; ai++ {
		if v := visit(ai); v > maxVisit {
			maxVisit = v
		}
	}

	// Occurrence equivalence classes: the distinct (kind, visit) pairs.
	type classKey struct {
		kind  AttrKind
		visit int
	}
	// Occurrence equivalence classes: attributes with the same kind and
	// visit number cross a cut in the same wave and are interchangeable
	// for scheduling purposes.
	classes := map[classKey]bool{}
	for ai := 0; ai < n; ai++ {
		classes[classKey{s.Attrs[ai].Kind, visit(ai)}] = true
	}

	// Wave schedule: one wave per visit, inherited attributes shipped
	// down before the visit, synthesized shipped up after it.
	cs.waves = make([]Wave, maxVisit)
	for ai := 0; ai < n; ai++ {
		w := &cs.waves[visit(ai)-1]
		if s.Attrs[ai].Kind == Inherited {
			w.Inh = append(w.Inh, ai)
		} else {
			w.Syn = append(w.Syn, ai)
		}
	}

	// Cut cost: the messages the cut exchanges, plus the number of
	// distinct waves as a latency proxy (each wave is a network round
	// trip between the fragments on either side of the cut).
	cs.cost = cs.messages + len(classes)
	return cs
}

// CutMessages returns how many attribute messages a cut at s implies:
// every inherited attribute crosses downward and every synthesized
// attribute crosses upward, once each.
func (cp *CutPlan) CutMessages(s *Symbol) int { return cp.syms[s.Index].messages }

// CutCost returns the scheduling cost of a cut at s: the message count
// plus the number of occurrence equivalence classes (a proxy for the
// wave round trips the cut serializes on).
func (cp *CutPlan) CutCost(s *Symbol) int { return cp.syms[s.Index].cost }

// Waves returns the static wave schedule of a cut at s, in visit
// order. The returned slice is shared; callers must not mutate it.
func (cp *CutPlan) Waves(s *Symbol) []Wave { return cp.syms[s.Index].waves }

// CutPlan returns the decomposition plan of the analyzed grammar,
// building it on first use. The plan is a pure function of the grammar
// and analysis, so the lazily built value is shared by every caller.
func (a *Analysis) CutPlan() *CutPlan {
	if cp := a.cutPlan.Load(); cp != nil {
		return cp
	}
	a.cutPlan.CompareAndSwap(nil, NewCutPlan(a.G, a))
	return a.cutPlan.Load()
}
