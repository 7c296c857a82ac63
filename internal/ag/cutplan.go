package ag

// This file extends the OAG analysis (analysis.go) into a grammar-level
// decomposition plan: for every symbol, what a parse-tree cut at that
// symbol costs in cross-machine attribute messages, and in which waves
// those messages travel. The parser-side splitter (internal/tree) uses
// the cost to prefer low-traffic cut points; the parallel runtime uses
// the wave structure to prove cached replays earlier (a message whose
// attribute does not transitively depend on a not-yet-validated inbound
// value may be released before the full inbound prefix matches).
//
// The machinery follows the classic compaction of attribute dependency
// relations: attribute occurrences are folded into *equivalence
// classes* (attributes of one symbol that become available in the same
// visit travel in the same wave across a cut), and the transitive
// dependency relation between them is stored as a compacted incidence
// matrix — one machine word per class, one bit per class.

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
	// class[attr] is the attribute's occurrence equivalence class:
	// attributes with the same kind and visit number cross a cut in the
	// same wave and are interchangeable for scheduling purposes.
	class  []int
	nclass int
	// rows is the compacted incidence matrix over classes: bit c' of
	// rows[c] is set when class c may transitively depend on class c'
	// (projected from the IDS closure). A conservative all-ones row
	// means "assume everything depends on everything".
	rows []uint64
	// exact records that rows came from the analysis rather than the
	// conservative fallback (no analysis, or more than 64 classes).
	exact bool
	// waves is the symbol's static wave schedule, in visit order.
	waves    []Wave
	messages int
	cost     int
}

// CutPlan is a grammar-level decomposition plan: per-symbol cut costs
// (how many inherited+synthesized attribute messages a cut at that
// symbol implies), occurrence equivalence classes with a compacted
// incidence matrix, and the static wave schedule each cut exchanges.
// It is computed once per grammar — with an Analysis when the grammar
// is ordered (exact wave structure), or from the grammar alone in
// dynamic mode (conservative single-wave structure).
type CutPlan struct {
	G *Grammar
	A *Analysis // nil in dynamic mode

	syms []cutSym
}

// NewCutPlan builds the decomposition plan for g. a may be nil (dynamic
// mode); the plan then assumes a single wave per cut and no provable
// independence. Construction is pure and deterministic: the same
// grammar and analysis always produce the same plan.
func NewCutPlan(g *Grammar, a *Analysis) *CutPlan {
	cp := &CutPlan{G: g, A: a, syms: make([]cutSym, len(g.Symbols))}
	for i, s := range g.Symbols {
		cp.syms[i] = buildCutSym(s, a)
	}
	return cp
}

func buildCutSym(s *Symbol, a *Analysis) cutSym {
	n := len(s.Attrs)
	cs := cutSym{class: make([]int, n), messages: n}

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

	// Occurrence equivalence classes: (kind, visit) pairs in first-use
	// order over the attribute declaration order, so class numbering is
	// deterministic.
	type classKey struct {
		kind  AttrKind
		visit int
	}
	index := map[classKey]int{}
	for ai := 0; ai < n; ai++ {
		k := classKey{s.Attrs[ai].Kind, visit(ai)}
		ci, ok := index[k]
		if !ok {
			ci = len(index)
			index[k] = ci
		}
		cs.class[ai] = ci
	}
	cs.nclass = len(index)

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

	// Compacted incidence matrix over classes, projected from the IDS
	// transitive closure. Falls back to all-ones (nothing provably
	// independent) without an analysis or past one machine word of
	// classes.
	cs.rows = make([]uint64, cs.nclass)
	if a != nil && cs.nclass <= 64 {
		cs.exact = true
		for c := range cs.rows {
			cs.rows[c] = 1 << uint(c) // a wave trivially depends on itself
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if a.DependsTransitively(s, i, j) {
					cs.rows[cs.class[j]] |= 1 << uint(cs.class[i])
				}
			}
		}
	} else {
		for c := range cs.rows {
			cs.rows[c] = ^uint64(0)
		}
	}

	// Cut cost: the messages the cut exchanges, plus the number of
	// distinct waves as a latency proxy (each wave is a network round
	// trip between the fragments on either side of the cut).
	cs.cost = cs.messages + cs.nclass
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

// Classes returns the number of occurrence equivalence classes of s.
func (cp *CutPlan) Classes(s *Symbol) int { return cp.syms[s.Index].nclass }

// ClassOf returns the occurrence equivalence class of attribute attr
// of s.
func (cp *CutPlan) ClassOf(s *Symbol, attr int) int { return cp.syms[s.Index].class[attr] }

// Waves returns the static wave schedule of a cut at s, in visit
// order. The returned slice is shared; callers must not mutate it.
func (cp *CutPlan) Waves(s *Symbol) []Wave { return cp.syms[s.Index].waves }

// Independent reports whether attribute `to` of s provably does NOT
// depend — in any parse tree, per the IDS closure projected onto
// equivalence classes — on attribute `from` of the same symbol. A true
// result licenses delivering or proving `to` before `from` is known;
// false is the conservative answer (and the only answer in dynamic
// mode).
func (cp *CutPlan) Independent(s *Symbol, from, to int) bool {
	cs := &cp.syms[s.Index]
	return cs.rows[cs.class[to]]&(1<<uint(cs.class[from])) == 0
}

// Exact reports whether the incidence matrix of s came from the
// analysis (exact wave structure) rather than the conservative
// fallback.
func (cp *CutPlan) Exact(s *Symbol) bool { return cp.syms[s.Index].exact }

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
