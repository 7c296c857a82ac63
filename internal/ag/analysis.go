package ag

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// rel is a dense dependency relation over n items: rel[i][j] means
// "j depends on i" (i must be evaluated before j).
type rel [][]bool

func newRel(n int) rel {
	r := make(rel, n)
	for i := range r {
		r[i] = make([]bool, n)
	}
	return r
}

func (r rel) add(i, j int) bool {
	if r[i][j] {
		return false
	}
	r[i][j] = true
	return true
}

// close computes the transitive closure in place (Floyd–Warshall).
func (r rel) close() {
	n := len(r)
	for k := 0; k < n; k++ {
		rk := r[k]
		for i := 0; i < n; i++ {
			if !r[i][k] {
				continue
			}
			ri := r[i]
			for j := 0; j < n; j++ {
				if rk[j] {
					ri[j] = true
				}
			}
		}
	}
}

func (r rel) hasCycle() (int, bool) {
	for i := range r {
		if r[i][i] {
			return i, true
		}
	}
	return 0, false
}

// prodGraph indexes the attribute occurrences of a production as a flat
// range: occurrence occ's attribute a is node occBase[occ]+a.
type prodGraph struct {
	p       *Production
	occBase []int
	n       int
	dep     rel // direct + induced dependencies (IDP)
}

func newProdGraph(p *Production) *prodGraph {
	g := &prodGraph{p: p}
	g.occBase = make([]int, 1+len(p.RHS))
	n := 0
	for occ := 0; occ <= len(p.RHS); occ++ {
		g.occBase[occ] = n
		n += len(p.Sym(occ).Attrs)
	}
	g.n = n
	g.dep = newRel(n)
	for _, r := range p.Rules {
		t := g.occBase[r.Target.Occ] + r.Target.Attr
		for _, d := range r.Deps {
			g.dep.add(g.occBase[d.Occ]+d.Attr, t)
		}
	}
	return g
}

func (g *prodGraph) node(occ, attr int) int { return g.occBase[occ] + attr }

// CircularityError reports that the IDP closure of a production
// contains a cycle, so the grammar is not (strongly) noncircular and
// neither the static nor the combined evaluator can be generated.
type CircularityError struct {
	Prod *Production
	Sym  *Symbol
	Attr string
	// Witness, when set, is the complete dependency cycle — one edge
	// per line, naming occurrences, attributes and the productions the
	// edges travel through. Analyze leaves it empty; internal/aglint's
	// Enrich fills it in (the witness search is a diagnostics concern,
	// not an analysis one). errors.As call sites are unaffected.
	Witness []string
}

func (e *CircularityError) Error() string {
	msg := fmt.Sprintf("ag: grammar is circular: %s.%s depends on itself via production %s",
		e.Sym.Name, e.Attr, e.Prod)
	return appendWitness(msg, e.Witness)
}

// NotOrderedError reports that a symbol's attributes cannot be
// partitioned into alternating visit phases, i.e. the grammar is
// noncircular but not an ordered attribute grammar in Kastens' sense.
// The paper's static and combined evaluators require ordered grammars;
// the dynamic evaluator still handles such grammars (paper §4.1's
// caveat that dynamic evaluators accept a wider class).
type NotOrderedError struct {
	Sym     *Symbol
	Pending []string
	// Witness, when set, names the conflicting partition assignments
	// that wedge the alternating peel (filled by aglint.Enrich; see
	// CircularityError.Witness).
	Witness []string
}

func (e *NotOrderedError) Error() string {
	msg := fmt.Sprintf("ag: grammar is not ordered: attributes %v of %s cannot be placed in alternating visit phases",
		e.Pending, e.Sym.Name)
	return appendWitness(msg, e.Witness)
}

// appendWitness folds an aglint-computed witness into an error string:
// one "; "-joined clause per dependency edge, so the one-line message
// stays grep-able while carrying the full path.
func appendWitness(msg string, witness []string) string {
	if len(witness) == 0 {
		return msg
	}
	return msg + " [" + strings.Join(witness, "; ") + "]"
}

// Phase is one visit phase of a symbol: the inherited attributes the
// parent must supply before the visit and the synthesized attributes
// guaranteed available when the visit returns. Attribute values are
// attribute indices into Symbol.Attrs.
type Phase struct {
	Inh []int
	Syn []int
}

// OpKind discriminates visit-sequence operations.
type OpKind int

// Visit-sequence operation kinds.
const (
	OpEval  OpKind = iota + 1 // evaluate the rule defining (Occ, Attr)
	OpVisit                   // perform visit number Visit on child Child
)

// VisitOp is one step of a visit sequence.
type VisitOp struct {
	Kind OpKind
	// For OpEval: the defined occurrence.
	Occ, Attr int
	// For OpVisit: Child is the RHS occurrence (1-based), Visit the
	// child visit number (1-based).
	Child, Visit int
}

func (o VisitOp) String() string {
	if o.Kind == OpEval {
		return fmt.Sprintf("eval(%d.%d)", o.Occ, o.Attr)
	}
	return fmt.Sprintf("visit(%d,#%d)", o.Child, o.Visit)
}

// Plan is the static evaluation plan of one production: Segments[v-1]
// holds the operations of the production's own visit v.
type Plan struct {
	Prod     *Production
	Segments [][]VisitOp
}

// Where names the storage that holds an attribute occurrence while
// the static evaluator runs a visit of the production (see Loc).
type Where uint8

// Storage kinds of an attribute occurrence during a static visit.
const (
	// InOwn: the visited node's own attributes (occurrence 0), wherever
	// the caller keeps them.
	InOwn Where = iota
	// InFrame: the production's frame. Its nonterminal children's
	// instances sit side by side there, in the evaluator's storage
	// instead of the tree, for as long as the production's visits run
	// (Kastens' attribute lifetimes).
	InFrame
	// InChild: a terminal child's scanner value, in its node slots.
	InChild
)

// Loc is where the static evaluator reads or writes one attribute
// occurrence of a production: Index is the attribute index for InOwn
// and InChild (with Occ the 1-based child occurrence) and the slot in
// the visit's frame for InFrame.
type Loc struct {
	Where Where
	Occ   int32
	Index int32
}

// CompiledOp is one fully resolved step of a compiled visit sequence.
// For an eval op, Rule points directly at the defining rule, so the
// static evaluator's inner loop performs no RuleFor table lookups, and
// Target and Args (one per rule dependency) say where the defined
// occurrence and the rule's operands live. For a visit op, Rule is
// nil, Child/Visit carry the (1-based) child occurrence and child
// visit number, and the child's attributes are frame slots
// [Frame, FrameEnd), or its node slots when Frame is -1.
type CompiledOp struct {
	Rule            *Rule
	Target          Loc
	Args            []Loc
	Child, Visit    int32
	Frame, FrameEnd int32
}

// CompiledPlan is the compiled form of a production's visit sequence:
// the same segments as Plan, with every operation resolved to rule
// pointers and operand locations. It is built once per production
// during Analyze and shared by every evaluator instance, so
// oversubscribed parallel runs never recompute (or re-resolve)
// identical plans per fragment.
//
// Frame is the number of frame slots the production needs: the
// attributes of its nonterminal children. A production of one visit
// holds its frame only while that visit runs; one of several visits
// holds it from the first visit to the last.
type CompiledPlan struct {
	Prod     *Production
	Segments [][]CompiledOp
	Frame    int
}

// Analysis is the result of the OAG analysis of a grammar: the
// attribute dependency summaries, visit phases per symbol, and visit
// sequences (plans) per production. It is computed once per grammar
// ("a prepass over the grammar", paper §2.3) and shared by every
// static and combined evaluator instance.
type Analysis struct {
	G *Grammar
	// phases[sym.Index] lists the visit phases of each nonterminal;
	// every nonterminal has at least one phase.
	phases [][]Phase
	// visitOf[sym.Index][attr] is the 1-based visit number in which the
	// attribute is available (inherited: supplied before that visit;
	// synthesized: available after it).
	visitOf [][]int
	// plans[prod.Index] is the production's visit sequence.
	plans []*Plan
	// compiled[prod.Index] is the rule-resolved form of the plan.
	compiled []*CompiledPlan
	// ds[sym.Index] is the transitive induced dependency relation
	// between the symbol's attributes (IDS closure).
	ds []rel
	// cutPlan caches the lazily built grammar-level decomposition plan
	// (cutplan.go); it is a pure function of (G, a), so first-build
	// wins and every caller shares it.
	cutPlan atomic.Pointer[CutPlan]
}

// Phases returns the visit phases of sym.
func (a *Analysis) Phases(sym *Symbol) []Phase { return a.phases[sym.Index] }

// NumVisits returns how many visits sym requires.
func (a *Analysis) NumVisits(sym *Symbol) int { return len(a.phases[sym.Index]) }

// VisitOf returns the 1-based visit number in which attribute attr of
// sym becomes available.
func (a *Analysis) VisitOf(sym *Symbol, attr int) int { return a.visitOf[sym.Index][attr] }

// Plan returns the visit sequence of production p.
func (a *Analysis) Plan(p *Production) *Plan { return a.plans[p.Index] }

// Compiled returns the compiled (rule-resolved) visit sequence of
// production p.
func (a *Analysis) Compiled(p *Production) *CompiledPlan { return a.compiled[p.Index] }

// compilePlan resolves every eval op of plan to its rule pointer and
// every occurrence to its storage: the production lays its nonterminal
// children's attributes out in its frame, in child order.
func compilePlan(plan *Plan) *CompiledPlan {
	p := plan.Prod
	cp := &CompiledPlan{Prod: p, Segments: make([][]CompiledOp, len(plan.Segments))}
	frameOff := make([]int32, len(p.RHS)+1) // per occurrence; -1: a terminal
	for occ := 1; occ <= len(p.RHS); occ++ {
		frameOff[occ] = -1
		if sym := p.Sym(occ); !sym.Terminal {
			frameOff[occ] = int32(cp.Frame)
			cp.Frame += len(sym.Attrs)
		}
	}
	loc := func(r AttrRef) Loc {
		switch {
		case r.Occ == 0:
			return Loc{Where: InOwn, Index: int32(r.Attr)}
		case frameOff[r.Occ] >= 0:
			return Loc{Where: InFrame, Index: frameOff[r.Occ] + int32(r.Attr)}
		default:
			return Loc{Where: InChild, Occ: int32(r.Occ), Index: int32(r.Attr)}
		}
	}
	for v, seg := range plan.Segments {
		if len(seg) == 0 {
			continue
		}
		ops := make([]CompiledOp, len(seg))
		for i, op := range seg {
			switch op.Kind {
			case OpEval:
				r := p.RuleFor(op.Occ, op.Attr)
				args := make([]Loc, len(r.Deps))
				for k, d := range r.Deps {
					args[k] = loc(d)
				}
				ops[i] = CompiledOp{Rule: r, Target: loc(AttrRef{Occ: op.Occ, Attr: op.Attr}), Args: args}
			default:
				off := frameOff[op.Child]
				ops[i] = CompiledOp{Child: int32(op.Child), Visit: int32(op.Visit), Frame: off,
					FrameEnd: off + int32(len(p.Sym(op.Child).Attrs))}
			}
		}
		cp.Segments[v] = ops
	}
	return cp
}

// DependsTransitively reports whether attribute b of sym transitively
// depends on attribute a in some parse tree (per the IDS fixpoint).
func (a *Analysis) DependsTransitively(sym *Symbol, from, to int) bool {
	r := a.ds[sym.Index]
	if r == nil {
		return false
	}
	return r[from][to]
}

// Analyze runs the complete OAG analysis: IDP/IDS fixpoint and
// circularity test, visit-phase partitioning, and visit-sequence
// construction. It fails with *CircularityError or *NotOrderedError
// for grammars outside the ordered class.
func Analyze(g *Grammar) (*Analysis, error) {
	a := &Analysis{G: g}

	// --- IDP / IDS fixpoint -------------------------------------------
	ids := make([]rel, len(g.Symbols))
	for i, s := range g.Symbols {
		ids[i] = newRel(len(s.Attrs))
	}
	graphs := make([]*prodGraph, len(g.Prods))
	for i, p := range g.Prods {
		graphs[i] = newProdGraph(p)
	}
	for changed := true; changed; {
		changed = false
		for _, pg := range graphs {
			p := pg.p
			// Inject current IDS of every occurrence.
			for occ := 0; occ <= len(p.RHS); occ++ {
				sr := ids[p.Sym(occ).Index]
				base := pg.occBase[occ]
				for i := range sr {
					for j := range sr {
						if sr[i][j] && pg.dep.add(base+i, base+j) {
							changed = true
						}
					}
				}
			}
			pg.dep.close()
			if n, cyc := pg.dep.hasCycle(); cyc {
				occ, attr := pg.locate(n)
				sym := p.Sym(occ)
				return nil, &CircularityError{Prod: p, Sym: sym, Attr: sym.Attrs[attr].Name}
			}
			// Project closure back onto symbols.
			for occ := 0; occ <= len(p.RHS); occ++ {
				sym := p.Sym(occ)
				sr := ids[sym.Index]
				base := pg.occBase[occ]
				for i := range sr {
					for j := range sr {
						if i != j && pg.dep[base+i][base+j] && sr.add(i, j) {
							changed = true
						}
					}
				}
			}
		}
	}
	a.ds = make([]rel, len(g.Symbols))
	for i := range ids {
		ids[i].close()
		a.ds[i] = ids[i]
	}

	// --- Visit-phase partitioning (Kastens) ---------------------------
	a.phases = make([][]Phase, len(g.Symbols))
	a.visitOf = make([][]int, len(g.Symbols))
	for si, s := range g.Symbols {
		if s.Terminal {
			// Terminal attributes are preset by the scanner; they need
			// no visits and are always available.
			a.visitOf[si] = make([]int, len(s.Attrs))
			continue
		}
		phases, visitOf, err := partition(s, a.ds[si])
		if err != nil {
			return nil, err
		}
		a.phases[si] = phases
		a.visitOf[si] = visitOf
	}

	// --- Visit sequences per production --------------------------------
	a.plans = make([]*Plan, len(g.Prods))
	a.compiled = make([]*CompiledPlan, len(g.Prods))
	for pi, p := range g.Prods {
		plan, err := a.buildPlan(p, graphs[pi])
		if err != nil {
			return nil, err
		}
		a.plans[pi] = plan
		a.compiled[pi] = compilePlan(plan)
	}
	return a, nil
}

func (g *prodGraph) locate(node int) (occ, attr int) {
	occ = 0
	for o := 0; o < len(g.occBase); o++ {
		if g.occBase[o] <= node {
			occ = o
		}
	}
	return occ, node - g.occBase[occ]
}

// partition peels the symbol's attributes from the last visit backwards
// into alternating synthesized/inherited sets, then folds them into
// (inherited, synthesized) phases in evaluation order.
func partition(s *Symbol, ds rel) ([]Phase, []int, error) {
	n := len(s.Attrs)
	pending := make([]bool, n)
	left := n
	for i := range pending {
		pending[i] = true
	}
	// peeled[0] is evaluated last.
	var peeled [][]int
	wantSyn := true
	emptyRun := 0
	for left > 0 {
		var set []int
		for i := 0; i < n; i++ {
			if !pending[i] {
				continue
			}
			isSyn := s.Attrs[i].Kind == Synthesized
			if isSyn != wantSyn {
				continue
			}
			blocked := false
			for j := 0; j < n; j++ {
				if j != i && pending[j] && ds[i][j] {
					blocked = true
					break
				}
			}
			if !blocked {
				set = append(set, i)
			}
		}
		if len(set) == 0 {
			emptyRun++
			if emptyRun >= 2 {
				var names []string
				for i := 0; i < n; i++ {
					if pending[i] {
						names = append(names, s.Attrs[i].Name)
					}
				}
				sort.Strings(names)
				return nil, nil, &NotOrderedError{Sym: s, Pending: names}
			}
		} else {
			emptyRun = 0
			for _, i := range set {
				pending[i] = false
			}
			left -= len(set)
		}
		peeled = append(peeled, set)
		wantSyn = !wantSyn
	}
	// Drop trailing empty peels, then pair up in evaluation order:
	// peeled is [last-evaluated ... first-evaluated], alternating
	// syn, inh, syn, inh, ... Reverse and group into (inh, syn) phases.
	for len(peeled) > 0 && len(peeled[len(peeled)-1]) == 0 {
		peeled = peeled[:len(peeled)-1]
	}
	var phases []Phase
	// After reversal the order alternates ... inh, syn, inh, syn with a
	// syn set at the end. Walk from the back of peeled (= start of
	// evaluation) pairing inh with the following syn.
	i := len(peeled) - 1
	for i >= 0 {
		var ph Phase
		// peeled index parity: even indices are synthesized sets (the
		// peel alternated starting with synthesized at index 0).
		if i%2 == 1 { // inherited set
			ph.Inh = peeled[i]
			i--
		}
		if i >= 0 { // matching synthesized set
			ph.Syn = peeled[i]
			i--
		}
		phases = append(phases, ph)
	}
	if len(phases) == 0 {
		phases = []Phase{{}} // every nonterminal gets at least one visit
	}
	visitOf := make([]int, n)
	for v, ph := range phases {
		for _, ai := range ph.Inh {
			visitOf[ai] = v + 1
		}
		for _, ai := range ph.Syn {
			visitOf[ai] = v + 1
		}
	}
	return phases, visitOf, nil
}

// buildPlan linearizes the production's actions into visit segments by
// greedy topological scheduling: evaluation and child-visit actions are
// emitted as early as their dependencies allow; segment boundaries are
// emitted only when no other action is ready.
func (a *Analysis) buildPlan(p *Production, pg *prodGraph) (*Plan, error) {
	type action struct {
		op    VisitOp
		isEnd bool
		endV  int
	}
	var actions []action
	idx := map[string]int{}
	add := func(key string, act action) int {
		if i, ok := idx[key]; ok {
			return i
		}
		actions = append(actions, act)
		idx[key] = len(actions) - 1
		return len(actions) - 1
	}
	evalKey := func(occ, attr int) string { return fmt.Sprintf("e%d.%d", occ, attr) }
	visitKey := func(c, v int) string { return fmt.Sprintf("v%d.%d", c, v) }
	endKey := func(v int) string { return fmt.Sprintf("end%d", v) }

	mOwn := a.NumVisits(p.LHS)
	for v := 1; v <= mOwn; v++ {
		add(endKey(v), action{isEnd: true, endV: v})
	}
	// EVAL actions for every defined occurrence.
	for occ := 0; occ <= len(p.RHS); occ++ {
		sym := p.Sym(occ)
		for ai := range sym.Attrs {
			if p.RuleFor(occ, ai) != nil {
				add(evalKey(occ, ai), action{op: VisitOp{Kind: OpEval, Occ: occ, Attr: ai}})
			}
		}
	}
	// VISIT actions for every nonterminal child and child visit.
	for c := 1; c <= len(p.RHS); c++ {
		child := p.Sym(c)
		if child.Terminal {
			continue
		}
		for v := 1; v <= a.NumVisits(child); v++ {
			add(visitKey(c, v), action{op: VisitOp{Kind: OpVisit, Child: c, Visit: v}})
		}
	}

	nA := len(actions)
	succ := make([][]int, nA)
	indeg := make([]int, nA)
	edge := func(from, to int) {
		succ[from] = append(succ[from], to)
		indeg[to]++
	}
	mustIdx := func(key string) int {
		i, ok := idx[key]
		if !ok {
			panic("ag: internal: missing action " + key)
		}
		return i
	}

	// Segment ordering.
	for v := 1; v < mOwn; v++ {
		edge(mustIdx(endKey(v)), mustIdx(endKey(v+1)))
	}
	// Rule dependencies.
	for occ := 0; occ <= len(p.RHS); occ++ {
		sym := p.Sym(occ)
		for ai := range sym.Attrs {
			r := p.RuleFor(occ, ai)
			if r == nil {
				continue
			}
			t := mustIdx(evalKey(occ, ai))
			for _, d := range r.Deps {
				dSym := p.Sym(d.Occ)
				dAttr := dSym.Attrs[d.Attr]
				switch {
				case dSym.Terminal:
					// Scanner-supplied: always available.
				case d.Occ == 0 && dAttr.Kind == Inherited:
					// Available at the start of own visit w.
					w := a.VisitOf(p.LHS, d.Attr)
					if w > 1 {
						edge(mustIdx(endKey(w-1)), t)
					}
				case d.Occ > 0 && dAttr.Kind == Synthesized:
					// Produced by child visit w.
					w := a.VisitOf(dSym, d.Attr)
					edge(mustIdx(visitKey(d.Occ, w)), t)
				default:
					// Defined occurrence within this production.
					edge(mustIdx(evalKey(d.Occ, d.Attr)), t)
				}
			}
			if occ == 0 {
				// LHS synthesized attributes must be ready by the end
				// of their own visit.
				w := a.VisitOf(p.LHS, ai)
				edge(t, mustIdx(endKey(w)))
			}
		}
	}
	// Child visits: need the child's inherited phase, follow the
	// previous visit, and must complete before the production is done.
	for c := 1; c <= len(p.RHS); c++ {
		child := p.Sym(c)
		if child.Terminal {
			continue
		}
		for v := 1; v <= a.NumVisits(child); v++ {
			vi := mustIdx(visitKey(c, v))
			for _, ai := range a.Phases(child)[v-1].Inh {
				if p.RuleFor(c, ai) != nil {
					edge(mustIdx(evalKey(c, ai)), vi)
				}
			}
			if v > 1 {
				edge(mustIdx(visitKey(c, v-1)), vi)
			}
			edge(vi, mustIdx(endKey(mOwn)))
		}
	}

	// Greedy Kahn: plain actions first, segment ends only when forced.
	var readyOps, readyEnds []int
	enqueue := func(i int) {
		if actions[i].isEnd {
			readyEnds = append(readyEnds, i)
		} else {
			readyOps = append(readyOps, i)
		}
	}
	for i := 0; i < nA; i++ {
		if indeg[i] == 0 {
			enqueue(i)
		}
	}
	plan := &Plan{Prod: p, Segments: make([][]VisitOp, mOwn)}
	seg := 0
	scheduled := 0
	for scheduled < nA {
		var i int
		if len(readyOps) > 0 {
			i = readyOps[0]
			readyOps = readyOps[1:]
		} else if len(readyEnds) > 0 {
			i = readyEnds[0]
			readyEnds = readyEnds[1:]
		} else {
			return nil, fmt.Errorf("ag: internal: cannot order production %s (grammar accepted by partitioning but plan has a cycle)", p)
		}
		scheduled++
		if actions[i].isEnd {
			seg = actions[i].endV
		} else {
			plan.Segments[seg] = append(plan.Segments[seg], actions[i].op)
		}
		for _, s := range succ[i] {
			indeg[s]--
			if indeg[s] == 0 {
				enqueue(s)
			}
		}
	}
	return plan, nil
}
