package aglint

import (
	"fmt"
	"sort"

	"pag/internal/ag"
)

// Check runs every diagnostic pass over g and returns the full report.
// The grammar may come from ag.Builder.BuildUnchecked — incomplete or
// ill-formed grammars are diagnosed, not rejected. Passes that need a
// sound foundation (the dependency fixpoint, the cut advisor) are
// skipped once structural errors make their input meaningless.
func Check(g *ag.Grammar) *Report {
	r := &Report{Grammar: g.Name}
	structuralErrs := r.checkStructure(g)
	r.checkFlow(g)
	r.checkUsage(g)
	if structuralErrs > 0 {
		return r
	}
	res := r.checkDeps(g)
	if res.cycle != nil {
		return r
	}
	// The grammar is structurally sound and acyclic: the real analysis
	// must succeed now; if it still refuses, surface its error verbatim
	// as an ordering failure (defensive — the partition peel cannot
	// stall on an acyclic IDS, but buildPlan is its own judge).
	a, err := ag.Analyze(g)
	if err != nil {
		r.add(Diagnostic{Code: CodeNotOrdered, Severity: Error, Message: err.Error()})
		return r
	}
	r.checkCuts(g, a)
	return r
}

// checkStructure diagnoses everything ag.Grammar.finish would reject,
// plus a few things it cannot see, and returns the number of
// error-severity findings it added.
func (r *Report) checkStructure(g *ag.Grammar) int {
	before := r.Errors()
	seen := map[string]bool{}
	for _, s := range g.Symbols {
		if seen[s.Name] {
			r.add(Diagnostic{Code: CodeBadStructure, Severity: Error, Symbol: s.Name,
				Message: fmt.Sprintf("symbol %s is declared more than once", s.Name)})
		}
		seen[s.Name] = true
		for _, a := range s.Attrs {
			switch a.Kind {
			case ag.Synthesized:
			case ag.Inherited:
				if s.Terminal {
					r.add(Diagnostic{Code: CodeBadStructure, Severity: Error, Symbol: s.Name, Attr: a.Name,
						Message: fmt.Sprintf("terminal %s has inherited attribute %s (scanner-supplied attributes must be synthesized)", s.Name, a.Name)})
				}
			default:
				r.add(Diagnostic{Code: CodeBadStructure, Severity: Error, Symbol: s.Name, Attr: a.Name,
					Message: fmt.Sprintf("attribute %s.%s has invalid kind", s.Name, a.Name)})
			}
			if s.Split && a.Codec == nil {
				r.add(Diagnostic{Code: CodeBadStructure, Severity: Error, Symbol: s.Name, Attr: a.Name,
					Message: fmt.Sprintf("split symbol %s: attribute %s has no conversion function (Codec) for network transmission", s.Name, a.Name)})
			}
		}
	}
	switch {
	case g.Start == nil:
		r.add(Diagnostic{Code: CodeBadStructure, Severity: Error,
			Message: "grammar has no start symbol"})
	case g.Start.Terminal:
		r.add(Diagnostic{Code: CodeBadStructure, Severity: Error, Symbol: g.Start.Name,
			Message: fmt.Sprintf("start symbol %s is a terminal", g.Start.Name)})
	default:
		for _, a := range g.Start.Attrs {
			if a.Kind == ag.Inherited {
				r.add(Diagnostic{Code: CodeBadStructure, Severity: Error, Symbol: g.Start.Name, Attr: a.Name,
					Message: fmt.Sprintf("start symbol %s has inherited attribute %s (nothing above the root can supply it)", g.Start.Name, a.Name)})
			}
		}
	}
	for pi, p := range g.Prods {
		if p.LHS == nil {
			r.add(Diagnostic{Code: CodeBadStructure, Severity: Error,
				Message: fmt.Sprintf("production %d has no left-hand side", pi)})
			continue
		}
		if p.LHS.Terminal {
			r.add(Diagnostic{Code: CodeBadStructure, Severity: Error, Symbol: p.LHS.Name, Production: p.String(),
				Message: fmt.Sprintf("production %s has terminal left-hand side", p)})
		}
		defined := map[ag.AttrRef]bool{}
		for ri := range p.Rules {
			rule := &p.Rules[ri]
			if !refOK(p, rule.Target) {
				r.add(Diagnostic{Code: CodeBadRef, Severity: Error, Production: p.String(),
					Message: fmt.Sprintf("rule %d: target reference (occurrence %d, attribute %d) is out of range", ri, rule.Target.Occ, rule.Target.Attr)})
				continue
			}
			tSym := p.Sym(rule.Target.Occ)
			tAttr := tSym.Attrs[rule.Target.Attr]
			inNormalForm := (rule.Target.Occ == 0 && tAttr.Kind == ag.Synthesized) ||
				(rule.Target.Occ > 0 && tAttr.Kind == ag.Inherited)
			if !inNormalForm {
				r.add(Diagnostic{Code: CodeNotNormalForm, Severity: Error, Symbol: tSym.Name, Attr: tAttr.Name, Production: p.String(),
					Message: fmt.Sprintf("rule defines %s occurrence %d's %s attribute %s: Bochmann normal form allows only LHS-synthesized or RHS-inherited targets",
						tSym.Name, rule.Target.Occ, tAttr.Kind, tAttr.Name)})
			}
			if defined[rule.Target] {
				r.add(Diagnostic{Code: CodeDuplicateRule, Severity: Error, Symbol: tSym.Name, Attr: tAttr.Name, Production: p.String(),
					Message: fmt.Sprintf("%s.%s (occurrence %d) is defined by more than one rule", tSym.Name, tAttr.Name, rule.Target.Occ)})
			}
			defined[rule.Target] = true
			if rule.Eval == nil {
				r.add(Diagnostic{Code: CodeNilEval, Severity: Error, Symbol: tSym.Name, Attr: tAttr.Name, Production: p.String(),
					Message: fmt.Sprintf("rule defining %s.%s has no evaluation function", tSym.Name, tAttr.Name)})
			}
			for di, d := range rule.Deps {
				if !refOK(p, d) {
					r.add(Diagnostic{Code: CodeBadRef, Severity: Error, Production: p.String(),
						Message: fmt.Sprintf("rule %d dependency %d: reference (occurrence %d, attribute %d) is out of range", ri, di, d.Occ, d.Attr)})
				}
			}
		}
		// Completeness: every LHS-synthesized and RHS-inherited
		// occurrence needs a defining rule.
		for occ := 0; occ <= len(p.RHS); occ++ {
			sym := p.Sym(occ)
			if sym == nil {
				continue
			}
			for ai, a := range sym.Attrs {
				want := (occ == 0 && a.Kind == ag.Synthesized) || (occ > 0 && a.Kind == ag.Inherited)
				if !want || defined[ag.AttrRef{Occ: occ, Attr: ai}] {
					continue
				}
				where := sym.Name
				if occ > 0 {
					where = fmt.Sprintf("%s (occurrence %d)", sym.Name, occ)
				}
				r.add(Diagnostic{Code: CodeMissingRule, Severity: Error, Symbol: sym.Name, Attr: a.Name, Production: p.String(),
					Message: fmt.Sprintf("no semantic rule defines %s.%s of %s", sym.Name, a.Name, where)})
			}
		}
	}
	return r.Errors() - before
}

// checkFlow diagnoses context-free liveness: symbols unreachable from
// the start symbol, unproductive symbols (no finite derivation), and
// productions dead for either reason.
func (r *Report) checkFlow(g *ag.Grammar) {
	if g.Start == nil {
		return // structure pass already complained; nothing to walk from
	}
	// Productivity: a terminal is productive; a nonterminal is
	// productive once some production's RHS is entirely productive.
	productive := map[*ag.Symbol]bool{}
	for _, s := range g.Symbols {
		if s.Terminal {
			productive[s] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, p := range g.Prods {
			if p.LHS == nil || productive[p.LHS] {
				continue
			}
			ok := true
			for _, s := range p.RHS {
				if !productive[s] {
					ok = false
					break
				}
			}
			if ok {
				productive[p.LHS] = true
				changed = true
			}
		}
	}
	// Reachability from the start symbol.
	reachable := map[*ag.Symbol]bool{g.Start: true}
	for changed := true; changed; {
		changed = false
		for _, p := range g.Prods {
			if p.LHS == nil || !reachable[p.LHS] {
				continue
			}
			for _, s := range p.RHS {
				if !reachable[s] {
					reachable[s] = true
					changed = true
				}
			}
		}
	}
	for _, s := range g.Symbols {
		if !reachable[s] {
			r.add(Diagnostic{Code: CodeUnreachable, Severity: Warning, Symbol: s.Name,
				Message: fmt.Sprintf("symbol %s is not reachable from start symbol %s", s.Name, g.Start.Name)})
		}
		if !s.Terminal && !productive[s] {
			r.add(Diagnostic{Code: CodeUnproductive, Severity: Warning, Symbol: s.Name,
				Message: fmt.Sprintf("symbol %s can never derive a finite tree (every production recurses)", s.Name)})
		}
	}
	for _, p := range g.Prods {
		if p.LHS == nil {
			continue
		}
		var why string
		switch {
		case !reachable[p.LHS]:
			why = fmt.Sprintf("its left-hand side %s is unreachable", p.LHS.Name)
		default:
			for _, s := range p.RHS {
				if !productive[s] {
					why = fmt.Sprintf("right-hand-side symbol %s is unproductive", s.Name)
					break
				}
			}
		}
		if why != "" {
			r.add(Diagnostic{Code: CodeDeadProd, Severity: Warning, Production: p.String(),
				Message: fmt.Sprintf("production %s can never fire: %s", p, why)})
		}
	}
}

// checkUsage flags attributes no semantic rule ever reads. Synthesized
// attributes of the start symbol are the grammar's outputs and count
// as read; priority attributes are broadcast eagerly but still need a
// reader to justify the traffic.
func (r *Report) checkUsage(g *ag.Grammar) {
	type key struct {
		sym  *ag.Symbol
		attr int
	}
	read := map[key]bool{}
	for _, p := range g.Prods {
		if p.LHS == nil {
			continue
		}
		for ri := range p.Rules {
			for _, d := range p.Rules[ri].Deps {
				if refOK(p, d) {
					read[key{p.Sym(d.Occ), d.Attr}] = true
				}
			}
		}
	}
	if g.Start != nil {
		for ai, a := range g.Start.Attrs {
			if a.Kind == ag.Synthesized {
				read[key{g.Start, ai}] = true
			}
		}
	}
	for _, s := range g.Symbols {
		for ai, a := range s.Attrs {
			if !read[key{s, ai}] {
				r.add(Diagnostic{Code: CodeUnusedAttr, Severity: Warning, Symbol: s.Name, Attr: a.Name,
					Message: fmt.Sprintf("attribute %s.%s is never read by any semantic rule", s.Name, a.Name)})
			}
		}
	}
}

// checkCuts emits decomposition advisories from the grammar's CutPlan:
// a grammar with no split symbol cannot be decomposed at all, and a
// split symbol whose cut cost dwarfs the cheapest alternative makes
// every cut at it expensive — its attribute interface is the
// bottleneck (the paper's §2.5 conversion-cost concern).
func (r *Report) checkCuts(g *ag.Grammar, a *ag.Analysis) {
	cp := a.CutPlan()
	var split []*ag.Symbol
	for _, s := range g.Symbols {
		if s.Split {
			split = append(split, s)
		}
	}
	if len(split) == 0 {
		r.add(Diagnostic{Code: CodeNoSplit, Severity: Advice,
			Message: "no symbol is declared splittable: the tree can never be decomposed for parallel evaluation"})
		return
	}
	sort.Slice(split, func(i, j int) bool { return cp.CutCost(split[i]) < cp.CutCost(split[j]) })
	cheapest := cp.CutCost(split[0])
	for _, s := range split {
		cost := cp.CutCost(s)
		waves := len(cp.Waves(s))
		if len(split) > 1 && cheapest > 0 && cost >= 2*cheapest {
			r.add(Diagnostic{Code: CodeCutBottleneck, Severity: Advice, Symbol: s.Name,
				Message: fmt.Sprintf("cut at %s costs %d (%d attribute messages in %d wave(s)) — %.1fx the cheapest split symbol %s (%d); every cut here pays that traffic",
					s.Name, cost, cp.CutMessages(s), waves, float64(cost)/float64(cheapest), split[0].Name, cheapest)})
			continue
		}
		if waves >= 3 {
			r.add(Diagnostic{Code: CodeCutBottleneck, Severity: Advice, Symbol: s.Name,
				Message: fmt.Sprintf("cut at %s serializes on %d message waves (each wave is a network round trip between fragments)", s.Name, waves)})
		}
	}
}
