// Package ag implements the attribute-grammar model and static analysis
// at the heart of Boehm & Zwaenepoel's parallel attribute grammar
// evaluator (ICDCS 1987).
//
// A Grammar is a set of Symbols (terminals and nonterminals), each
// carrying typed Attributes, and a set of Productions, each carrying
// Semantic Rules. Rules are pure functions: the value of a defined
// attribute occurrence is computed from other attribute occurrences of
// the same production. This purity is what makes evaluation order
// flexible and parallel evaluation cheap to synchronize (paper §2.2).
//
// The package also implements the static analysis of Kastens' ordered
// attribute grammars (OAG): the IDP/IDS dependency fixpoint, the
// circularity test, the partition of each symbol's attributes into
// alternating inherited/synthesized visit phases, and per-production
// visit sequences. These artifacts drive the static evaluator and the
// static-subtree interfaces of the combined evaluator (paper §2.3–2.4).
package ag

import (
	"fmt"
	"time"
)

// AttrKind distinguishes synthesized from inherited attributes.
type AttrKind int

// Attribute kinds. Enums start at 1 so the zero value is invalid.
const (
	Synthesized AttrKind = iota + 1
	Inherited
)

func (k AttrKind) String() string {
	switch k {
	case Synthesized:
		return "syn"
	case Inherited:
		return "inh"
	default:
		return fmt.Sprintf("AttrKind(%d)", int(k))
	}
}

// Value is the runtime value of an attribute instance. Semantic rules
// are untyped at the Go level; grammars attach their own invariants.
// It is an alias so codecs may be written against plain `any`.
type Value = any

// Codec converts attribute values to and from a contiguous byte
// representation suitable for transmission over a network. The paper
// (§2.5) requires such conversion functions for every attribute of a
// nonterminal at which the parse tree may be split (the st_put/st_get
// functions of the appendix grammar).
type Codec interface {
	Encode(v Value) ([]byte, error)
	Decode(data []byte) (Value, error)
}

// CostFn models the simulated CPU cost of evaluating one semantic rule
// given its argument values. It lets grammars express data-dependent
// costs (e.g. O(log n) symbol-table updates, O(1) rope concatenation)
// on the simulated 1987-era hardware. A nil CostFn means DefaultRuleCost.
type CostFn func(args []Value) time.Duration

// DefaultRuleCost is the simulated cost of a semantic rule that does
// not declare its own cost function: a handful of list/arithmetic
// operations on a ~1 MIPS machine.
const DefaultRuleCost = 40 * time.Microsecond

// Attribute describes one attribute of a symbol.
type Attribute struct {
	Name string
	Kind AttrKind
	// Priority marks the attribute for eager evaluation and immediate
	// propagation to other evaluators (paper §4.3: the global symbol
	// table is a priority attribute).
	Priority bool
	// Codec is required for attributes of splittable nonterminals; it
	// serializes values crossing machine boundaries.
	Codec Codec
}

// Symbol is a terminal or nonterminal of the grammar.
type Symbol struct {
	Name     string
	Terminal bool
	// Index is the symbol's position in Grammar.Symbols.
	Index int
	Attrs []Attribute

	// Split marks nonterminals that may root a separately processed
	// subtree (the `split` declaration of the appendix grammar).
	Split bool
	// MinSplitSize is the minimum linearized size, in bytes, of a
	// subtree rooted here that is worth shipping to another evaluator.
	// The parser scales it by a runtime granularity argument.
	MinSplitSize int

	synIdx, inhIdx []int // attribute indices by kind, in declaration order
}

// AttrIndex returns the index of the named attribute, or -1.
func (s *Symbol) AttrIndex(name string) int {
	for i := range s.Attrs {
		if s.Attrs[i].Name == name {
			return i
		}
	}
	return -1
}

// Syn returns the indices of the synthesized attributes.
func (s *Symbol) Syn() []int { return s.synIdx }

// Inh returns the indices of the inherited attributes.
func (s *Symbol) Inh() []int { return s.inhIdx }

func (s *Symbol) String() string { return s.Name }

// AttrRef names an attribute occurrence within a production: Occ 0 is
// the left-hand side, Occ k (k ≥ 1) is the k-th right-hand-side symbol.
type AttrRef struct {
	Occ  int
	Attr int
}

// Rule is a semantic rule: Target := Eval(Deps...). Targets must be in
// Bochmann normal form: a synthesized attribute of the LHS or an
// inherited attribute of an RHS symbol.
type Rule struct {
	Target AttrRef
	Deps   []AttrRef
	// Eval computes the target value from the dependency values, in
	// Deps order. It must be a pure function (paper §2.2).
	Eval func(args []Value) Value
	// Cost models simulated CPU time; nil means DefaultRuleCost.
	Cost CostFn
}

// SimCost returns the simulated cost of evaluating the rule on args.
func (r *Rule) SimCost(args []Value) time.Duration {
	if r.Cost == nil {
		return DefaultRuleCost
	}
	return r.Cost(args)
}

// Production is a context-free production with attached semantic rules.
type Production struct {
	Index int
	Name  string // diagnostic label, e.g. "expr -> expr + expr"
	LHS   *Symbol
	RHS   []*Symbol
	Rules []Rule

	// ruleFor[occ][attr] is the index into Rules defining that
	// occurrence, or -1. Built by Grammar.finish.
	ruleFor [][]int
}

// Sym returns the symbol at occurrence occ (0 = LHS).
func (p *Production) Sym(occ int) *Symbol {
	if occ == 0 {
		return p.LHS
	}
	return p.RHS[occ-1]
}

// RuleFor returns the rule defining the given occurrence, or nil.
func (p *Production) RuleFor(occ, attr int) *Rule {
	if p.ruleFor == nil || occ >= len(p.ruleFor) || attr >= len(p.ruleFor[occ]) {
		return nil
	}
	i := p.ruleFor[occ][attr]
	if i < 0 {
		return nil
	}
	return &p.Rules[i]
}

func (p *Production) String() string {
	if p.Name != "" {
		return p.Name
	}
	s := p.LHS.Name + " ->"
	for _, r := range p.RHS {
		s += " " + r.Name
	}
	return s
}

// Grammar is a complete attribute grammar.
type Grammar struct {
	Name    string
	Symbols []*Symbol
	Prods   []*Production
	Start   *Symbol

	byName  map[string]*Symbol
	maxArgs int
}

// MaxRuleArgs returns the largest dependency count of any rule in the
// grammar. Evaluators size their scratch argument buffers from it once,
// so the evaluation loop never allocates per rule application.
func (g *Grammar) MaxRuleArgs() int { return g.maxArgs }

// SymbolNamed returns the symbol with the given name, or nil.
func (g *Grammar) SymbolNamed(name string) *Symbol { return g.byName[name] }

// finish computes derived tables and validates structural invariants.
func (g *Grammar) finish() error {
	g.byName = make(map[string]*Symbol, len(g.Symbols))
	for i, s := range g.Symbols {
		s.Index = i
		if _, dup := g.byName[s.Name]; dup {
			return fmt.Errorf("ag: duplicate symbol %q", s.Name)
		}
		g.byName[s.Name] = s
		s.synIdx = s.synIdx[:0]
		s.inhIdx = s.inhIdx[:0]
		for ai, a := range s.Attrs {
			switch a.Kind {
			case Synthesized:
				s.synIdx = append(s.synIdx, ai)
			case Inherited:
				if s.Terminal {
					return fmt.Errorf("ag: terminal %s has inherited attribute %s", s.Name, a.Name)
				}
				s.inhIdx = append(s.inhIdx, ai)
			default:
				return fmt.Errorf("ag: symbol %s attribute %s has invalid kind", s.Name, a.Name)
			}
			if s.Split && a.Codec == nil {
				return fmt.Errorf("ag: split symbol %s attribute %s needs a conversion function (Codec) for network transmission", s.Name, a.Name)
			}
		}
	}
	for pi, p := range g.Prods {
		p.Index = pi
		if p.LHS == nil {
			return fmt.Errorf("ag: production %d has nil LHS", pi)
		}
		if p.LHS.Terminal {
			return fmt.Errorf("ag: production %s has terminal LHS", p)
		}
		p.ruleFor = make([][]int, 1+len(p.RHS))
		for occ := 0; occ <= len(p.RHS); occ++ {
			p.ruleFor[occ] = make([]int, len(p.Sym(occ).Attrs))
			for j := range p.ruleFor[occ] {
				p.ruleFor[occ][j] = -1
			}
		}
		for ri := range p.Rules {
			r := &p.Rules[ri]
			if err := g.checkRef(p, r.Target); err != nil {
				return fmt.Errorf("ag: %s rule %d target: %w", p, ri, err)
			}
			tSym := p.Sym(r.Target.Occ)
			tAttr := tSym.Attrs[r.Target.Attr]
			inNormalForm := (r.Target.Occ == 0 && tAttr.Kind == Synthesized) ||
				(r.Target.Occ > 0 && tAttr.Kind == Inherited)
			if !inNormalForm {
				return fmt.Errorf("ag: %s rule %d defines %s.%s: not in normal form (must define LHS-synthesized or RHS-inherited)",
					p, ri, tSym.Name, tAttr.Name)
			}
			if p.ruleFor[r.Target.Occ][r.Target.Attr] >= 0 {
				return fmt.Errorf("ag: %s defines %s.%s twice", p, tSym.Name, tAttr.Name)
			}
			p.ruleFor[r.Target.Occ][r.Target.Attr] = ri
			if r.Eval == nil {
				return fmt.Errorf("ag: %s rule %d has nil Eval", p, ri)
			}
			for di, d := range r.Deps {
				if err := g.checkRef(p, d); err != nil {
					return fmt.Errorf("ag: %s rule %d dep %d: %w", p, ri, di, err)
				}
			}
			if len(r.Deps) > g.maxArgs {
				g.maxArgs = len(r.Deps)
			}
		}
		// Completeness: every LHS-synthesized and RHS-inherited
		// occurrence must be defined by exactly one rule.
		for ai := range p.LHS.Attrs {
			if p.LHS.Attrs[ai].Kind == Synthesized && p.ruleFor[0][ai] < 0 {
				return fmt.Errorf("ag: %s does not define %s.%s", p, p.LHS.Name, p.LHS.Attrs[ai].Name)
			}
		}
		for occ := 1; occ <= len(p.RHS); occ++ {
			sym := p.Sym(occ)
			for ai := range sym.Attrs {
				if sym.Attrs[ai].Kind == Inherited && p.ruleFor[occ][ai] < 0 {
					return fmt.Errorf("ag: %s does not define %s(occ %d).%s", p, sym.Name, occ, sym.Attrs[ai].Name)
				}
			}
		}
	}
	if g.Start == nil {
		return fmt.Errorf("ag: grammar %s has no start symbol", g.Name)
	}
	if len(g.Start.Inh()) != 0 {
		return fmt.Errorf("ag: start symbol %s has inherited attributes", g.Start.Name)
	}
	return nil
}

// finishUnchecked builds the same derived tables as finish but never
// fails: invalid pieces (out-of-range refs, duplicate definitions,
// duplicate symbol names) are skipped instead of rejected, so static
// diagnostics (internal/aglint) can inspect a broken grammar as a
// whole. Grammars finished this way are for analysis only.
func (g *Grammar) finishUnchecked() {
	g.byName = make(map[string]*Symbol, len(g.Symbols))
	for i, s := range g.Symbols {
		s.Index = i
		if _, dup := g.byName[s.Name]; !dup {
			g.byName[s.Name] = s
		}
		s.synIdx = s.synIdx[:0]
		s.inhIdx = s.inhIdx[:0]
		for ai, a := range s.Attrs {
			switch a.Kind {
			case Synthesized:
				s.synIdx = append(s.synIdx, ai)
			case Inherited:
				s.inhIdx = append(s.inhIdx, ai)
			}
		}
	}
	for pi, p := range g.Prods {
		p.Index = pi
		if p.LHS == nil {
			continue
		}
		p.ruleFor = make([][]int, 1+len(p.RHS))
		for occ := 0; occ <= len(p.RHS); occ++ {
			p.ruleFor[occ] = make([]int, len(p.Sym(occ).Attrs))
			for j := range p.ruleFor[occ] {
				p.ruleFor[occ][j] = -1
			}
		}
		for ri := range p.Rules {
			r := &p.Rules[ri]
			if g.checkRef(p, r.Target) != nil {
				continue
			}
			if p.ruleFor[r.Target.Occ][r.Target.Attr] < 0 {
				p.ruleFor[r.Target.Occ][r.Target.Attr] = ri
			}
			if len(r.Deps) > g.maxArgs {
				g.maxArgs = len(r.Deps)
			}
		}
	}
}

func (g *Grammar) checkRef(p *Production, r AttrRef) error {
	if r.Occ < 0 || r.Occ > len(p.RHS) {
		return fmt.Errorf("occurrence %d out of range", r.Occ)
	}
	sym := p.Sym(r.Occ)
	if r.Attr < 0 || r.Attr >= len(sym.Attrs) {
		return fmt.Errorf("attribute %d out of range for %s", r.Attr, sym.Name)
	}
	return nil
}
