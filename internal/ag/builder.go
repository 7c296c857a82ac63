package ag

import (
	"fmt"
	"time"
)

// Builder assembles a Grammar incrementally with a declarative API that
// mirrors the paper's specification language (appendix A): terminals
// with scanner-supplied attributes, split/nosplit nonterminals, and
// per-production semantic rules written as `target <- f(deps...)`.
//
// Builder methods panic on misuse (unknown symbol names, malformed
// refs); Build reports remaining semantic errors. Grammars are built
// once at startup, so panicking on programmer error keeps rule code
// uncluttered, matching how generated evaluators treat their grammar.
type Builder struct {
	g    *Grammar
	errs []error
}

// NewBuilder returns an empty grammar builder.
func NewBuilder(name string) *Builder {
	return &Builder{g: &Grammar{Name: name}}
}

// AttrSpec declares one attribute in a symbol declaration.
type AttrSpec struct {
	Name     string
	Kind     AttrKind
	Priority bool
	Codec    Codec
}

// Syn declares a synthesized attribute.
func Syn(name string) AttrSpec { return AttrSpec{Name: name, Kind: Synthesized} }

// Inh declares an inherited attribute.
func Inh(name string) AttrSpec { return AttrSpec{Name: name, Kind: Inherited} }

// WithPriority marks the attribute as a priority attribute (paper §4.3).
func (a AttrSpec) WithPriority() AttrSpec { a.Priority = true; return a }

// WithCodec attaches a network codec to the attribute.
func (a AttrSpec) WithCodec(c Codec) AttrSpec { a.Codec = c; return a }

func (b *Builder) addSymbol(name string, terminal bool, attrs []AttrSpec) *Symbol {
	s := &Symbol{Name: name, Terminal: terminal}
	for _, a := range attrs {
		s.Attrs = append(s.Attrs, Attribute{Name: a.Name, Kind: a.Kind, Priority: a.Priority, Codec: a.Codec})
	}
	b.g.Symbols = append(b.g.Symbols, s)
	return s
}

// Terminal declares a terminal symbol. Its attributes (all synthesized)
// are supplied by the scanner, as in Knuth's extended formalism.
func (b *Builder) Terminal(name string, attrs ...AttrSpec) *Symbol {
	for _, a := range attrs {
		if a.Kind != Synthesized {
			b.errs = append(b.errs, fmt.Errorf("terminal %s: attribute %s must be synthesized", name, a.Name))
		}
	}
	return b.addSymbol(name, true, attrs)
}

// Nonterminal declares a nonterminal that may not root a separately
// processed subtree (the `nosplit` declaration).
func (b *Builder) Nonterminal(name string, attrs ...AttrSpec) *Symbol {
	return b.addSymbol(name, false, attrs)
}

// SplitNonterminal declares a nonterminal at which the parse tree may
// be split, with the given minimum linearized subtree size in bytes
// (the `split` declaration of the appendix grammar).
func (b *Builder) SplitNonterminal(name string, minSize int, attrs ...AttrSpec) *Symbol {
	s := b.addSymbol(name, false, attrs)
	s.Split = true
	s.MinSplitSize = minSize
	return s
}

// Start sets the grammar's start symbol.
func (b *Builder) Start(s *Symbol) { b.g.Start = s }

// RuleSpec is one semantic rule under construction.
type RuleSpec struct {
	target string
	deps   []string
	eval   func(args []Value) Value
	cost   CostFn
}

// Def declares a semantic rule: target := eval(deps...). Occurrence
// references use the paper's notation: "value" or "$.value" refers to
// the LHS, "1.value" to the first RHS symbol's attribute, and so on.
func Def(target string, eval func(args []Value) Value, deps ...string) RuleSpec {
	return RuleSpec{target: target, deps: deps, eval: eval}
}

// Copy declares the common copy rule target := dep.
func Copy(target, dep string) RuleSpec {
	return RuleSpec{
		target: target,
		deps:   []string{dep},
		eval:   func(args []Value) Value { return args[0] },
		cost:   func([]Value) time.Duration { return 2 * time.Microsecond },
	}
}

// Const declares a constant rule target := v.
func Const(target string, v Value) RuleSpec {
	return RuleSpec{
		target: target,
		eval:   func([]Value) Value { return v },
		cost:   func([]Value) time.Duration { return 2 * time.Microsecond },
	}
}

// WithCost attaches a simulated cost function to the rule.
func (r RuleSpec) WithCost(c CostFn) RuleSpec { r.cost = c; return r }

// Production adds a production lhs -> rhs... with the given rules.
func (b *Builder) Production(lhs *Symbol, rhs []*Symbol, rules ...RuleSpec) *Production {
	p := &Production{LHS: lhs, RHS: rhs}
	name := lhs.Name + " ->"
	if len(rhs) == 0 {
		name += " ε"
	}
	for _, s := range rhs {
		name += " " + s.Name
	}
	p.Name = name
	for _, rs := range rules {
		target, err := parseRef(p, rs.target)
		if err != nil {
			b.errs = append(b.errs, fmt.Errorf("%s: %w", p, err))
			continue
		}
		rule := Rule{Target: target, Eval: rs.eval, Cost: rs.cost}
		for _, d := range rs.deps {
			ref, err := parseRef(p, d)
			if err != nil {
				b.errs = append(b.errs, fmt.Errorf("%s: %w", p, err))
				continue
			}
			rule.Deps = append(rule.Deps, ref)
		}
		p.Rules = append(p.Rules, rule)
	}
	b.g.Prods = append(b.g.Prods, p)
	return p
}

// parseRef resolves "attr", "$.attr" (LHS) or "<k>.attr" (k-th RHS
// symbol, 1-based) against production p.
func parseRef(p *Production, ref string) (AttrRef, error) {
	occ := 0
	attr := ref
	for i := 0; i < len(ref); i++ {
		if ref[i] == '.' {
			head := ref[:i]
			attr = ref[i+1:]
			if head == "$" {
				occ = 0
			} else {
				n := 0
				for j := 0; j < len(head); j++ {
					if head[j] < '0' || head[j] > '9' {
						return AttrRef{}, fmt.Errorf("bad occurrence %q in ref %q", head, ref)
					}
					n = n*10 + int(head[j]-'0')
				}
				occ = n
			}
			break
		}
	}
	if occ < 0 || occ > len(p.RHS) {
		return AttrRef{}, fmt.Errorf("occurrence %d out of range in ref %q", occ, ref)
	}
	sym := p.Sym(occ)
	ai := sym.AttrIndex(attr)
	if ai < 0 {
		return AttrRef{}, fmt.Errorf("symbol %s has no attribute %q (ref %q)", sym.Name, attr, ref)
	}
	return AttrRef{Occ: occ, Attr: ai}, nil
}

// Build validates and returns the grammar.
func (b *Builder) Build() (*Grammar, error) {
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("ag: %d error(s) building grammar %s, first: %w", len(b.errs), b.g.Name, b.errs[0])
	}
	if err := b.g.finish(); err != nil {
		return nil, err
	}
	return b.g, nil
}

// BuildUnchecked assembles the grammar with its derived tables
// (symbol indexes, rule lookup, argument bounds) but without enforcing
// the validity rules Build applies: incomplete, ill-kinded or
// duplicate-ruled grammars come back as Grammar values instead of a
// single error. It exists for static diagnostics — internal/aglint
// wants the whole broken grammar so it can report every problem at
// once — and the returned grammar must not be evaluated. The second
// result carries the reference-resolution errors accumulated while
// building (rules whose refs never resolved are absent from the
// grammar).
func (b *Builder) BuildUnchecked() (*Grammar, []error) {
	b.g.finishUnchecked()
	return b.g, b.errs
}
