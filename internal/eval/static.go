package eval

import (
	"fmt"

	"pag/internal/ag"
	"pag/internal/tree"
)

// Static is the static ordered evaluator of paper §2.3 / Figure 3: a
// collection of visit procedures, one per production, that walk the
// tree in the order precomputed by the OAG analysis. It performs no
// dependency analysis at evaluation time, and — driving the compiled
// visit sequences cached per production by the analysis — no rule
// lookups and no allocation either: rule arguments pass through one
// reusable scratch buffer.
type Static struct {
	a      *ag.Analysis
	hooks  Hooks
	stats  Stats
	argbuf []ag.Value // scratch for rule arguments; rules must not retain it
}

// NewStatic returns a static evaluator over the given grammar analysis.
func NewStatic(a *ag.Analysis, hooks Hooks) *Static {
	return &Static{a: a, hooks: hooks, argbuf: make([]ag.Value, a.G.MaxRuleArgs())}
}

// EvaluateTree evaluates every attribute instance of a complete local
// tree (no remote leaves). The root's inherited attributes, if any,
// must be preset on root.Attrs.
func (s *Static) EvaluateTree(root *tree.Node) error {
	var remote *tree.Node
	root.Walk(func(n *tree.Node) {
		if n.Remote && remote == nil {
			remote = n
		}
	})
	if remote != nil {
		return fmt.Errorf("eval: static evaluator cannot process a fragment with remote leaves (found %s); use the combined evaluator", remote.Sym)
	}
	if root.Sym.Terminal {
		return nil
	}
	for v := 1; v <= s.a.NumVisits(root.Sym); v++ {
		s.Visit(root, v)
	}
	return nil
}

// Visit runs visit number v (1-based) of the static plan on node n.
// The inherited attributes of n's phases 1..v must already be set.
// After Visit returns, the synthesized attributes of phase v are set.
func (s *Static) Visit(n *tree.Node, v int) {
	plan := s.a.Compiled(n.Prod)
	for i := range plan.Segments[v-1] {
		op := &plan.Segments[v-1][i]
		if op.Rule != nil {
			s.evalOp(n, op)
		} else {
			s.hooks.charge(CostVisit)
			s.Visit(n.Children[op.Child-1], int(op.Visit))
		}
	}
}

func (s *Static) evalOp(n *tree.Node, op *ag.CompiledOp) {
	rule := op.Rule
	args := s.argbuf[:len(rule.Deps)]
	for k, dep := range rule.Deps {
		dn, da := resolveNode(n, dep)
		args[k] = dn.Attrs[da]
	}
	val := rule.Eval(args)
	target := n
	if op.TargetOcc > 0 {
		target = n.Children[op.TargetOcc-1]
	}
	target.Attrs[op.TargetAttr] = val
	if s.hooks.Charge != nil {
		s.hooks.Charge(rule.SimCost(args) + CostStaticOp)
	}
	s.stats.StaticEvals++
}

// Stats returns evaluation statistics.
func (s *Static) Stats() Stats { return s.stats }
