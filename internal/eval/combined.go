package eval

import (
	"fmt"

	"pag/internal/ag"
	"pag/internal/arena"
	"pag/internal/tree"
)

// staticChild drives static evaluation of one subtree hanging off the
// dynamic spine: static visit v may run once all inherited attributes
// of the subtree root's phases 1..v have been computed dynamically.
// Running visit v makes the phase-v synthesized attributes available to
// the dynamic graph — this encodes exactly the transitive dependencies
// "precomputed by the static evaluator generator" that paper §2.4 says
// are entered into the dynamic dependency graph.
type staticChild struct {
	node       *tree.Node
	nextVisit  int     // next visit to run, 1-based
	pendingInh []int32 // per phase: inherited attrs not yet available
}

// Combined is the paper's combined static/dynamic evaluator (§2.4,
// Figure 4): nodes on a path from the fragment root to a remote leaf
// (the spine) are evaluated dynamically; every subtree hanging off the
// spine — in particular every bottom fragment — is evaluated by the
// static ordered evaluator, with no dependency analysis at all.
type Combined struct {
	a  *ag.Analysis
	g  graph
	st *Static

	// rootStatic indicates the fragment has no remote leaves: the
	// entire fragment is one static subtree (kids[0]) driven by the
	// arrival of the root's inherited phases.
	rootStatic bool

	// kids holds the static children in tree (preorder) order; childOf
	// maps a subtree root to its index. Slices into kids are only taken
	// after construction, when the slice has stopped growing.
	kids    []staticChild
	childOf map[*tree.Node]int32
	inhSlab arena.Slab[int32]
}

// NewCombined builds a combined evaluator for the fragment rooted at
// root. Dynamic dependency information is computed only for spine
// nodes, which the paper's measurements show is a small fraction of the
// tree ("less than N percent of the attributes are evaluated
// dynamically", §4.1).
func NewCombined(a *ag.Analysis, root *tree.Node, hooks Hooks) *Combined {
	c := &Combined{a: a, childOf: make(map[*tree.Node]int32)}
	c.g.init(root, a.G.MaxRuleArgs(), hooks)
	c.st = NewStatic(a, Hooks{Charge: hooks.Charge})

	spine := tree.Spine(root)
	if len(spine) == 0 {
		// Entirely local fragment: pure static evaluation, gated on the
		// root's inherited phases ("all bottom subtrees are evaluated
		// entirely statically", §4.1).
		c.rootStatic = true
		c.addStaticChild(root)
		return c
	}
	// Dynamic instances for the rules of every spine node. Children of
	// spine nodes that are off-spine nonterminals become static
	// subtrees; their synthesized attributes are produced by visits.
	// Discovery order is tree (preorder) order, which keeps the drain
	// deterministic.
	var scanned []*tree.Node
	var build func(n *tree.Node)
	build = func(n *tree.Node) {
		if !spine[n] {
			return
		}
		scanned = append(scanned, n)
		c.g.scanNodeRules(n)
		for _, ch := range n.Children {
			switch {
			case ch.Remote, ch.Sym.Terminal:
			case spine[ch]:
				build(ch)
			default:
				c.addStaticChild(ch)
			}
		}
	}
	build(root)
	c.g.finishBuild(scanned)
	// An inherited attribute of a static child's root may enable its
	// next static visit.
	c.g.onInhAvail = func(n *tree.Node, attr int) {
		if idx, ok := c.childOf[n]; ok {
			sc := &c.kids[idx]
			ph := c.a.VisitOf(n.Sym, attr)
			sc.pendingInh[ph-1]--
			c.runStaticChild(sc, false)
		}
	}
	return c
}

func (c *Combined) addStaticChild(n *tree.Node) {
	phases := c.a.Phases(n.Sym)
	sc := staticChild{node: n, nextVisit: 1, pendingInh: c.inhSlab.Make(len(phases))}
	for v, ph := range phases {
		sc.pendingInh[v] = int32(len(ph.Inh))
	}
	c.childOf[n] = int32(len(c.kids))
	c.kids = append(c.kids, sc)
}

// Run evaluates everything that is ready: dynamic spine instances in
// topological order, and static visits as their input phases complete.
// It returns the number of dynamic instances evaluated by this call;
// if the fragment depends on remote attributes, Run must be
// interleaved with Supply until Done reports true.
func (c *Combined) Run() int {
	if c.rootStatic {
		c.runStaticChild(&c.kids[0], true)
		return 0
	}
	c.drainStaticChildren()
	return c.g.run()
}

// Yielded reports whether the last Run stopped at a yield point with
// instances still ready. Static visits never yield: they run whole as
// soon as their inherited phase is complete.
func (c *Combined) Yielded() bool { return c.g.yielded }

// drainStaticChildren starts visits on static children whose first
// phases need no inherited attributes. Children are stored in tree
// order, so the drain is deterministic.
func (c *Combined) drainStaticChildren() {
	for i := range c.kids {
		c.runStaticChild(&c.kids[i], false)
	}
}

// runStaticChild runs every static visit whose inherited phase is
// complete, making the corresponding synthesized phases available to
// the dynamic graph (or, for a fully static fragment root, to the
// parent evaluator via OnRootSyn).
func (c *Combined) runStaticChild(sc *staticChild, isRoot bool) {
	phases := c.a.Phases(sc.node.Sym)
	for sc.nextVisit <= len(phases) && sc.pendingInh[sc.nextVisit-1] == 0 {
		v := sc.nextVisit
		sc.nextVisit++
		c.st.Visit(sc.node, v)
		for _, ai := range phases[v-1].Syn {
			val := sc.node.Attrs[ai]
			if isRoot {
				if c.g.hooks.OnRootSyn != nil {
					c.g.hooks.OnRootSyn(ai, val)
				}
				continue
			}
			if i, ok := c.g.lookup(sc.node, ai); ok && c.g.infos[i].present && !c.g.infos[i].avail {
				c.g.markAvail(i, val)
			}
		}
	}
}

// Supply injects a remotely computed attribute value: a synthesized
// attribute of a remote leaf or an inherited attribute of the fragment
// root.
func (c *Combined) Supply(n *tree.Node, attr int, v ag.Value) {
	n.Attrs[attr] = v
	c.g.stats.Supplied++
	c.g.hooks.charge(CostSupply)
	if c.rootStatic {
		if n != c.g.root {
			panic(fmt.Sprintf("eval: Supply(%s) to fully static fragment rooted at %s", n.Sym, c.g.root.Sym))
		}
		ph := c.a.VisitOf(n.Sym, attr)
		c.kids[0].pendingInh[ph-1]--
		return
	}
	i, ok := c.g.lookup(n, attr)
	if !ok || !c.g.infos[i].present || c.g.infos[i].avail {
		return
	}
	c.g.markAvail(i, v)
}

// Done reports whether all local attribute instances are evaluated.
func (c *Combined) Done() bool {
	if c.rootStatic {
		return c.kids[0].nextVisit > len(c.a.Phases(c.g.root.Sym))
	}
	if c.g.evaluated != c.g.defined {
		return false
	}
	for i := range c.kids {
		if c.kids[i].nextVisit <= len(c.a.Phases(c.kids[i].node.Sym)) {
			return false
		}
	}
	return true
}

// Blocked lists blocked dynamic instances for deadlock diagnostics.
func (c *Combined) Blocked() []string { return c.g.blocked() }

// Stats returns evaluation statistics, merging the static visits run on
// off-spine subtrees with the dynamic spine evaluation.
func (c *Combined) Stats() Stats {
	s := c.g.stats
	s.Add(c.st.Stats())
	return s
}
