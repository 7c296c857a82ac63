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
	owner      int32   // the graph owner whose rows hold node's instances
	nextVisit  int     // next visit to run, 1-based
	pendingInh []int32 // per phase: inherited attrs not yet available
}

// Combined is the paper's combined static/dynamic evaluator (§2.4,
// Figure 4): nodes on a path from the fragment root to a leaf (the
// spine) are evaluated dynamically; every subtree hanging off the
// spine — in particular every bottom fragment — is evaluated by the
// static ordered evaluator, with no dependency analysis at all. The
// fragment root, the spine nodes, the leaves and the static-child
// roots keep their instances in rows of the dynamic graph; the static
// subtrees keep theirs in visit frames (see Static). Nothing is written
// to the tree.
type Combined struct {
	a  *ag.Analysis
	g  graph
	st *Static

	// rootStatic indicates the fragment has no leaves: the entire
	// fragment is one static subtree (kids[0]) driven by the arrival of
	// the root's inherited phases.
	rootStatic bool

	// kids holds the static children in tree (preorder) order. Slices
	// into kids are only taken after construction, when the slice has
	// stopped growing.
	kids    []staticChild
	inhSlab arena.Slab[int32]
}

// NewCombined builds a combined evaluator for the fragment rooted at
// root, whose leaves in preorder are leaves (nil for a fragment without
// any): the remote leaves of a decoded fragment or the cut nodes of a
// planned decomposition. Supply and Hooks.OnRemoteInh address a leaf by
// its index in leaves. Dynamic dependency information is computed only
// for spine nodes, which the paper's measurements show is a small
// fraction of the tree ("less than N percent of the attributes are
// evaluated dynamically", §4.1).
func NewCombined(a *ag.Analysis, root *tree.Node, leaves []*tree.Node, hooks Hooks) *Combined {
	c := &Combined{a: a}
	c.g.init(hooks, leaves)
	c.st = NewStatic(a, Hooks{Charge: hooks.Charge})
	spine := tree.Spine(root, leaves)
	// Rows: the root's and those of the spine nodes' children.
	nodes, rows := 1, len(root.Sym.Attrs)
	for n := range spine {
		for _, ch := range n.Children {
			if !ch.Sym.Terminal {
				nodes++
				rows += len(ch.Sym.Attrs)
			}
		}
	}
	c.g.reserve(nodes, rows)
	self := c.g.register(root.Sym, -1)
	if len(spine) == 0 {
		// Entirely local fragment: pure static evaluation, gated on the
		// root's inherited phases ("all bottom subtrees are evaluated
		// entirely statically", §4.1).
		c.rootStatic = true
		c.addStaticChild(root, self)
		return c
	}
	// Dynamic instances for the rules of every spine node. Children of
	// spine nodes that are off-spine nonterminals become static
	// subtrees; their synthesized attributes are produced by visits.
	// Discovery order is tree (preorder) order, which keeps the drain
	// deterministic.
	var next func(n *tree.Node, o int32)
	next = func(n *tree.Node, o int32) {
		if spine[n] {
			c.g.build(n, o, next)
		} else {
			c.addStaticChild(n, o)
		}
	}
	next(root, self)
	c.g.finishBuild(a.G.MaxRuleArgs())
	// An inherited attribute of a static child's root may enable its
	// next static visit.
	c.g.onInhAvail = func(kid int32, attr int) {
		sc := &c.kids[kid]
		ph := c.a.VisitOf(sc.node.Sym, attr)
		sc.pendingInh[ph-1]--
		c.runStaticChild(sc, false)
	}
	return c
}

func (c *Combined) addStaticChild(n *tree.Node, o int32) {
	phases := c.a.Phases(n.Sym)
	sc := staticChild{node: n, owner: o, nextVisit: 1, pendingInh: c.inhSlab.Make(len(phases))}
	for v, ph := range phases {
		sc.pendingInh[v] = int32(len(ph.Inh))
	}
	c.g.owners[o].kid = int32(len(c.kids))
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
	o := &c.g.owners[sc.owner]
	end := o.base + int32(len(o.sym.Attrs))
	own := c.g.vals[o.base:end:end]
	phases := c.a.Phases(o.sym)
	for sc.nextVisit <= len(phases) && sc.pendingInh[sc.nextVisit-1] == 0 {
		v := sc.nextVisit
		sc.nextVisit++
		c.st.visitOwn(sc.node, own, v)
		for _, ai := range phases[v-1].Syn {
			if isRoot {
				if c.g.hooks.OnRootSyn != nil {
					c.g.hooks.OnRootSyn(ai, own[ai])
				}
				continue
			}
			if i := o.base + int32(ai); c.g.infos[i].present && !c.g.infos[i].avail {
				c.g.markAvail(i)
			}
		}
	}
}

// Supply injects a remotely computed attribute value: a synthesized
// attribute of leaf leaf (its index in the leaf list) or an inherited
// attribute of the fragment root (leaf = Root). A second value for an
// instance is ignored.
func (c *Combined) Supply(leaf, attr int, v ag.Value) {
	c.g.stats.Supplied++
	c.g.hooks.charge(CostSupply)
	if c.rootStatic && leaf != Root {
		panic(fmt.Sprintf("eval: Supply to leaf %d of fully static fragment rooted at %s", leaf, c.kids[0].node.Sym))
	}
	i := c.g.input(leaf, attr)
	in := &c.g.infos[i]
	if in.avail {
		return
	}
	c.g.vals[i] = v
	switch {
	case c.rootStatic:
		in.avail = true
		ph := c.a.VisitOf(c.kids[0].node.Sym, attr)
		c.kids[0].pendingInh[ph-1]--
	case in.present:
		c.g.markAvail(i)
	default:
		in.avail = true
	}
}

// Has reports whether the input instance Supply addresses by (leaf,
// attr) has a value.
func (c *Combined) Has(leaf, attr int) bool { return c.g.infos[c.g.input(leaf, attr)].avail }

// Done reports whether all local attribute instances are evaluated.
func (c *Combined) Done() bool {
	if c.rootStatic {
		return c.kids[0].nextVisit > len(c.a.Phases(c.kids[0].node.Sym))
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
