package eval

import (
	"pag/internal/ag"
	"pag/internal/tree"
)

// Dynamic is the purely dynamic evaluator of paper §2.3 / Figure 1: it
// builds the complete attribute dependency graph of its fragment, then
// evaluates attributes in topological order as they become ready.
// Attributes computed by other evaluators (synthesized attributes of
// remote leaves; inherited attributes of the fragment root) are marked
// unavailable until supplied over the network. The graph lives in a
// flat instance table (see graph), so the evaluation loop itself is
// allocation-free.
type Dynamic struct {
	g graph
}

// NewDynamic builds the dependency graph for the fragment rooted at
// root ("dependency analysis", Figure 1). This is the expensive step
// that static evaluation avoids; its simulated cost is charged here.
// The fragment's leaves are its remote leaves (tree.RemoteLeaves), and
// Supply and Hooks.OnRemoteInh address them by their index in that
// list.
//
// NewDynamic is a standalone whole-tree entry point: it publishes each
// interior node's instances on the node (Node.Attrs, one slot per
// attribute), so after Run every value can be read from the tree. The
// tree must be the evaluator's own; no runtime builds a Dynamic over a
// shared job tree.
func NewDynamic(gr *ag.Grammar, root *tree.Node, hooks Hooks) *Dynamic {
	d := &Dynamic{}
	// Size the tables for the whole fragment up front: no row moves
	// once it exists, so the nodes can hold their rows.
	var leaves []*tree.Node
	var nodes, rows int
	root.Walk(func(n *tree.Node) {
		if n.Sym.Terminal {
			return
		}
		if n.Remote {
			leaves = append(leaves, n)
		}
		nodes++
		rows += len(n.Sym.Attrs)
	})
	g := &d.g
	g.init(hooks, leaves)
	g.reserve(nodes, rows)
	var next func(n *tree.Node, o int32)
	next = func(n *tree.Node, o int32) {
		d.publish(n, o)
		g.build(n, o, next)
	}
	next(root, g.register(root.Sym, -1))
	// Link dependents and seed the ready queue in deterministic (tree)
	// order. Remote-leaf synthesized attributes and fragment-root
	// inherited attributes stay unavailable until supplied over the
	// network.
	g.finishBuild(gr.MaxRuleArgs())
	return d
}

// publish points n's slots at the rows of owner o.
func (d *Dynamic) publish(n *tree.Node, o int32) {
	b := d.g.owners[o].base
	e := b + int32(len(n.Sym.Attrs))
	n.Attrs = d.g.vals[b:e:e]
}

// Run evaluates every ready attribute instance, in topological order,
// until the worklist drains. It returns the number of instances
// evaluated. If the fragment depends on remote attributes, Run must be
// interleaved with Supply until Done reports true.
func (d *Dynamic) Run() int { return d.g.run() }

// Yielded reports whether the last Run stopped at a yield point with
// instances still ready.
func (d *Dynamic) Yielded() bool { return d.g.yielded }

// Supply injects an attribute value computed by another evaluator: a
// synthesized attribute of remote leaf leaf (an index in the leaf
// list), or an inherited attribute of the fragment root (leaf = Root).
// A second value for an instance is ignored. The caller should Run
// afterwards.
func (d *Dynamic) Supply(leaf, attr int, v ag.Value) {
	i := d.g.input(leaf, attr)
	in := &d.g.infos[i]
	if in.avail {
		return
	}
	d.g.vals[i] = v
	if !in.present {
		// Nothing in this fragment depends on the value; record it
		// anyway for completeness.
		in.avail = true
		return
	}
	d.g.stats.Supplied++
	d.g.hooks.charge(CostSupply)
	d.g.markAvail(i)
}

// Has reports whether the input instance Supply addresses by (leaf,
// attr) has a value.
func (d *Dynamic) Has(leaf, attr int) bool { return d.g.infos[d.g.input(leaf, attr)].avail }

// Done reports whether every locally defined attribute instance has
// been evaluated.
func (d *Dynamic) Done() bool { return d.g.evaluated == d.g.defined }

// Blocked lists blocked instances (for deadlock diagnostics).
func (d *Dynamic) Blocked() []string { return d.g.blocked() }

// Stats returns evaluation statistics.
func (d *Dynamic) Stats() Stats { return d.g.stats }
