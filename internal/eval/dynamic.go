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
func NewDynamic(gr *ag.Grammar, root *tree.Node, hooks Hooks) *Dynamic {
	d := &Dynamic{}
	d.g.init(root, gr.MaxRuleArgs(), hooks)
	var scanned []*tree.Node
	root.Walk(func(n *tree.Node) {
		switch {
		case n.Remote, n.Sym.Terminal:
			// Interface instances are registered on demand by the scan.
		default:
			scanned = append(scanned, n)
			d.g.scanNodeRules(n)
		}
	})
	// Link dependents and seed the ready queue in deterministic (tree)
	// order. Remote-leaf synthesized attributes and fragment-root
	// inherited attributes stay unavailable until supplied over the
	// network.
	d.g.finishBuild(scanned)
	return d
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
// synthesized attribute of a remote leaf, or an inherited attribute of
// the fragment root. The caller should Run afterwards.
func (d *Dynamic) Supply(n *tree.Node, attr int, v ag.Value) {
	i, ok := d.g.lookup(n, attr)
	if !ok || !d.g.infos[i].present {
		// Nothing in this fragment depends on the value; record it
		// anyway for completeness.
		n.Attrs[attr] = v
		return
	}
	if d.g.infos[i].avail {
		return
	}
	n.Attrs[attr] = v
	d.g.stats.Supplied++
	d.g.hooks.charge(CostSupply)
	d.g.markAvail(i, v)
}

// Done reports whether every locally defined attribute instance has
// been evaluated.
func (d *Dynamic) Done() bool { return d.g.evaluated == d.g.defined }

// Pending returns how many defined instances are still blocked.
func (d *Dynamic) Pending() int { return d.g.defined - d.g.evaluated }

// Blocked lists blocked instances (for deadlock diagnostics).
func (d *Dynamic) Blocked() []string { return d.g.blocked() }

// Stats returns evaluation statistics.
func (d *Dynamic) Stats() Stats { return d.g.stats }
