package eval

import (
	"fmt"
	"slices"

	"pag/internal/ag"
	"pag/internal/tree"
)

// instInfo is one dependency-graph row of the flat instance table.
// node/attr identify the instance; rule/home the defining production
// occurrence (rule is nil for pure inputs such as remote-leaf
// synthesized attributes).
type instInfo struct {
	rule       *ag.Rule
	home       *tree.Node
	node       *tree.Node
	attr       int32
	remaining  int32 // dependencies not yet available
	ndep       int32 // build scratch: dependents counted in the scan pass
	present    bool  // instance appears in the dependency graph
	avail      bool
	dependents []int32 // instance ids unblocked when this one arrives
}

// graph is the dependency-graph core shared by the Dynamic and Combined
// evaluators. Attribute instances live in a flat table indexed by the
// node's registration number (tree.Node.Seq) and attribute index —
// godl's flat-matrix relation style applied to attribute instances —
// so the steady-state evaluation loop performs no map lookups and no
// allocation: rule arguments go through a reusable scratch buffer,
// dependent edges are carved from a single slab, and the ready queues
// recycle their backing arrays.
type graph struct {
	hooks Hooks
	root  *tree.Node

	nodes    []*tree.Node         // registered nodes; Seq-1 indexes this
	attrBase []int32              // first instance id of each registered node
	infos    []instInfo           // flat node×attr instance table
	seqOf    map[*tree.Node]int32 // fallback when another evaluator overwrote Seq

	order     []int32 // defined instances in build order (determinism, diagnostics)
	ready     []int32 // FIFO worklist
	readyPrio []int32 // priority attributes jump the queue (paper §4.3)
	readyHead int
	prioHead  int

	// yield is raised by markAvail when a priority value has been
	// shipped under Hooks.YieldAfterPriority; yielded records that the
	// last run stopped on it with work left.
	yield   bool
	yielded bool

	argbuf    []ag.Value // scratch for rule arguments; rules must not retain it
	defined   int
	evaluated int
	stats     Stats

	// onInhAvail, set by Combined, fires when an inherited attribute
	// instance becomes available (it may enable a static child visit).
	onInhAvail func(n *tree.Node, attr int)
}

func (g *graph) init(root *tree.Node, maxArgs int, hooks Hooks) {
	g.root = root
	g.hooks = hooks
	g.argbuf = make([]ag.Value, maxArgs)
}

// register assigns node n a registration number and extends the flat
// table with one (zeroed) row per attribute. A node's number from a
// previous evaluator is validated before reuse, so evaluators never
// need to reset the tree; the side map keeps this graph's own numbers
// recoverable even if a later evaluator over the same tree overwrites
// Seq (one map entry per node, not per instance — the fast path never
// touches it while this graph owns the numbering).
func (g *graph) register(n *tree.Node) int32 {
	if s := n.Seq; s > 0 && int(s) <= len(g.nodes) && g.nodes[s-1] == n {
		return g.attrBase[s-1]
	}
	if s, ok := g.seqOf[n]; ok {
		n.Seq = s // reclaim our numbering from the side map
		return g.attrBase[s-1]
	}
	base := int32(len(g.infos))
	g.nodes = append(g.nodes, n)
	g.attrBase = append(g.attrBase, base)
	n.Seq = int32(len(g.nodes))
	if g.seqOf == nil {
		g.seqOf = make(map[*tree.Node]int32)
	}
	g.seqOf[n] = n.Seq
	g.infos = slices.Grow(g.infos, len(n.Attrs))[:len(g.infos)+len(n.Attrs)]
	for a := range n.Attrs {
		in := &g.infos[int(base)+a]
		in.node = n
		in.attr = int32(a)
	}
	return base
}

// idx returns the instance id of (n, attr), registering n as needed.
// Pointers into g.infos are invalidated by registration; callers index
// by id instead of retaining *instInfo across idx calls.
func (g *graph) idx(n *tree.Node, attr int) int32 {
	return g.register(n) + int32(attr)
}

// lookup returns the instance id of (n, attr) if n is registered with
// this graph.
func (g *graph) lookup(n *tree.Node, attr int) (int32, bool) {
	if s := n.Seq; s > 0 && int(s) <= len(g.nodes) && g.nodes[s-1] == n {
		return g.attrBase[s-1] + int32(attr), true
	}
	if s, ok := g.seqOf[n]; ok {
		return g.attrBase[s-1] + int32(attr), true
	}
	return 0, false
}

// touch marks instance i as part of the dependency graph, charging the
// graph-node cost on first contact (the paper's dynamic dependency
// analysis cost).
func (g *graph) touch(i int32) {
	in := &g.infos[i]
	if !in.present {
		in.present = true
		g.stats.GraphNodes++
		g.hooks.charge(CostGraphNode)
	}
}

// scanNodeRules is the first build pass over node n's production: it
// registers every instance, records defining rules, counts dependency
// edges (remaining) and dependent-list sizes (ndep), and charges the
// simulated dependency-analysis costs exactly as the one-pass builder
// did.
func (g *graph) scanNodeRules(n *tree.Node) {
	p := n.Prod
	for ri := range p.Rules {
		r := &p.Rules[ri]
		t := g.idx(resolveNode(n, r.Target))
		g.touch(t)
		g.infos[t].rule = r
		g.infos[t].home = n
		g.defined++
		g.order = append(g.order, t)
		for _, dep := range r.Deps {
			dn, da := resolveNode(n, dep)
			if dn.Sym.Terminal {
				continue // scanner-supplied, always available
			}
			d := g.idx(dn, da)
			g.touch(d)
			g.infos[d].ndep++
			g.infos[t].remaining++
			g.stats.GraphEdges++
			g.hooks.charge(CostGraphEdge)
		}
	}
}

// finishBuild carves every dependent list out of one edge slab and runs
// the second pass linking dependents, then seeds the ready queues from
// instances with no pending dependencies, in build order.
func (g *graph) finishBuild(scanned []*tree.Node) {
	total := 0
	for i := range g.infos {
		total += int(g.infos[i].ndep)
	}
	if total > 0 {
		edges := make([]int32, total)
		off := 0
		for i := range g.infos {
			if nd := int(g.infos[i].ndep); nd > 0 {
				g.infos[i].dependents = edges[off : off : off+nd]
				off += nd
			}
		}
	}
	for _, n := range scanned {
		p := n.Prod
		for ri := range p.Rules {
			r := &p.Rules[ri]
			t := g.idx(resolveNode(n, r.Target))
			for _, dep := range r.Deps {
				dn, da := resolveNode(n, dep)
				if dn.Sym.Terminal {
					continue
				}
				d := g.idx(dn, da)
				g.infos[d].dependents = append(g.infos[d].dependents, t)
			}
		}
	}
	for _, t := range g.order {
		if g.infos[t].remaining == 0 {
			g.push(t)
		}
	}
}

func (g *graph) push(i int32) {
	in := &g.infos[i]
	if in.node.Sym.Attrs[in.attr].Priority && !g.hooks.NoPriority {
		g.readyPrio = append(g.readyPrio, i)
	} else {
		g.ready = append(g.ready, i)
	}
}

// pop takes the next ready instance: priority first, then FIFO. Drained
// queues reset to reuse their backing arrays instead of leaking
// capacity behind an advancing slice header.
func (g *graph) pop() (int32, bool) {
	if g.prioHead < len(g.readyPrio) {
		i := g.readyPrio[g.prioHead]
		g.prioHead++
		if g.prioHead == len(g.readyPrio) {
			g.readyPrio = g.readyPrio[:0]
			g.prioHead = 0
		}
		return i, true
	}
	if g.readyHead < len(g.ready) {
		i := g.ready[g.readyHead]
		g.readyHead++
		if g.readyHead == len(g.ready) {
			g.ready = g.ready[:0]
			g.readyHead = 0
		}
		return i, true
	}
	return 0, false
}

// run evaluates every ready instance in topological order and returns
// how many it evaluated. Under Hooks.YieldAfterPriority it returns
// early, right after an instance whose evaluation shipped a priority
// value.
func (g *graph) run() int {
	count := 0
	g.yield, g.yielded = false, false
	for {
		i, ok := g.pop()
		if !ok {
			return count
		}
		g.evaluate(i)
		count++
		if g.yield {
			g.yield = false
			g.yielded = g.hasReady()
			return count
		}
	}
}

// hasReady reports whether an instance is waiting in a ready queue.
func (g *graph) hasReady() bool {
	return g.prioHead < len(g.readyPrio) || g.readyHead < len(g.ready)
}

func (g *graph) evaluate(i int32) {
	in := &g.infos[i]
	r := in.rule
	home := in.home
	args := g.argbuf[:len(r.Deps)]
	for k, dep := range r.Deps {
		dn, da := resolveNode(home, dep)
		args[k] = dn.Attrs[da]
	}
	v := r.Eval(args)
	in.node.Attrs[in.attr] = v
	g.hooks.charge(r.SimCost(args) + CostSchedule)
	g.stats.DynamicEvals++
	g.evaluated++
	g.markAvail(i, v)
}

func (g *graph) markAvail(i int32, v ag.Value) {
	in := &g.infos[i]
	in.avail = true
	n, a := in.node, int(in.attr)
	attr := n.Sym.Attrs[a]
	if n.Remote && attr.Kind == ag.Inherited && g.hooks.OnRemoteInh != nil {
		g.hooks.OnRemoteInh(n, a, v)
		if attr.Priority && g.hooks.YieldAfterPriority && !g.hooks.NoPriority {
			g.yield = true
		}
	}
	if n == g.root && attr.Kind == ag.Synthesized && g.hooks.OnRootSyn != nil {
		g.hooks.OnRootSyn(a, v)
	}
	if g.onInhAvail != nil && attr.Kind == ag.Inherited {
		g.onInhAvail(n, a)
	}
	for _, dep := range in.dependents {
		di := &g.infos[dep]
		di.remaining--
		if di.remaining == 0 && di.rule != nil {
			g.push(dep)
		}
	}
}

// blocked lists blocked instances for deadlock diagnostics.
func (g *graph) blocked() []string {
	var out []string
	for _, key := range g.order {
		if in := &g.infos[key]; !in.avail {
			out = append(out, fmt.Sprintf("%s.%s (missing %d)",
				in.node.Sym.Name, in.node.Sym.Attrs[in.attr].Name, in.remaining))
		}
	}
	return out
}

// resolveNode maps an attribute reference of the production at home to
// the tree node and attribute index carrying the instance.
func resolveNode(home *tree.Node, r ag.AttrRef) (*tree.Node, int) {
	if r.Occ == 0 {
		return home, r.Attr
	}
	return home.Children[r.Occ-1], r.Attr
}
