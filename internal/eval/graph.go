package eval

import (
	"fmt"
	"slices"

	"pag/internal/ag"
	"pag/internal/tree"
)

// instInfo is one row of the dependency graph: one attribute instance.
// rule is the defining rule (nil for an input: a leaf's synthesized or
// the root's inherited attribute); its operands, resolved to rows when
// the graph is built, are operands[args : args+len(rule.Deps)].
type instInfo struct {
	rule       *ag.Rule
	args       int32 // first operand in graph.operands
	dependents int32 // first dependent in graph.edges
	ndep       int32 // number of dependents
	remaining  int32 // dependencies not yet available
	owner      int32 // graph.owners index of the node the instance belongs to
	attr       int32
	present    bool // instance appears in the dependency graph
	avail      bool
	prio       bool // a priority attribute (paper §4.3)
}

// owner is a node whose instances are rows of the graph: rows
// [base, base+len(sym.Attrs)). Owner 0 is the fragment root.
type owner struct {
	sym  *ag.Symbol
	base int32
	leaf int32 // index in the evaluator's leaf list, or -1
	kid  int32 // index of the static child it roots (Combined), or -1
}

// graph is the dependency-graph core shared by the Dynamic and Combined
// evaluators. It owns every instance it evaluates: values live in vals,
// one per row of the flat instance table infos — godl's flat-matrix
// relation style applied to attribute instances — and never in the
// tree. The rows of a node are registered when the build walk reaches
// its parent, and every rule operand is resolved to its row then, so
// the evaluation loop performs no lookups and no allocation: rule
// arguments go through a reusable scratch buffer, dependent edges sit
// in one slab, and the ready queues recycle their backing arrays.
type graph struct {
	hooks Hooks

	infos    []instInfo
	vals     []ag.Value // vals[i] is row i's value
	owners   []owner
	operands []int32    // rule operands: a row, or ^k for consts[k]
	consts   []ag.Value // terminal scanner values read by rules
	edges    []int32    // dependents, carved per row

	// leafAt indexes the leaf list the evaluator was given: nodes of
	// its fragment it treats as remote leaves, in preorder. leafOwner[k]
	// is the owner of leaf k.
	leafAt    map[*tree.Node]int32
	leafOwner []int32
	kidOwners []int32 // build scratch: owners of the children being scanned

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
	// of a static child's root becomes available (it may enable the
	// child's next visit).
	onInhAvail func(kid int32, attr int)
}

func (g *graph) init(hooks Hooks, leaves []*tree.Node) {
	g.hooks = hooks
	if len(leaves) > 0 {
		g.leafAt = make(map[*tree.Node]int32, len(leaves))
		for k, n := range leaves {
			g.leafAt[n] = int32(k)
		}
		g.leafOwner = make([]int32, len(leaves))
	}
}

// reserve sizes the tables for nodes owners of rows rows in all, so
// registering them moves no row.
func (g *graph) reserve(nodes, rows int) {
	g.owners = make([]owner, 0, nodes)
	g.infos = make([]instInfo, 0, rows)
	g.vals = make([]ag.Value, 0, rows)
}

// register adds one (zeroed) row per attribute of sym and returns the
// new owner's index.
func (g *graph) register(sym *ag.Symbol, leaf int32) int32 {
	o := int32(len(g.owners))
	base := int32(len(g.infos))
	g.owners = append(g.owners, owner{sym: sym, base: base, leaf: leaf, kid: -1})
	na := len(sym.Attrs)
	// Rows are never dropped, so the room past the end is still zero.
	g.infos = slices.Grow(g.infos, na)[:int(base)+na]
	g.vals = slices.Grow(g.vals, na)[:int(base)+na]
	for a := range na {
		in := &g.infos[int(base)+a]
		in.owner, in.attr = o, int32(a)
		in.prio = sym.Attrs[a].Priority
	}
	return o
}

// build registers the rows of n's nonterminal children — a leaf of
// the list as that leaf — scans n's rules, whose own instances are
// owner self's, and hands each other nonterminal child, with its
// owner, to next, in child order.
func (g *graph) build(n *tree.Node, self int32, next func(c *tree.Node, o int32)) {
	top := len(g.kidOwners)
	for _, c := range n.Children {
		o := int32(-1)
		if !c.Sym.Terminal {
			k, leaf := g.leafAt[c]
			if !leaf {
				k = -1
			}
			if o = g.register(c.Sym, k); leaf {
				g.leafOwner[k] = o
			}
		}
		g.kidOwners = append(g.kidOwners, o)
	}
	g.scanRules(n, self, g.kidOwners[top:])
	for i, c := range n.Children {
		if o := g.kidOwners[top+i]; o >= 0 && g.owners[o].leaf < 0 {
			next(c, o)
		}
	}
	g.kidOwners = g.kidOwners[:top]
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

// scanRules is the first build pass over node n's production, whose
// own instances belong to owner self and whose children's to kids (-1
// for a terminal): it records defining rules and their operand rows,
// counts dependency edges (remaining) and dependent-list sizes (ndep),
// and charges the simulated dependency-analysis costs.
func (g *graph) scanRules(n *tree.Node, self int32, kids []int32) {
	row := func(r ag.AttrRef) int32 {
		if r.Occ == 0 {
			return g.owners[self].base + int32(r.Attr)
		}
		return g.owners[kids[r.Occ-1]].base + int32(r.Attr)
	}
	p := n.Prod
	for ri := range p.Rules {
		r := &p.Rules[ri]
		t := row(r.Target)
		g.touch(t)
		g.infos[t].rule = r
		g.infos[t].args = int32(len(g.operands))
		g.defined++
		g.order = append(g.order, t)
		for _, dep := range r.Deps {
			if dep.Occ > 0 && kids[dep.Occ-1] < 0 {
				// Scanner-supplied, always available.
				g.operands = append(g.operands, ^int32(len(g.consts)))
				g.consts = append(g.consts, n.Children[dep.Occ-1].Attrs[dep.Attr])
				continue
			}
			d := row(dep)
			g.operands = append(g.operands, d)
			g.touch(d)
			g.infos[d].ndep++
			g.infos[t].remaining++
			g.stats.GraphEdges++
			g.hooks.charge(CostGraphEdge)
		}
	}
}

// finishBuild lays every dependent list out in one edge slab, linking
// dependents in build order, then seeds the ready queues from the
// instances with no pending dependencies, in build order. maxArgs
// sizes the rule-argument scratch.
func (g *graph) finishBuild(maxArgs int) {
	g.argbuf = make([]ag.Value, maxArgs)
	total := int32(0)
	for i := range g.infos {
		in := &g.infos[i]
		in.dependents, total, in.ndep = total, total+in.ndep, 0
	}
	g.edges = make([]int32, total)
	for _, t := range g.order {
		in := &g.infos[t]
		for _, d := range g.operands[in.args : in.args+int32(len(in.rule.Deps))] {
			if d >= 0 {
				di := &g.infos[d]
				g.edges[di.dependents+di.ndep] = t
				di.ndep++
			}
		}
	}
	for _, t := range g.order {
		if g.infos[t].remaining == 0 {
			g.push(t)
		}
	}
}

// input returns the row of an input instance: attribute attr of leaf
// k of the leaf list, or of the root when k is Root.
func (g *graph) input(k, attr int) int32 {
	o := int32(0)
	if k != Root {
		o = g.leafOwner[k]
	}
	return g.owners[o].base + int32(attr)
}

func (g *graph) push(i int32) {
	if g.infos[i].prio && !g.hooks.NoPriority {
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
	args := g.argbuf[:len(r.Deps)]
	for k, o := range g.operands[in.args : in.args+int32(len(args))] {
		if o >= 0 {
			args[k] = g.vals[o]
		} else {
			args[k] = g.consts[^o]
		}
	}
	g.vals[i] = r.Eval(args)
	if g.hooks.Charge != nil {
		g.hooks.Charge(r.SimCost(args) + CostSchedule)
	}
	g.stats.DynamicEvals++
	g.evaluated++
	g.markAvail(i)
}

// markAvail makes row i's value available: it ships the value if it
// crosses the fragment boundary and unblocks the row's dependents.
func (g *graph) markAvail(i int32) {
	in := &g.infos[i]
	in.avail = true
	o := &g.owners[in.owner]
	a := int(in.attr)
	if o.sym.Attrs[a].Kind == ag.Inherited {
		if o.leaf >= 0 && g.hooks.OnRemoteInh != nil {
			g.hooks.OnRemoteInh(int(o.leaf), a, g.vals[i])
			if in.prio && g.hooks.YieldAfterPriority && !g.hooks.NoPriority {
				g.yield = true
			}
		}
		if o.kid >= 0 && g.onInhAvail != nil {
			g.onInhAvail(o.kid, a)
		}
	} else if in.owner == 0 && g.hooks.OnRootSyn != nil {
		g.hooks.OnRootSyn(a, g.vals[i])
	}
	for _, dep := range g.edges[in.dependents : in.dependents+in.ndep] {
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
			sym := g.owners[in.owner].sym
			out = append(out, fmt.Sprintf("%s.%s (missing %d)",
				sym.Name, sym.Attrs[in.attr].Name, in.remaining))
		}
	}
	return out
}
