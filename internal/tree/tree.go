// Package tree implements attributed parse trees for the parallel
// attribute grammar evaluator: construction, linearization for network
// transmission, decomposition into separately evaluated subtrees (the
// parser-side splitting of paper §2.1/§2.5), and spine marking for the
// combined evaluator (paper §2.4).
package tree

import (
	"fmt"

	"pag/internal/ag"
)

// Node is one parse-tree node. Exactly one of the following holds:
//
//   - interior node: Prod != nil, Children matches Prod.RHS;
//   - terminal leaf: Sym.Terminal, Token holds the lexeme and Attrs the
//     scanner-supplied attribute values;
//   - remote leaf: Remote is true; the node stands for a subtree that
//     is evaluated by another machine (fragment RemoteID). Its
//     synthesized attributes arrive over the network; its inherited
//     attributes are computed locally and shipped out.
type Node struct {
	Sym      *ag.Symbol
	Prod     *ag.Production
	Children []*Node
	Attrs    []ag.Value
	Token    string

	RemoteID int
	Remote   bool // packs beside Seq

	// Seq is evaluator workspace: the 1-based registration number of
	// the node within the evaluator that owns its fragment (0 =
	// unregistered). Evaluators use it to index flat, arena-backed
	// instance tables instead of per-node maps; fragments are disjoint
	// and an evaluator validates the number before trusting it, so no
	// coordination is needed.
	Seq int32

	// size is the linearized size in bytes. The constructors set it,
	// so Size never writes to a tree built through them and concurrent
	// readers of one shared tree do not race; 0 means not yet known.
	size int
}

// New creates an interior node for production p with the given
// children. The child count must match the production arity.
func New(p *ag.Production, children ...*Node) *Node {
	checkChildren(p, children)
	return &Node{
		Sym:      p.LHS,
		Prod:     p,
		Children: children,
		Attrs:    make([]ag.Value, len(p.LHS.Attrs)),
		size:     interiorSize(children),
	}
}

// checkChildren panics unless children fit production p.
func checkChildren(p *ag.Production, children []*Node) {
	if len(children) != len(p.RHS) {
		panic(fmt.Sprintf("tree: production %s expects %d children, got %d", p, len(p.RHS), len(children)))
	}
	for i, c := range children {
		if c.Sym != p.RHS[i] {
			panic(fmt.Sprintf("tree: production %s child %d: want %s, got %s", p, i, p.RHS[i], c.Sym))
		}
	}
}

// interiorSize is the linearized size of an interior node with the
// given children.
func interiorSize(children []*Node) int {
	s := 2 // node tag + production index
	for _, c := range children {
		s += c.Size()
	}
	return s
}

// terminalSize and remoteSize are the linearized sizes of leaves.
func terminalSize(token string) int { return 3 + len(token) }

const remoteSize = 4

// NewTerminal creates a terminal leaf with scanner-supplied attribute
// values (in attribute declaration order).
func NewTerminal(sym *ag.Symbol, token string, attrs ...ag.Value) *Node {
	checkTerminal(sym)
	vals := make([]ag.Value, len(sym.Attrs))
	copy(vals, attrs)
	return &Node{Sym: sym, Token: token, Attrs: vals, size: terminalSize(token)}
}

// checkTerminal panics unless sym is a terminal.
func checkTerminal(sym *ag.Symbol) {
	if !sym.Terminal {
		panic(fmt.Sprintf("tree: NewTerminal on nonterminal %s", sym))
	}
}

// newRemote creates a remote-leaf placeholder for fragment id.
func newRemote(sym *ag.Symbol, id int) *Node {
	return &Node{Sym: sym, Remote: true, RemoteID: id, Attrs: make([]ag.Value, len(sym.Attrs)), size: remoteSize}
}

// Size returns the linearized size of the subtree in bytes (the metric
// the parser compares against the grammar's minimum split sizes). The
// constructors compute it; a node assembled by hand computes it on
// first use and caches it.
func (n *Node) Size() int {
	if n.size == 0 {
		if n.Remote || n.Sym.Terminal {
			n.size = shallowSize(n)
		} else {
			n.size = interiorSize(n.Children)
		}
	}
	return n.size
}

// invalidateSizes clears cached sizes in the subtree.
func (n *Node) invalidateSizes() {
	n.size = 0
	for _, c := range n.Children {
		c.invalidateSizes()
	}
}

// Count returns the number of nodes in the subtree.
func (n *Node) Count() int {
	c := 1
	for _, ch := range n.Children {
		c += ch.Count()
	}
	return c
}

// CountAttrs returns the number of attribute instances in the subtree
// (remote leaves contribute their interface attributes).
func (n *Node) CountAttrs() int {
	c := len(n.Attrs)
	for _, ch := range n.Children {
		c += ch.CountAttrs()
	}
	return c
}

// Walk calls f on every node of the subtree in preorder.
func (n *Node) Walk(f func(*Node)) {
	f(n)
	for _, c := range n.Children {
		c.Walk(f)
	}
}

// Clone deep-copies the subtree (attribute values are shared; they are
// immutable by the purity requirement on semantic rules). The copy is
// slab-allocated: one node slab, one attribute-value slab and one
// child-pointer slab for the whole subtree — three allocations instead
// of two per node — with every node's Attrs slice carved (full-cap) out
// of the flat value slab. No runtime clones a job tree (the pool
// evaluates it in place, see SplitInPlace); tests and the benchmark
// harness use Clone for an independent copy.
func (n *Node) Clone() *Node {
	var nodes, attrs int
	var count func(*Node)
	count = func(m *Node) {
		nodes++
		attrs += len(m.Attrs)
		for _, c := range m.Children {
			count(c)
		}
	}
	count(n)

	slab := make([]Node, nodes)
	vals := make([]ag.Value, attrs)
	var kids []*Node
	if nodes > 1 {
		kids = make([]*Node, nodes-1)
	}
	var ni, vi, ki int
	var rec func(src *Node) *Node
	rec = func(src *Node) *Node {
		dst := &slab[ni]
		ni++
		dst.Sym = src.Sym
		dst.Prod = src.Prod
		dst.Token = src.Token
		dst.Remote = src.Remote
		dst.RemoteID = src.RemoteID
		dst.size = src.size
		if na := len(src.Attrs); na > 0 {
			dst.Attrs = vals[vi : vi+na : vi+na]
			vi += na
			copy(dst.Attrs, src.Attrs)
		}
		if nc := len(src.Children); nc > 0 {
			dst.Children = kids[ki : ki+nc : ki+nc]
			ki += nc
			for i, c := range src.Children {
				dst.Children[i] = rec(c)
			}
		}
		return dst
	}
	return rec(n)
}

// RemoteLeaves returns the remote leaves of the subtree in tree
// (preorder) order — the fragment's interface to the subtrees evaluated
// elsewhere. Runtimes use it to route attribute messages by fragment id
// deterministically.
func RemoteLeaves(root *Node) []*Node {
	var out []*Node
	root.Walk(func(n *Node) {
		if n.Remote {
			out = append(out, n)
		}
	})
	return out
}

// Spine returns the set of nodes lying on a path from root to some
// remote leaf, including root itself if any remote leaf exists. These
// are exactly the nodes the combined evaluator processes dynamically
// (paper §2.4); all other nodes are evaluated by static visits.
func Spine(root *Node) map[*Node]bool {
	spine := make(map[*Node]bool)
	var walk func(n *Node) bool
	walk = func(n *Node) bool {
		if n.Remote {
			return true
		}
		onSpine := false
		for _, c := range n.Children {
			if walk(c) {
				onSpine = true
			}
		}
		if onSpine {
			spine[n] = true
		}
		return onSpine
	}
	walk(root)
	return spine
}

// Equal reports structural equality of two subtrees including attribute
// values compared with ==(comparable) or fmt-formatting fallback.
func Equal(a, b *Node) bool {
	if a.Sym != b.Sym || a.Prod != b.Prod || a.Token != b.Token ||
		a.Remote != b.Remote || a.RemoteID != b.RemoteID ||
		len(a.Children) != len(b.Children) || len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for i := range a.Attrs {
		if fmt.Sprint(a.Attrs[i]) != fmt.Sprint(b.Attrs[i]) {
			return false
		}
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}
