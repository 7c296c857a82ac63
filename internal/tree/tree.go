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
//
// A decoded fragment has remote leaves; the pool evaluates a planned
// decomposition instead, whose leaves are ordinary interior nodes of
// the uncut tree that the evaluator is told to stop at.
type Node struct {
	Sym      *ag.Symbol
	Prod     *ag.Production
	Children []*Node
	// Attrs holds a terminal's scanner-supplied attribute values, one
	// per attribute of Sym. Interior nodes and remote leaves are built
	// without: the evaluators keep every attribute instance in their
	// own storage and never write the tree. Only the standalone
	// whole-tree entry points publish values here, on the tree they are
	// given: Static.Visit and Static.EvaluateTree on the node they are
	// called on, NewDynamic on every interior node.
	Attrs []ag.Value
	Token string

	RemoteID int
	Remote   bool

	// size is the linearized size in bytes. The constructors set it,
	// so Size never writes to a tree built through them and concurrent
	// readers of one shared tree do not race; 0 means not yet known.
	size int
}

// New creates an interior node for production p with the given
// children. The child count must match the production arity. The node
// has no attribute slots (see Node.Attrs).
func New(p *ag.Production, children ...*Node) *Node {
	checkChildren(p, children)
	return &Node{
		Sym:      p.LHS,
		Prod:     p,
		Children: children,
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
	return &Node{Sym: sym, Remote: true, RemoteID: id, size: remoteSize}
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

// CountAttrs returns the number of attribute instances in the subtree,
// counted from the grammar whether or not a node has slots for them
// (remote leaves contribute their interface attributes).
func (n *Node) CountAttrs() int {
	c := len(n.Sym.Attrs)
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
// evaluates over a planned decomposition, see Plan); tests and the
// benchmark harness use Clone for an independent copy.
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

// Spine returns the set of nodes lying on a path from root to one of
// leaves, including root itself if there is a leaf. These are exactly
// the nodes the combined evaluator processes dynamically (paper §2.4);
// all other nodes are evaluated by static visits. leaves must be nodes
// of root's subtree in preorder, none below another: the remote leaves
// of a decoded fragment (RemoteLeaves) or the cut nodes of a planned
// one (Decomposition.Leaves). The walk does not enter a leaf and stops
// at the last; with no leaves the spine is empty and no node is
// visited.
func Spine(root *Node, leaves []*Node) map[*Node]bool {
	if len(leaves) == 0 {
		return nil
	}
	spine := make(map[*Node]bool)
	var path []*Node
	next := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == leaves[next] {
			// Mark the path bottom-up; above a node already on the
			// spine everything is marked.
			for i := len(path) - 1; i >= 0 && !spine[path[i]]; i-- {
				spine[path[i]] = true
			}
			next++
			return
		}
		path = append(path, n)
		for _, c := range n.Children {
			if walk(c); next == len(leaves) {
				break
			}
		}
		path = path[:len(path)-1]
	}
	walk(root)
	return spine
}

// Equal reports structural equality of two subtrees including attribute
// values, compared by their fmt formatting; a node without slots holds
// only zero values.
func Equal(a, b *Node) bool {
	if a.Sym != b.Sym || a.Prod != b.Prod || a.Token != b.Token ||
		a.Remote != b.Remote || a.RemoteID != b.RemoteID ||
		len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Sym.Attrs {
		if fmt.Sprint(slot(a, i)) != fmt.Sprint(slot(b, i)) {
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

// slot returns the value in n's slot for attribute i, or nil if n has
// no slots.
func slot(n *Node, i int) ag.Value {
	if i < len(n.Attrs) {
		return n.Attrs[i]
	}
	return nil
}
