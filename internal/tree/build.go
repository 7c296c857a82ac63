package tree

import (
	"pag/internal/ag"
	"pag/internal/arena"
)

// Builder constructs trees out of slabs, the storage discipline of
// paper §4.3 ("storage allocation is extremely fast throughout since we
// make no provision for reusing memory"): nodes, the attribute slots of
// terminals and child-pointer slices are carved from large backing arrays,
// so a tree of n nodes costs O(n/slab size) allocations for its
// structure instead of three or four per node. Only terminals get
// attribute slots, for their scanner values (see Node.Attrs): the
// evaluators keep every other instance. Builder.New and Builder.NewTerminal run the same checks,
// panic with the same messages and compute the same sizes as New and
// NewTerminal, so a tree built either way is equal node for node and
// encodes and hashes identically.
//
// The parsers and Decode build through a Builder. Every node it hands
// out lives as long as any node of the same slab is reachable, which
// for a parse tree is the whole tree, or until Clear. The zero value is
// ready to use; a Builder is not safe for concurrent use, so give each
// parse or decode its own.
type Builder struct {
	nodes arena.Arena[Node]
	vals  arena.Slab[ag.Value]
	kids  arena.Slab[*Node]
}

// New creates an interior node for production p with the given
// children and no attribute slots, like the package-level New. The
// children slice is copied, so the caller may reuse it.
func (b *Builder) New(p *ag.Production, children ...*Node) *Node {
	checkChildren(p, children)
	n := b.nodes.New()
	n.Sym, n.Prod = p.LHS, p
	n.Children = b.kids.Make(len(children))
	copy(n.Children, children)
	n.size = interiorSize(children)
	return n
}

// NewTerminal creates a terminal leaf with scanner-supplied attribute
// values (in attribute declaration order), like the package-level
// NewTerminal.
func (b *Builder) NewTerminal(sym *ag.Symbol, token string, attrs ...ag.Value) *Node {
	checkTerminal(sym)
	n := b.nodes.New()
	n.Sym, n.Token, n.size = sym, token, terminalSize(token)
	n.Attrs = b.vals.Make(len(sym.Attrs))
	copy(n.Attrs, attrs)
	return n
}

// remote creates a remote-leaf placeholder for fragment id.
func (b *Builder) remote(sym *ag.Symbol, id int) *Node {
	n := b.nodes.New()
	n.Sym, n.Remote, n.RemoteID, n.size = sym, true, id, remoteSize
	return n
}

// Clear zeroes every node, terminal attribute slot and child pointer the
// builder has handed out and keeps the slabs, so the next tree built
// through it allocates no slab the last one filled, and nothing the
// old tree referenced stays reachable through them. Nothing may hold a
// node built before Clear: it is zero storage for the next tree. A
// builder keeps every slab it fills only from its first Clear on, so
// clear a new builder first if it is to be reused whole.
func (b *Builder) Clear() {
	b.nodes.Clear()
	b.vals.Clear()
	b.kids.Clear()
}

// Slabs reports how many slabs a cleared builder keeps.
func (b *Builder) Slabs() int {
	return b.nodes.Slabs() + b.vals.Slabs() + b.kids.Slabs()
}
