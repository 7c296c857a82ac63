package tree

import (
	"pag/internal/ag"
	"pag/internal/arena"
)

// Builder constructs trees out of slabs, the storage discipline of
// paper §4.3 ("storage allocation is extremely fast throughout since we
// make no provision for reusing memory"): nodes, attribute slots and
// child-pointer slices are carved from large backing arrays, so a tree
// of n nodes costs O(n/slab size) allocations for its structure instead
// of three or four per node. Builder.New and Builder.NewTerminal run
// the same checks, panic with the same messages and compute the same
// sizes as New and NewTerminal, so a tree built either way is equal
// node for node and encodes and hashes identically.
//
// The parsers and Decode build through a Builder. Every node it hands
// out lives as long as any node of the same slab is reachable, which
// for a parse tree is the whole tree. The zero value is ready to use;
// a Builder is not safe for concurrent use, so give each parse or
// decode its own.
type Builder struct {
	nodes arena.Arena[Node]
	vals  arena.Slab[ag.Value]
	kids  arena.Slab[*Node]
}

// New creates an interior node for production p with the given
// children, like the package-level New. The children slice is copied,
// so the caller may reuse it.
func (b *Builder) New(p *ag.Production, children ...*Node) *Node {
	checkChildren(p, children)
	n := b.nodes.New()
	n.Sym, n.Prod = p.LHS, p
	n.Attrs = b.vals.Make(len(p.LHS.Attrs))
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
	n.Attrs = b.vals.Make(len(sym.Attrs))
	return n
}
