// Package symtab implements the applicative (persistent) symbol tables
// of paper §4.3: binary search trees with purely functional updates, so
// a semantic rule can produce a new symbol table sharing almost all
// structure with its input. Keys are the hash of the identifier (with
// the identifier itself as a tiebreaker), which keeps key values
// essentially uniformly distributed and the trees balanced without
// rebalancing machinery — exactly the paper's design.
package symtab

import "fmt"

type node struct {
	hash  uint32
	h     int32 // height of the subtree rooted here (leaves are 1)
	name  string
	val   any
	left  *node
	right *node
}

func height(n *node) int32 {
	if n == nil {
		return 0
	}
	return n.h
}

// reheight recomputes n's cached height from its children. Only nodes
// copied along an insertion path ever need it; shared subtrees keep
// their heights.
func (n *node) reheight() {
	l, r := height(n.left), height(n.right)
	if l > r {
		n.h = l + 1
	} else {
		n.h = r + 1
	}
}

// Table is an immutable symbol table. The zero value (and nil pointer)
// is the empty table returned by New.
type Table struct {
	root *node
	size int
}

var empty = &Table{}

// New returns the empty symbol table (the paper's st_create).
func New() *Table { return empty }

// fnv1a is the 32-bit FNV-1a hash of s.
func fnv1a(s string) uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime
	}
	return h
}

func keyLess(h1 uint32, n1 string, h2 uint32, n2 string) bool {
	if h1 != h2 {
		return h1 < h2
	}
	return n1 < n2
}

// Add returns a table identical to t except that name is bound to v
// (the paper's st_add). An existing binding for name is shadowed. The
// receiver is not modified; the result shares all untouched nodes.
func (t *Table) Add(name string, v any) *Table {
	if t == nil {
		t = empty
	}
	h := fnv1a(name)
	root, added := insert(t.root, h, name, v)
	size := t.size
	if added {
		size++
	}
	return &Table{root: root, size: size}
}

func insert(n *node, h uint32, name string, v any) (*node, bool) {
	if n == nil {
		return &node{hash: h, h: 1, name: name, val: v}, true
	}
	cp := *n
	switch {
	case h == n.hash && name == n.name:
		cp.val = v
		return &cp, false
	case keyLess(h, name, n.hash, n.name):
		l, added := insert(n.left, h, name, v)
		cp.left = l
		cp.reheight()
		return &cp, added
	default:
		r, added := insert(n.right, h, name, v)
		cp.right = r
		cp.reheight()
		return &cp, added
	}
}

// Lookup returns the binding of name (the paper's st_lookup).
func (t *Table) Lookup(name string) (any, bool) {
	if t == nil {
		return nil, false
	}
	h := fnv1a(name)
	n := t.root
	for n != nil {
		if h == n.hash && name == n.name {
			return n.val, true
		}
		if keyLess(h, name, n.hash, n.name) {
			n = n.left
		} else {
			n = n.right
		}
	}
	return nil, false
}

// Len returns the number of bindings.
func (t *Table) Len() int {
	if t == nil {
		return 0
	}
	return t.size
}

// MemBytes estimates the retained memory of the table: every reachable
// tree node plus its identifier text. Caches that retain attribute
// values across compilations (the whole-job cache's byte budget) use it
// to charge symbol tables at their real weight; structure shared with
// other persistent versions is charged to each of them, so the
// estimate never undercounts.
func (t *Table) MemBytes() int {
	if t == nil {
		return 0
	}
	const nodeCost = 56 // two pointers, hash, height, name header, val header
	bytes := 0
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		bytes += nodeCost + len(n.name)
		walk(n.left)
		walk(n.right)
	}
	walk(t.root)
	return bytes
}

// Depth returns the height of the tree (0 for the empty table). With
// hash-distributed keys it stays O(log n) in expectation. The height is
// cached per node (maintained by Add and FromEntries along copied
// paths), so Depth is O(1) — it is called by simulated rule-cost
// functions on every symbol-table operation, squarely on the
// evaluation hot path.
func (t *Table) Depth() int {
	if t == nil {
		return 0
	}
	return int(height(t.root))
}

// Entry is one binding.
type Entry struct {
	Name string
	Val  any
}

// FromEntries rebuilds a table from entries in the key order produced
// by Entries (ascending (hash, name)). The tree is built by median
// splitting, so it is perfectly balanced — important when a table is
// reconstructed from its flattened network representation, where naive
// repeated insertion of sorted keys would degenerate into a linked
// list and destroy the O(log n) lookups the paper's design depends on.
func FromEntries(entries []Entry) *Table {
	var build func(lo, hi int) *node
	build = func(lo, hi int) *node {
		if lo >= hi {
			return nil
		}
		mid := (lo + hi) / 2
		e := entries[mid]
		n := &node{
			hash:  fnv1a(e.Name),
			name:  e.Name,
			val:   e.Val,
			left:  build(lo, mid),
			right: build(mid+1, hi),
		}
		n.reheight()
		return n
	}
	return &Table{root: build(0, len(entries)), size: len(entries)}
}

// Entries returns all bindings in deterministic (hash, name) key order.
func (t *Table) Entries() []Entry {
	if t == nil {
		return nil
	}
	out := make([]Entry, 0, t.size)
	var walk func(*node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		walk(n.left)
		out = append(out, Entry{Name: n.name, Val: n.val})
		walk(n.right)
	}
	walk(t.root)
	return out
}

func (t *Table) String() string {
	return fmt.Sprintf("symtab(%d bindings)", t.Len())
}
