// Package rope implements the string representation of paper §4.3:
// binary trees with the actual text residing in the leaves, making
// concatenation a constant-time operation. Code attributes of the
// generated compiler are ropes, so assembling a program from per-node
// snippets costs O(#concatenations), not O(total length²).
//
// The package also provides the librarian descriptors of paper §4.3: a
// descriptor mirrors a rope's shape but carries only handles to strings
// stored at the string-librarian process, so only the descriptor — not
// the text — travels up the evaluator process tree.
package rope

import (
	"io"
	"strings"
)

// Rope is an immutable string. The nil *Rope is the empty string.
type Rope struct {
	left, right *Rope  // interior node: concatenation
	leaf        string // leaf node: text
	n           int
}

// Leaf returns a rope holding the given text.
func Leaf(s string) *Rope {
	if s == "" {
		return nil
	}
	return &Rope{leaf: s, n: len(s)}
}

// Concat concatenates two ropes in O(1).
func Concat(a, b *Rope) *Rope {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &Rope{left: a, right: b, n: a.n + b.n}
}

// Len returns the length in bytes.
func (r *Rope) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Leaves calls f on each leaf's text, left to right.
func (r *Rope) Leaves(f func(s string)) {
	if r == nil {
		return
	}
	if r.left == nil && r.right == nil {
		f(r.leaf)
		return
	}
	r.left.Leaves(f)
	r.right.Leaves(f)
}

// String flattens the rope in O(n). A single leaf is returned without
// copying.
func (r *Rope) String() string {
	if r == nil {
		return ""
	}
	if r.left == nil && r.right == nil {
		return r.leaf
	}
	var b strings.Builder
	b.Grow(r.n)
	r.Leaves(func(s string) { b.WriteString(s) })
	return b.String()
}

// WriteTo writes the flattened rope to w.
func (r *Rope) WriteTo(w io.Writer) (int64, error) {
	if r == nil {
		return 0, nil
	}
	var total int64
	var err error
	r.Leaves(func(s string) {
		if err != nil {
			return
		}
		var k int
		k, err = io.WriteString(w, s)
		total += int64(k)
	})
	return total, err
}

// Depth returns the height of the rope tree.
func (r *Rope) Depth() int {
	if r == nil {
		return 0
	}
	l, ri := r.left.Depth(), r.right.Depth()
	if l > ri {
		return l + 1
	}
	return ri + 1
}

// NumLeaves returns the number of leaves.
func (r *Rope) NumLeaves() int {
	if r == nil {
		return 0
	}
	if r.left == nil && r.right == nil {
		return 1
	}
	return r.left.NumLeaves() + r.right.NumLeaves()
}
