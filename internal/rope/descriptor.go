package rope

// Descriptor mirrors a rope's concatenation structure but carries only
// handles to strings stored at the string librarian. Combining two
// descriptors is O(1), and a descriptor's network size is a few bytes
// per referenced string rather than the string length — the key to the
// result-propagation optimization of paper §4.3.
type Descriptor struct {
	left, right *Descriptor
	handle      int32 // valid at leaves
	n           int   // total described length in bytes
}

// HandleDesc returns a descriptor leaf referring to librarian entry
// handle, describing n bytes of stored text.
func HandleDesc(handle int32, n int) *Descriptor {
	return &Descriptor{handle: handle, n: n}
}

// ConcatDesc concatenates two descriptors in O(1). Nil operands are
// empty.
func ConcatDesc(a, b *Descriptor) *Descriptor {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &Descriptor{left: a, right: b, n: a.n + b.n}
}

// Len returns the total described text length.
func (d *Descriptor) Len() int {
	if d == nil {
		return 0
	}
	return d.n
}

// Handles calls f for each referenced handle, left to right.
func (d *Descriptor) Handles(f func(h int32)) {
	if d == nil {
		return
	}
	if d.left == nil && d.right == nil {
		f(d.handle)
		return
	}
	d.left.Handles(f)
	d.right.Handles(f)
}

// NumHandles returns the number of handle leaves.
func (d *Descriptor) NumHandles() int {
	c := 0
	d.Handles(func(int32) { c++ })
	return c
}

// Resolve splices the described text by looking up each handle.
func (d *Descriptor) Resolve(lookup func(h int32) string) string {
	var out *Rope
	d.Handles(func(h int32) { out = Concat(out, Leaf(lookup(h))) })
	return out.String()
}
