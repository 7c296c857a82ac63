package rope

// ConcatAll concatenates any number of ropes.
func ConcatAll(rs ...*Rope) *Rope {
	var out *Rope
	for _, r := range rs {
		out = Concat(out, r)
	}
	return out
}

// WireSize returns the network size of the descriptor in bytes
// (5 bytes per handle leaf: handle plus structure overhead).
func (d *Descriptor) WireSize() int { return 5 * d.NumHandles() }
