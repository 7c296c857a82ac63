package ag

// BoolValue boxes a bool. Both values are interned by the Go runtime,
// so this never allocates; it exists for symmetry with IntValue.
func BoolValue(b bool) Value { return b }
