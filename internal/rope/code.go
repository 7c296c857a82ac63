package rope

import (
	"fmt"
	"strings"

	"pag/internal/frame"
)

// Code is the code-attribute string type of the parallel compiler. It
// unifies local text (Rope), references to text stored at the string
// librarian (Descriptor), and O(1) concatenations of the two (Cat).
// This is the paper's observation (§4.3) that enabling the string
// librarian requires changing only "the implementation of the standard
// string data type used for code attributes".
type Code interface {
	// CodeLen is the length in bytes of the described text.
	CodeLen() int
	walk(text func(s string), handle func(h int32, n int))
}

// CodeLen implements Code for *Rope.
func (r *Rope) CodeLen() int { return r.Len() }

func (r *Rope) walk(text func(string), _ func(int32, int)) {
	r.Leaves(text)
}

// CodeLen implements Code for *Descriptor.
func (d *Descriptor) CodeLen() int { return d.Len() }

func (d *Descriptor) walk(_ func(string), handle func(int32, int)) {
	if d == nil {
		return
	}
	if d.left == nil && d.right == nil {
		handle(d.handle, d.n)
		return
	}
	d.left.walk(nil, handle)
	d.right.walk(nil, handle)
}

// Cat is the O(1) concatenation of two Code values.
type Cat struct {
	left, right Code
	n           int
}

func (c *Cat) CodeLen() int { return c.n }

func (c *Cat) walk(text func(string), handle func(int32, int)) {
	c.left.walk(text, handle)
	c.right.walk(text, handle)
}

// CatCode concatenates Code values in O(1) per operand. Nil and
// zero-length operands are dropped.
func CatCode(cs ...Code) Code {
	var out Code
	for _, c := range cs {
		if c == nil || c.CodeLen() == 0 {
			continue
		}
		if out == nil {
			out = c
			continue
		}
		out = &Cat{left: out, right: c, n: out.CodeLen() + c.CodeLen()}
	}
	return out
}

// Text is shorthand for a literal code snippet.
func Text(s string) Code { return Leaf(s) }

// WalkCode traverses the leaves of a Code value left to right, calling
// text for literal runs and handle for librarian references.
func WalkCode(c Code, text func(s string), handle func(h int32, n int)) {
	if c == nil {
		return
	}
	c.walk(text, handle)
}

// FlattenCode resolves a Code value to a plain string; lookup resolves
// librarian handles (nil lookup panics on handles). A single leaf is
// returned without copying.
func FlattenCode(c Code, lookup func(h int32) string) string {
	if c == nil {
		return ""
	}
	if r, ok := c.(*Rope); ok {
		return r.String()
	}
	var b strings.Builder
	b.Grow(c.CodeLen())
	WalkCode(c,
		func(s string) { b.WriteString(s) },
		func(h int32, _ int) { b.WriteString(lookup(h)) })
	return b.String()
}

// ShipCodec is implemented by attribute codecs that interact with the
// string librarian: instead of flattening code attributes into the
// wire message, they deposit local text at the librarian (via store)
// and transmit only a descriptor. The cluster runtime detects this
// interface and provides the store/fetch plumbing.
type ShipCodec interface {
	// EncodeShip converts a Code value for transmission. store deposits
	// one run of local text at the librarian and returns its handle, or
	// an error when the caller's handle range is exhausted.
	EncodeShip(store func(text string) (int32, error), v any) ([]byte, error)
	// DecodeShip reconstructs the Code value (as a Descriptor).
	DecodeShip(data []byte) (any, error)
}

// CodeCodec is the standard codec for code attributes.
//
// With Librarian true it implements the paper's optimization: local
// text runs are stored at the librarian once and the wire carries a
// descriptor of a few bytes per run. With Librarian false it is the
// naive implementation the paper warns about: the full code text is
// flattened into every message and re-transmitted at every level of
// the process tree.
type CodeCodec struct {
	Librarian bool
}

// Encode implements ag.Codec for the naive (no-librarian) path: the
// full code text travels in the message. It is used even when Librarian
// is set, because the cluster may run with the librarian disabled for
// the paper's §4.3 comparison; flattening only fails if the value
// already contains librarian handles (impossible in a naive run).
func (c CodeCodec) Encode(v any) ([]byte, error) {
	code, err := asCode(v)
	if err != nil {
		return nil, err
	}
	if code == nil {
		return nil, nil
	}
	var b strings.Builder
	ok := true
	WalkCode(code,
		func(s string) { b.WriteString(s) },
		func(int32, int) { ok = false })
	if !ok {
		return nil, fmt.Errorf("rope: naive codec cannot flatten librarian handles")
	}
	return []byte(b.String()), nil
}

// Decode implements ag.Codec for the naive path.
func (c CodeCodec) Decode(data []byte) (any, error) {
	return Leaf(string(data)), nil
}

// EncodeShip implements ShipCodec: maximal local text runs are stored
// at the librarian (via ToDescriptor, the one copy of the run
// aggregation logic); the result encodes the ordered handle list.
func (c CodeCodec) EncodeShip(store func(text string) (int32, error), v any) ([]byte, error) {
	code, err := asCode(v)
	if err != nil {
		return nil, err
	}
	d, err := ToDescriptor(code, store)
	if err != nil {
		return nil, err
	}
	e := frame.Enc{}
	e.Uint(uint64(d.NumHandles()))
	d.walk(nil, func(h int32, n int) {
		e.Int(int(h))
		e.Uint(uint64(n))
	})
	return e.Buf, nil
}

// DecodeShip implements ShipCodec. The payload may have crossed a real
// network, so it is treated as hostile until proven otherwise: the
// declared handle count must be coverable by the bytes present (each
// handle costs at least two), handles must fit the librarian's int32
// handle space, run lengths must be sane, and trailing garbage or an
// overlong varint is an error rather than silently ignored — a decoded
// descriptor always re-encodes to a canonical byte string.
func (c CodeCodec) DecodeShip(data []byte) (any, error) {
	in := frame.NewDec(data, "rope: descriptor")
	count := in.Uint()
	if rest := uint64(len(data) - in.Pos()); in.Err == nil && count > rest/2 {
		in.Fail(fmt.Sprintf("%d handles in %d bytes", count, rest))
	}
	var d *Descriptor
	for i := uint64(0); i < count && in.Err == nil; i++ {
		h := in.FullInt()
		if in.Err == nil && (h < 0 || int64(h) > maxInt32) {
			in.Fail(fmt.Sprintf("handle %d outside the handle space", h))
		}
		n := in.Uint()
		if in.Err == nil && n > uint64(maxInt32) {
			in.Fail(fmt.Sprintf("run length %d out of range", n))
		}
		d = ConcatDesc(d, HandleDesc(int32(h), int(n)))
	}
	if err := in.End(); err != nil {
		return nil, err
	}
	if d == nil {
		d = &Descriptor{}
	}
	return d, nil
}

// maxInt32 bounds wire-decoded handles and run lengths.
const maxInt32 = int64(^uint32(0) >> 1)

func asCode(v any) (Code, error) {
	if v == nil {
		return nil, nil
	}
	c, ok := v.(Code)
	if !ok {
		return nil, fmt.Errorf("rope: value %T is not a Code", v)
	}
	return c, nil
}
