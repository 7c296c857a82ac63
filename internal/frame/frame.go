// Package frame holds the primitives of every binary encoding in the
// repository, and it is the only package that reads or writes a varint:
// integers are varints, byte strings a length and the raw bytes. Its
// users are the linearized subtree (internal/tree), the shipped code
// descriptors (internal/rope), the attribute conversion functions of
// paper §2.5 (ag.IntCodec, symtab.IntTableCodec and the Pascal
// grammar's codecs), the disk tier's recordings (internal/parallel) and
// the fleet's sealed wire frames (internal/fleet).
//
// A Dec reads defensively, since its input may come from another
// process or the network. It keeps the first error in Err, after which
// every read returns a zero value, so a decoder checks once at the
// end. No length or count may exceed the bytes left, so a corrupted
// prefix cannot drive a large allocation. Decoding is canonical: an
// overlong varint, a flag other than 0 or 1 and (at End) trailing
// bytes are errors, so an accepted input re-encodes to the same bytes.
package frame

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Enc appends an encoding to Buf.
type Enc struct{ Buf []byte }

// Uint appends an unsigned varint.
func (e *Enc) Uint(v uint64) { e.Buf = binary.AppendUvarint(e.Buf, v) }

// Int appends a signed (zigzag) varint.
func (e *Enc) Int(v int) { e.Buf = binary.AppendVarint(e.Buf, int64(v)) }

// Flag appends a bool as the varint 0 or 1.
func (e *Enc) Flag(b bool) {
	if b {
		e.Buf = append(e.Buf, 1)
	} else {
		e.Buf = append(e.Buf, 0)
	}
}

// Bytes appends b with its length.
func (e *Enc) Bytes(b []byte) {
	e.Uint(uint64(len(b)))
	e.Buf = append(e.Buf, b...)
}

// String appends s with its length, unescaped.
func (e *Enc) String(s string) {
	e.Uint(uint64(len(s)))
	e.Buf = append(e.Buf, s...)
}

// Dec reads an encoding made by Enc; Err is its first error.
type Dec struct {
	Err  error
	data []byte
	pos  int
	what string
}

// NewDec returns a decoder over data; what prefixes its errors.
func NewDec(data []byte, what string) *Dec { return &Dec{data: data, what: what} }

// Fail records a decode error at the current position, once.
func (d *Dec) Fail(msg string) {
	if d.Err == nil {
		d.Err = fmt.Errorf("%s: %s at %d", d.what, msg, d.pos)
	}
}

// End returns the first error or, failing that, an error if input is
// left: an accepted encoding is consumed exactly.
func (d *Dec) End() error {
	if d.Err == nil && d.pos != len(d.data) {
		d.Fail(fmt.Sprintf("%d trailing bytes", len(d.data)-d.pos))
	}
	return d.Err
}

// Pos returns the offset of the next read in the input.
func (d *Dec) Pos() int { return d.pos }

// Uint reads an unsigned varint. Most are one byte, read inline.
func (d *Dec) Uint() uint64 {
	if p := d.pos; p < len(d.data) && d.data[p] < 0x80 && d.Err == nil {
		d.pos = p + 1
		return uint64(d.data[p])
	}
	return d.uvarint()
}

func (d *Dec) uvarint() uint64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.Fail("bad uvarint")
		return 0
	}
	if n > 1 && d.data[d.pos+n-1] == 0 {
		// A redundant zero group: the value would re-encode shorter.
		d.Fail("overlong varint")
		return 0
	}
	d.pos += n
	return v
}

// Int reads a signed varint, bounded to the int32 range so a corrupted
// counter or index cannot overflow an int on any platform.
func (d *Dec) Int() int {
	v := d.FullInt()
	if v < math.MinInt32 || v > math.MaxInt32 {
		d.Fail(fmt.Sprintf("varint %d out of range", v))
		return 0
	}
	return v
}

// FullInt reads a signed varint over the whole range of int, for
// values (such as attribute integers) that Int's bound would refuse.
func (d *Dec) FullInt() int {
	u := d.Uint() // a signed varint is the zigzag of an unsigned one
	v := int64(u>>1) ^ -int64(u&1)
	if int64(int(v)) != v {
		d.Fail(fmt.Sprintf("varint %d overflows int", v))
		return 0
	}
	return int(v)
}

// Flag reads a 0/1 flag; any other value is malformed, so an accepted
// encoding is canonical.
func (d *Dec) Flag() bool {
	v := d.Uint()
	if v > 1 {
		d.Fail(fmt.Sprintf("flag %d", v))
	}
	return v == 1
}

// Counter reads a non-negative counter, bounded like Int.
func (d *Dec) Counter() int {
	v := d.Uint()
	if v > math.MaxInt32 {
		d.Fail(fmt.Sprintf("counter %d out of range", v))
		return 0
	}
	return int(v)
}

// Count reads a collection length, bounded by the bytes that could
// possibly back it (each element costs at least one byte).
func (d *Dec) Count() int {
	v := d.Uint()
	if d.Err == nil && v > uint64(len(d.data)-d.pos) {
		d.Fail(fmt.Sprintf("count %d exceeds remaining %d bytes", v, len(d.data)-d.pos))
	}
	if d.Err != nil {
		return 0
	}
	return int(v)
}

// Bytes reads a length-prefixed byte string, aliasing the input.
func (d *Dec) Bytes() []byte {
	n := d.Count()
	if d.Err != nil {
		return nil
	}
	b := d.data[d.pos : d.pos+n : d.pos+n]
	d.pos += n
	return b
}

// String reads a length-prefixed string (a copy).
func (d *Dec) String() string { return string(d.Bytes()) }
