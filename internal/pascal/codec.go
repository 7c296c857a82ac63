package pascal

import (
	"encoding/binary"
	"fmt"

	"pag/internal/ag"
	"pag/internal/symtab"
)

// This file implements the conversion functions (paper §2.5) for every
// attribute of the grammar's split symbols: environments, declaration
// signatures, label bases and error lists must all be flattened to a
// contiguous representation for network transmission and rebuilt on the
// receiving machine.

// enc is a small append-only encoder.
type enc struct{ buf []byte }

func (e *enc) u(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) i(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }
func (e *enc) s(s string) { e.u(uint64(len(s))); e.buf = append(e.buf, s...) }
func (e *enc) b(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// dec is the matching decoder.
type dec struct {
	buf []byte
	pos int
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("pascal: truncated %s at offset %d", what, d.pos)
	}
}

func (d *dec) u() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.pos += n
	return v
}

func (d *dec) i() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.pos += n
	return v
}

// n reads a length or element count. Every element costs at least one
// byte, so a count the rest of the input cannot hold is malformed: it
// fails here instead of driving a huge allocation or a loop that
// outlives the input.
func (d *dec) n() int {
	v := d.u()
	if d.err == nil && v > uint64(len(d.buf)-d.pos) {
		d.fail("count")
		return 0
	}
	return int(v)
}

func (d *dec) s() string {
	n := d.n()
	if d.err != nil {
		return ""
	}
	s := string(d.buf[d.pos : d.pos+n])
	d.pos += n
	return s
}

func (d *dec) b() bool {
	if d.err != nil {
		return false
	}
	if d.pos >= len(d.buf) {
		d.fail("bool")
		return false
	}
	v := d.buf[d.pos] == 1
	d.pos++
	return v
}

// type tags for the recursive type encoding
const (
	tyBasic byte = iota + 1
	tyArray
	tyRecord
)

func encodeType(e *enc, t Type) {
	switch t := t.(type) {
	case *Basic:
		e.buf = append(e.buf, tyBasic)
		e.s(t.Name)
	case *Array:
		e.buf = append(e.buf, tyArray)
		e.i(int64(t.Lo))
		e.i(int64(t.Hi))
		encodeType(e, t.Elem)
	case *Record:
		e.buf = append(e.buf, tyRecord)
		e.u(uint64(len(t.Fields)))
		for _, f := range t.Fields {
			e.s(f.Name)
			encodeType(e, f.Type)
		}
	default:
		panic(fmt.Sprintf("pascal: cannot encode type %T", t))
	}
}

func decodeType(d *dec) Type {
	if d.err != nil {
		return ErrorType
	}
	if d.pos >= len(d.buf) {
		d.fail("type tag")
		return ErrorType
	}
	tag := d.buf[d.pos]
	d.pos++
	switch tag {
	case tyBasic:
		switch name := d.s(); name {
		case "integer":
			return IntegerType
		case "boolean":
			return BooleanType
		case "char":
			return CharType
		default:
			return ErrorType
		}
	case tyArray:
		lo := int(d.i())
		hi := int(d.i())
		return &Array{Lo: lo, Hi: hi, Elem: decodeType(d)}
	case tyRecord:
		n := d.n()
		fields := make([]Field, 0, n)
		for i := 0; i < n; i++ {
			name := d.s()
			fields = append(fields, Field{Name: name, Type: decodeType(d)})
		}
		return NewRecord(fields)
	default:
		d.fail("type tag")
		return ErrorType
	}
}

func encodeEntry(e *enc, ent *Entry) {
	e.s(ent.Name)
	e.u(uint64(ent.Kind))
	encodeType(e, entryType(ent))
	e.i(int64(ent.Level))
	e.i(int64(ent.Offset))
	e.b(ent.ByRef)
	e.i(int64(ent.Value))
	e.s(ent.Label)
	e.u(uint64(len(ent.Params)))
	for _, p := range ent.Params {
		e.s(p.Name)
		e.b(p.ByRef)
		encodeType(e, p.Type)
	}
}

// entryType guards against nil types (procedures have none).
func entryType(ent *Entry) Type {
	if ent.Type == nil {
		return ErrorType
	}
	return ent.Type
}

func decodeEntry(d *dec) *Entry {
	ent := &Entry{}
	ent.Name = d.s()
	ent.Kind = EntryKind(d.u())
	ent.Type = decodeType(d)
	ent.Level = int(d.i())
	ent.Offset = int(d.i())
	ent.ByRef = d.b()
	ent.Value = int(d.i())
	ent.Label = d.s()
	n := d.n()
	for i := 0; i < n; i++ {
		p := Param{Name: d.s(), ByRef: d.b()}
		p.Type = decodeType(d)
		ent.Params = append(ent.Params, p)
	}
	return ent
}

// envCodec is the st_put/st_get pair for environment attributes.
type envCodec struct{}

func (envCodec) Encode(v ag.Value) ([]byte, error) {
	env, ok := v.(*Env)
	if !ok {
		return nil, fmt.Errorf("pascal: env attribute holds %T", v)
	}
	e := &enc{}
	e.i(int64(env.Level))
	e.i(int64(env.NextFree))
	entries := env.Entries()
	e.u(uint64(len(entries)))
	for _, ent := range entries {
		encodeEntry(e, ent)
	}
	return e.buf, nil
}

func (envCodec) Decode(data []byte) (ag.Value, error) {
	d := &dec{buf: data}
	level := int(d.i())
	nextFree := int(d.i())
	n := d.n()
	// Entries arrive in key order; rebuild a balanced tree rather than
	// inserting sorted keys one by one (which would degenerate the BST
	// and destroy the O(log n) lookups of paper §4.3).
	entries := make([]symtab.Entry, 0, n)
	for i := 0; i < n; i++ {
		ent := decodeEntry(d)
		entries = append(entries, symtab.Entry{Name: ent.Name, Val: ent})
	}
	if d.err != nil {
		return nil, d.err
	}
	return &Env{tab: symtab.FromEntries(entries), Level: level, NextFree: nextFree}, nil
}

// declCodec serializes []*DeclSig (phase-1 signatures).
type declCodec struct{}

func (declCodec) Encode(v ag.Value) ([]byte, error) {
	sigs, ok := v.([]*DeclSig)
	if !ok && v != nil {
		return nil, fmt.Errorf("pascal: decl attribute holds %T", v)
	}
	e := &enc{}
	e.u(uint64(len(sigs)))
	for _, s := range sigs {
		e.u(uint64(s.Kind))
		e.s(s.Name)
		t := s.Type
		if t == nil {
			t = ErrorType
		}
		encodeType(e, t)
		e.i(int64(s.Value))
		e.u(uint64(len(s.Params)))
		for _, p := range s.Params {
			e.s(p.Name)
			e.b(p.ByRef)
			encodeType(e, p.Type)
		}
	}
	return e.buf, nil
}

func (declCodec) Decode(data []byte) (ag.Value, error) {
	d := &dec{buf: data}
	n := d.n()
	sigs := make([]*DeclSig, 0, n)
	for i := 0; i < n; i++ {
		s := &DeclSig{}
		s.Kind = EntryKind(d.u())
		s.Name = d.s()
		s.Type = decodeType(d)
		s.Value = int(d.i())
		np := d.n()
		for j := 0; j < np; j++ {
			p := Param{Name: d.s(), ByRef: d.b()}
			p.Type = decodeType(d)
			s.Params = append(s.Params, p)
		}
		sigs = append(sigs, s)
	}
	if d.err != nil {
		return nil, d.err
	}
	return sigs, nil
}

// intCodec serializes int attributes (label bases and counts).
type intCodec struct{}

func (intCodec) Encode(v ag.Value) ([]byte, error) {
	n, ok := v.(int)
	if !ok {
		return nil, fmt.Errorf("pascal: int attribute holds %T", v)
	}
	return binary.AppendVarint(nil, int64(n)), nil
}

func (intCodec) Decode(data []byte) (ag.Value, error) {
	n, k := binary.Varint(data)
	if k <= 0 {
		return nil, fmt.Errorf("pascal: bad int encoding")
	}
	return int(n), nil
}

// stringCodec serializes string attributes (procedure labels).
type stringCodec struct{}

func (stringCodec) Encode(v ag.Value) ([]byte, error) {
	s, ok := v.(string)
	if !ok {
		return nil, fmt.Errorf("pascal: string attribute holds %T", v)
	}
	return []byte(s), nil
}

func (stringCodec) Decode(data []byte) (ag.Value, error) {
	return string(data), nil
}

// errsCodec serializes []string semantic-error lists.
type errsCodec struct{}

func (errsCodec) Encode(v ag.Value) ([]byte, error) {
	var list []string
	if v != nil {
		var ok bool
		list, ok = v.([]string)
		if !ok {
			return nil, fmt.Errorf("pascal: errs attribute holds %T", v)
		}
	}
	e := &enc{}
	e.u(uint64(len(list)))
	for _, s := range list {
		e.s(s)
	}
	return e.buf, nil
}

func (errsCodec) Decode(data []byte) (ag.Value, error) {
	d := &dec{buf: data}
	n := d.n()
	var list []string
	for i := 0; i < n; i++ {
		list = append(list, d.s())
	}
	if d.err != nil {
		return nil, d.err
	}
	return list, nil
}
