package pascal

import (
	"fmt"

	"pag/internal/ag"
	"pag/internal/frame"
	"pag/internal/symtab"
)

// This file implements the conversion functions (paper §2.5) for every
// attribute of the grammar's split symbols: environments, declaration
// signatures, label bases and error lists must all be flattened to a
// contiguous representation for network transmission and rebuilt on the
// receiving machine. Int attributes use ag.IntCodec; the rest are
// written with frame.Enc and read back canonically with frame.Dec.

// Type tags for the recursive type encoding: one-byte varints.
const (
	tyBasic = iota + 1
	tyArray
	tyRecord
)

// basicTypes maps a predeclared type's name back to its one instance.
var basicTypes = map[string]*Basic{
	IntegerType.Name: IntegerType, BooleanType.Name: BooleanType,
	CharType.Name: CharType, ErrorType.Name: ErrorType,
}

func encodeType(e *frame.Enc, t Type) {
	switch t := t.(type) {
	case *Basic:
		e.Uint(tyBasic)
		e.String(t.Name)
	case *Array:
		e.Uint(tyArray)
		e.Int(t.Lo)
		e.Int(t.Hi)
		encodeType(e, t.Elem)
	case *Record:
		e.Uint(tyRecord)
		e.Uint(uint64(len(t.Fields)))
		for _, f := range t.Fields {
			e.String(f.Name)
			encodeType(e, f.Type)
		}
	default:
		panic(fmt.Sprintf("pascal: cannot encode type %T", t))
	}
}

func decodeType(d *frame.Dec) Type {
	switch tag := d.Uint(); tag {
	case tyBasic:
		name := d.String()
		if b, ok := basicTypes[name]; ok {
			return b
		}
		d.Fail(fmt.Sprintf("unknown type %q", name))
	case tyArray:
		lo := d.FullInt()
		hi := d.FullInt()
		return &Array{Lo: lo, Hi: hi, Elem: decodeType(d)}
	case tyRecord:
		n := d.Count()
		fields := make([]Field, 0, n)
		for i := 0; i < n && d.Err == nil; i++ {
			name := d.String()
			fields = append(fields, Field{Name: name, Type: decodeType(d)})
		}
		return NewRecord(fields)
	default:
		d.Fail(fmt.Sprintf("type tag %d", tag))
	}
	return ErrorType
}

func encodeParams(e *frame.Enc, params []Param) {
	e.Uint(uint64(len(params)))
	for _, p := range params {
		e.String(p.Name)
		e.Flag(p.ByRef)
		encodeType(e, p.Type)
	}
}

func decodeParams(d *frame.Dec) []Param {
	var params []Param
	for i, n := 0, d.Count(); i < n && d.Err == nil; i++ {
		p := Param{Name: d.String(), ByRef: d.Flag()}
		p.Type = decodeType(d)
		params = append(params, p)
	}
	return params
}

func encodeEntry(e *frame.Enc, ent *Entry) {
	e.String(ent.Name)
	e.Uint(uint64(ent.Kind))
	encodeType(e, entryType(ent))
	e.Int(ent.Level)
	e.Int(ent.Offset)
	e.Flag(ent.ByRef)
	e.Int(ent.Value)
	e.String(ent.Label)
	encodeParams(e, ent.Params)
}

// entryType guards against nil types (procedures have none).
func entryType(ent *Entry) Type {
	if ent.Type == nil {
		return ErrorType
	}
	return ent.Type
}

func decodeEntry(d *frame.Dec) *Entry {
	ent := &Entry{}
	ent.Name = d.String()
	ent.Kind = EntryKind(d.Counter())
	ent.Type = decodeType(d)
	ent.Level = d.FullInt()
	ent.Offset = d.FullInt()
	ent.ByRef = d.Flag()
	ent.Value = d.FullInt()
	ent.Label = d.String()
	ent.Params = decodeParams(d)
	return ent
}

// envCodec is the st_put/st_get pair for environment attributes.
type envCodec struct{}

func (envCodec) Encode(v ag.Value) ([]byte, error) {
	env, ok := v.(*Env)
	if !ok {
		return nil, fmt.Errorf("pascal: env attribute holds %T", v)
	}
	e := &frame.Enc{}
	e.Int(env.Level)
	e.Int(env.NextFree)
	entries := env.Entries()
	e.Uint(uint64(len(entries)))
	for _, ent := range entries {
		encodeEntry(e, ent)
	}
	return e.Buf, nil
}

func (envCodec) Decode(data []byte) (ag.Value, error) {
	d := frame.NewDec(data, "pascal")
	level := d.FullInt()
	nextFree := d.FullInt()
	n := d.Count()
	// Entries arrive in key order; rebuild a balanced tree rather than
	// inserting sorted keys one by one (which would degenerate the BST
	// and destroy the O(log n) lookups of paper §4.3). FromEntries
	// trusts that order, so a duplicate or out-of-order entry is an
	// error here.
	entries := make([]symtab.Entry, 0, n)
	for i := 0; i < n && d.Err == nil; i++ {
		ent := decodeEntry(d)
		if i > 0 && !symtab.KeyLess(entries[i-1].Name, ent.Name) {
			d.Fail(fmt.Sprintf("env entry %q out of key order", ent.Name))
		}
		entries = append(entries, symtab.Entry{Name: ent.Name, Val: ent})
	}
	if err := d.End(); err != nil {
		return nil, err
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
	e := &frame.Enc{}
	e.Uint(uint64(len(sigs)))
	for _, s := range sigs {
		e.Uint(uint64(s.Kind))
		e.String(s.Name)
		t := s.Type
		if t == nil {
			t = ErrorType
		}
		encodeType(e, t)
		e.Int(s.Value)
		encodeParams(e, s.Params)
	}
	return e.Buf, nil
}

func (declCodec) Decode(data []byte) (ag.Value, error) {
	d := frame.NewDec(data, "pascal")
	n := d.Count()
	sigs := make([]*DeclSig, 0, n)
	for i := 0; i < n && d.Err == nil; i++ {
		s := &DeclSig{}
		s.Kind = EntryKind(d.Counter())
		s.Name = d.String()
		s.Type = decodeType(d)
		s.Value = d.FullInt()
		s.Params = decodeParams(d)
		sigs = append(sigs, s)
	}
	if err := d.End(); err != nil {
		return nil, err
	}
	return sigs, nil
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
	e := &frame.Enc{}
	e.Uint(uint64(len(list)))
	for _, s := range list {
		e.String(s)
	}
	return e.Buf, nil
}

func (errsCodec) Decode(data []byte) (ag.Value, error) {
	d := frame.NewDec(data, "pascal")
	n := d.Count()
	var list []string
	for i := 0; i < n && d.Err == nil; i++ {
		list = append(list, d.String())
	}
	if err := d.End(); err != nil {
		return nil, err
	}
	return list, nil
}
