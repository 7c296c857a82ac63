package symtab

import (
	"fmt"

	"pag/internal/frame"
)

// IntTableCodec is the st_put/st_get pair of the paper's appendix
// (§2.5): it flattens a table whose bindings are ints to its entries in
// key order, each a name and a signed varint, and rebuilds it on the
// receiving machine by Add in wire order.
type IntTableCodec struct{}

// Encode implements ag.Codec.
func (IntTableCodec) Encode(v any) ([]byte, error) {
	t, ok := v.(*Table)
	if !ok {
		return nil, fmt.Errorf("symtab: table attribute holds %T", v)
	}
	entries := t.Entries()
	e := frame.Enc{}
	e.Uint(uint64(len(entries)))
	for _, ent := range entries {
		n, ok := ent.Val.(int)
		if !ok {
			return nil, fmt.Errorf("symtab: %s is bound to %T, not an int", ent.Name, ent.Val)
		}
		e.String(ent.Name)
		e.Int(n)
	}
	return e.Buf, nil
}

// Decode implements ag.Codec. Entries must arrive in strictly
// increasing key order, as Encode writes them: a duplicate or
// out-of-order entry is an error.
func (IntTableCodec) Decode(data []byte) (any, error) {
	d := frame.NewDec(data, "symtab")
	n := d.Count()
	t, prev := New(), ""
	for i := 0; i < n && d.Err == nil; i++ {
		name := d.String()
		v := d.FullInt()
		if i > 0 && !KeyLess(prev, name) {
			d.Fail(fmt.Sprintf("entry %q out of key order", name))
		}
		t, prev = t.Add(name, v), name
	}
	if err := d.End(); err != nil {
		return nil, err
	}
	return t, nil
}
