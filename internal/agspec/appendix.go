package agspec

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"time"

	"pag/internal/ag"
	"pag/internal/symtab"
)

// AppendixSpec is the paper's appendix grammar in the specification
// language: arithmetic expressions with let-bound constants. Parse it
// with AppendixLibrary to obtain a working grammar.
const AppendixSpec = `
# Attribute grammar for expressions with constant declarations
# (paper appendix A).
%name IDENTIFIER NUMBER
%keyword LET IN NI '=' '+' '*' '(' ')'
%nosplit main_expr : syn value
%nosplit expr : syn value, inh stab priority
%split block 40 : syn value, inh stab
%start main_expr printn
%left '+'
%left '*'
%%
main_expr : expr
    $.value = $1.value ;
    $1.stab = st_create() ;

expr : expr '+' expr
    $.value = add($1.value, $3.value) ;
    $1.stab = $.stab ;
    $3.stab = $.stab ;

expr : expr '*' expr
    $.value = mul($1.value, $3.value) ;
    $1.stab = $.stab ;
    $3.stab = $.stab ;

expr : IDENTIFIER
    $.value = st_lookup($.stab, $1.string) ;

expr : block
    $.value = $1.value ;
    $1.stab = $.stab ;

block : LET IDENTIFIER '=' expr IN expr NI
    $.value = $6.value ;
    $4.stab = $.stab ;
    $6.stab = st_add($.stab, $2.string, $4.value) ;

expr : NUMBER
    $.value = atoi($1.string) ;

expr : '(' expr ')'
    $.value = $2.value ;
    $2.stab = $.stab ;
`

// appendixIntCodec and appendixStabCodec are the conversion functions
// ("st_put and st_get", appendix) for the split symbol's attributes.
type appendixIntCodec struct{}

func (appendixIntCodec) Encode(v ag.Value) ([]byte, error) {
	return binary.AppendVarint(nil, int64(v.(int))), nil
}

func (appendixIntCodec) Decode(data []byte) (ag.Value, error) {
	n, k := binary.Varint(data)
	if k <= 0 {
		return nil, fmt.Errorf("agspec: bad int encoding")
	}
	return int(n), nil
}

type appendixStabCodec struct{}

func (appendixStabCodec) Encode(v ag.Value) ([]byte, error) {
	t := v.(*symtab.Table)
	var buf []byte
	entries := t.Entries()
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = binary.AppendUvarint(buf, uint64(len(e.Name)))
		buf = append(buf, e.Name...)
		buf = binary.AppendVarint(buf, int64(e.Val.(int)))
	}
	return buf, nil
}

func (appendixStabCodec) Decode(data []byte) (ag.Value, error) {
	pos := 0
	count, k := binary.Uvarint(data[pos:])
	if k <= 0 {
		return nil, fmt.Errorf("agspec: bad stab encoding")
	}
	pos += k
	t := symtab.New()
	for i := uint64(0); i < count; i++ {
		n, k := binary.Uvarint(data[pos:])
		if k <= 0 || n > uint64(len(data)-pos-k) {
			return nil, fmt.Errorf("agspec: truncated stab name")
		}
		pos += k
		name := string(data[pos : pos+int(n)])
		pos += int(n)
		v, k := binary.Varint(data[pos:])
		if k <= 0 {
			return nil, fmt.Errorf("agspec: bad stab value")
		}
		pos += k
		t = t.Add(name, int(v))
	}
	return t, nil
}

// AppendixLibrary returns the semantic functions and conversion
// functions the appendix grammar requires — the "standard library of
// symbol table routines" the paper mentions.
func AppendixLibrary() Library {
	return Library{
		Funcs: map[string]func([]ag.Value) ag.Value{
			"st_create": func([]ag.Value) ag.Value { return symtab.New() },
			"st_add": func(a []ag.Value) ag.Value {
				return a[0].(*symtab.Table).Add(a[1].(string), a[2].(int))
			},
			"st_lookup": func(a []ag.Value) ag.Value {
				v, ok := a[0].(*symtab.Table).Lookup(a[1].(string))
				if !ok {
					return 0
				}
				return v
			},
			"add": func(a []ag.Value) ag.Value { return a[0].(int) + a[1].(int) },
			"mul": func(a []ag.Value) ag.Value { return a[0].(int) * a[1].(int) },
			"atoi": func(a []ag.Value) ag.Value {
				n, err := strconv.Atoi(a[0].(string))
				if err != nil {
					return 0
				}
				return n
			},
		},
		Costs: map[string]ag.CostFn{
			"st_add": func(a []ag.Value) time.Duration {
				return time.Duration(8+3*a[0].(*symtab.Table).Depth()) * time.Microsecond
			},
			"st_lookup": func(a []ag.Value) time.Duration {
				return time.Duration(5+2*a[0].(*symtab.Table).Depth()) * time.Microsecond
			},
		},
		Codecs: map[string]ag.Codec{
			"value": appendixIntCodec{},
			"stab":  appendixStabCodec{},
		},
	}
}
