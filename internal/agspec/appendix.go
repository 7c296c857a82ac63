package agspec

import (
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
			"value": ag.IntCodec{},
			"stab":  symtab.IntTableCodec{},
		},
	}
}
