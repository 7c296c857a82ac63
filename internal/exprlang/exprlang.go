// Package exprlang implements the attribute grammar of the paper's
// appendix: arithmetic expressions with addition, multiplication and
// let-bound constants (`let x = 2 in 1 + 3*x ni`). The nonterminal
// block is splittable, with st_put/st_get conversion functions for its
// attributes, exactly as in the appendix specification; it is the
// smallest complete language on which the full parallel machinery runs.
package exprlang

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"time"

	"pag/internal/ag"
	"pag/internal/symtab"
)

// Lang bundles the grammar with the symbol and production handles the
// parser needs.
type Lang struct {
	G *ag.Grammar

	Identifier, Number                    *ag.Symbol
	Let, In, Ni, Plus, Star, Eq, LP, RP   *ag.Symbol
	MainExpr, Expr, Block                 *ag.Symbol
	PMain, PAdd, PMul, PIdent, PBlockExpr *ag.Production
	PLet, PNum, PParen                    *ag.Production
}

// Attribute indices, fixed by declaration order.
const (
	// expr / block attributes
	AttrValue = 0 // synthesized int
	AttrStab  = 1 // inherited *symtab.Table
	// terminal attribute
	AttrString = 0
)

// BlockMinSplit is the appendix's minimum linearized size (bytes) for a
// separately processed block subtree.
const BlockMinSplit = 40

// intCodec serializes int attribute values.
type intCodec struct{}

func (intCodec) Encode(v ag.Value) ([]byte, error) {
	return binary.AppendVarint(nil, int64(v.(int))), nil
}

func (intCodec) Decode(data []byte) (ag.Value, error) {
	n, k := binary.Varint(data)
	if k <= 0 {
		return nil, fmt.Errorf("exprlang: bad int encoding")
	}
	return int(n), nil
}

// stabCodec is the appendix's st_put/st_get pair: it flattens a symbol
// table to a contiguous representation for network transmission.
type stabCodec struct{}

func (stabCodec) Encode(v ag.Value) ([]byte, error) {
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

func (stabCodec) Decode(data []byte) (ag.Value, error) {
	pos := 0
	uv := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("exprlang: bad stab encoding")
		}
		pos += n
		return v, nil
	}
	count, err := uv()
	if err != nil {
		return nil, err
	}
	t := symtab.New()
	for i := uint64(0); i < count; i++ {
		ln, err := uv()
		if err != nil {
			return nil, err
		}
		if ln > uint64(len(data)-pos) {
			return nil, fmt.Errorf("exprlang: truncated stab name")
		}
		name := string(data[pos : pos+int(ln)])
		pos += int(ln)
		val, n := binary.Varint(data[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("exprlang: bad stab value")
		}
		pos += n
		t = t.Add(name, int(val))
	}
	return t, nil
}

// Simulated costs of the semantic functions on ~1 MIPS hardware.
func arithCost([]ag.Value) time.Duration { return 4 * time.Microsecond }

func lookupCost(args []ag.Value) time.Duration {
	t := args[0].(*symtab.Table)
	return time.Duration(5+2*t.Depth()) * time.Microsecond
}

func addBindingCost(args []ag.Value) time.Duration {
	t := args[0].(*symtab.Table)
	return time.Duration(8+3*t.Depth()) * time.Microsecond
}

// New builds the appendix grammar.
func New() (*Lang, error) {
	b := ag.NewBuilder("exprlang")
	l := &Lang{}

	l.Identifier = b.Terminal("IDENTIFIER", ag.Syn("string"))
	l.Number = b.Terminal("NUMBER", ag.Syn("string"))
	l.Let = b.Terminal("LET")
	l.In = b.Terminal("IN")
	l.Ni = b.Terminal("NI")
	l.Plus = b.Terminal("'+'")
	l.Star = b.Terminal("'*'")
	l.Eq = b.Terminal("'='")
	l.LP = b.Terminal("'('")
	l.RP = b.Terminal("')'")

	value := ag.Syn("value").WithCodec(intCodec{})
	stab := ag.Inh("stab").WithCodec(stabCodec{}).WithPriority()

	l.MainExpr = b.Nonterminal("main_expr", ag.Syn("value").WithCodec(intCodec{}))
	l.Expr = b.Nonterminal("expr", value, stab)
	l.Block = b.SplitNonterminal("block", BlockMinSplit, value, stab)

	b.Start(l.MainExpr)

	l.PMain = b.Production(l.MainExpr, []*ag.Symbol{l.Expr},
		ag.Copy("value", "1.value"),
		ag.Def("1.stab", func([]ag.Value) ag.Value { return symtab.New() }),
	)
	l.PAdd = b.Production(l.Expr, []*ag.Symbol{l.Expr, l.Plus, l.Expr},
		ag.Def("value", func(a []ag.Value) ag.Value { return ag.IntValue(a[0].(int) + a[1].(int)) },
			"1.value", "3.value").WithCost(arithCost),
		ag.Copy("1.stab", "stab"),
		ag.Copy("3.stab", "stab"),
	)
	l.PMul = b.Production(l.Expr, []*ag.Symbol{l.Expr, l.Star, l.Expr},
		ag.Def("value", func(a []ag.Value) ag.Value { return ag.IntValue(a[0].(int) * a[1].(int)) },
			"1.value", "3.value").WithCost(arithCost),
		ag.Copy("1.stab", "stab"),
		ag.Copy("3.stab", "stab"),
	)
	l.PIdent = b.Production(l.Expr, []*ag.Symbol{l.Identifier},
		ag.Def("value", func(a []ag.Value) ag.Value {
			v, ok := a[0].(*symtab.Table).Lookup(a[1].(string))
			if !ok {
				return 0 // undefined identifiers evaluate to 0
			}
			return v
		}, "stab", "1.string").WithCost(lookupCost),
	)
	l.PBlockExpr = b.Production(l.Expr, []*ag.Symbol{l.Block},
		ag.Copy("value", "1.value"),
		ag.Copy("1.stab", "stab"),
	)
	// block: LET IDENTIFIER '=' expr IN expr NI
	l.PLet = b.Production(l.Block, []*ag.Symbol{l.Let, l.Identifier, l.Eq, l.Expr, l.In, l.Expr, l.Ni},
		ag.Copy("value", "6.value"),
		ag.Copy("4.stab", "stab"),
		ag.Def("6.stab", func(a []ag.Value) ag.Value {
			return a[0].(*symtab.Table).Add(a[1].(string), a[2].(int))
		}, "stab", "2.string", "4.value").WithCost(addBindingCost),
	)
	l.PNum = b.Production(l.Expr, []*ag.Symbol{l.Number},
		ag.Def("value", func(a []ag.Value) ag.Value {
			n, err := strconv.Atoi(a[0].(string))
			if err != nil {
				return 0
			}
			return n
		}, "1.string").WithCost(arithCost),
	)
	l.PParen = b.Production(l.Expr, []*ag.Symbol{l.LP, l.Expr, l.RP},
		ag.Copy("value", "2.value"),
		ag.Copy("2.stab", "stab"),
	)

	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	l.G = g
	return l, nil
}

// MustNew is New panicking on error.
func MustNew() *Lang {
	l, err := New()
	if err != nil {
		panic(err)
	}
	return l
}

// TerminalAttrs recomputes scanner attributes after network transfer.
func (l *Lang) TerminalAttrs(sym *ag.Symbol, token string) ([]ag.Value, error) {
	switch sym {
	case l.Identifier, l.Number:
		return []ag.Value{token}, nil
	default:
		return nil, nil
	}
}
