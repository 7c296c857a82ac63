package tree

import (
	"fmt"

	"pag/internal/ag"
	"pag/internal/frame"
)

// TerminalAttrs recomputes the scanner-supplied attribute values of a
// terminal from its lexeme; it is the language front end's lexical
// value function, needed when a linearized subtree is reconstructed on
// another machine.
type TerminalAttrs func(sym *ag.Symbol, token string) ([]ag.Value, error)

const (
	tagInterior = 1
	tagTerminal = 2
	tagRemote   = 3
)

// maxDecodeDepth bounds the nesting Decode accepts: the encoding
// arrives from the network, and an adversarial chain of interior nodes
// must fail as an error rather than exhaust the goroutine stack.
const maxDecodeDepth = 1 << 18

// Encode linearizes the subtree for transmission over the network
// ("the linearized form received over the network", paper §2.4).
// Attribute values are not included: the receiving evaluator recomputes
// them; only scanner lexemes travel with the tree.
func Encode(n *Node) []byte {
	e := encoder{bufs: [][]byte{make([]byte, 0, n.Size())}}
	e.node(n, 0)
	return e.bufs[0]
}

// encoder linearizes a tree into one buffer per fragment: a child that
// roots the next planned cut gets a remote-leaf tag in its parent's
// buffer and is encoded into its own. The walk is a plain preorder
// over the whole tree and the cuts are listed in preorder, so the next
// cut is always cuts[next] — one pointer comparison per node.
type encoder struct {
	bufs [][]byte
	cuts []cut
	next int
}

func (e *encoder) node(n *Node, f int) {
	b := e.bufs[f]
	switch {
	case n.Remote:
		b = appendRemote(b, n.Sym, n.RemoteID)
	case n.Sym.Terminal:
		b = appendUint(append(b, tagTerminal), n.Sym.Index)
		b = append(appendUint(b, len(n.Token)), n.Token...)
	default:
		e.bufs[f] = appendUint(append(b, tagInterior), n.Prod.Index)
		for _, c := range n.Children {
			if e.next < len(e.cuts) && e.cuts[e.next].node == c {
				e.next++
				e.bufs[f] = appendRemote(e.bufs[f], c.Sym, e.next)
				e.node(c, e.next)
				continue
			}
			e.node(c, f)
		}
		return
	}
	e.bufs[f] = b
}

func appendRemote(b []byte, sym *ag.Symbol, id int) []byte {
	return appendUint(appendUint(append(b, tagRemote), sym.Index), id)
}

func appendUint(b []byte, v int) []byte {
	e := frame.Enc{Buf: b}
	e.Uint(uint64(v))
	return e.Buf
}

// SplitEncode plans root's decomposition (Plan) and linearizes every
// fragment, without writing to the tree: where Decompose replaces a
// cut subtree by a remote leaf, the fragment's encoding carries the
// remote-leaf tag instead. enc[i] equals Encode(Frags[i].Root) of the
// Decompose result byte for byte, and d is the planned decomposition,
// with the same fragment IDs, parents, children, sizes and balance.
// It is the split of a runtime that ships fragments instead of
// evaluating them.
func SplitEncode(root *Node, granularity, maxFrags int) (d *Decomposition, enc [][]byte) {
	d = Plan(root, granularity, maxFrags)
	e := encoder{bufs: make([][]byte, len(d.Frags)), cuts: d.cuts}
	for i, s := range d.Sizes() {
		e.bufs[i] = make([]byte, 0, s+s/4) // varints past 127 take two bytes
	}
	e.node(root, 0)
	if e.next != len(d.cuts) {
		panic(fmt.Sprintf("tree: %d of %d planned cuts not met in preorder", e.next, len(d.cuts)))
	}
	return d, e.bufs
}

// Decode reconstructs a subtree from its linearized form. lex supplies
// terminal attribute values; a nil lex leaves terminal attributes zero.
// The encoding may come from an untrusted peer: every malformed input
// — truncation, out-of-range indices, a child that does not fit its
// production, non-canonical varints, trailing bytes — is an error,
// never a panic, and an accepted input re-encodes to the same bytes.
// The result is built through a Builder, so its nodes, attribute
// values and child pointers are carved from slabs, and tokens share one
// copy of the input: a decode costs a few allocations per thousand
// nodes instead of several per node.
func Decode(g *ag.Grammar, data []byte, lex TerminalAttrs) (*Node, error) {
	return new(Builder).Decode(g, data, lex)
}

// Decode is the package-level Decode building through b: a cleared
// builder hands its kept slabs to the new tree instead of allocating
// them. On an error the nodes decoded so far stay in b's slabs.
func (b *Builder) Decode(g *ag.Grammar, data []byte, lex TerminalAttrs) (*Node, error) {
	d := decoder{Dec: *frame.NewDec(data, "tree"), g: g, str: string(data), lex: lex, b: b}
	n := d.node(0)
	if err := d.End(); err != nil {
		return nil, err
	}
	return n, nil
}

// decoder is the state of one Decode. Its frame.Dec keeps the first
// error; node returns nil once there is one.
type decoder struct {
	frame.Dec
	g   *ag.Grammar
	str string // the input as a string; tokens are substrings of it
	lex TerminalAttrs

	b     *Builder
	stack []*Node // children of the interior nodes being decoded
}

func (d *decoder) symbol() *ag.Symbol {
	si := d.Uint()
	if si >= uint64(len(d.g.Symbols)) {
		d.Fail(fmt.Sprintf("symbol index %d out of range", si))
	}
	if d.Err != nil {
		return nil
	}
	return d.g.Symbols[si]
}

func (d *decoder) node(depth int) *Node {
	if depth > maxDecodeDepth {
		d.Fail(fmt.Sprintf("nesting deeper than %d", maxDecodeDepth))
		return nil
	}
	switch tag := d.Uint(); tag { // tags are one-byte varints
	case tagRemote:
		sym := d.symbol()
		id := d.Counter()
		if d.Err == nil && sym.Terminal {
			d.Fail(fmt.Sprintf("remote leaf for terminal %s", sym))
		}
		if d.Err != nil {
			return nil
		}
		return d.b.remote(sym, id)
	case tagTerminal:
		sym := d.symbol()
		if d.Err == nil && !sym.Terminal {
			d.Fail(fmt.Sprintf("terminal tag on nonterminal %s", sym))
		}
		n := len(d.Bytes())
		if d.Err != nil {
			return nil
		}
		tok := d.str[d.Pos()-n : d.Pos()]
		var vals []ag.Value
		if d.lex != nil {
			var err error
			if vals, err = d.lex(sym, tok); err != nil {
				d.Err = fmt.Errorf("tree: terminal %s %q: %w", sym, tok, err)
				return nil
			}
		}
		return d.b.NewTerminal(sym, tok, vals...)
	case tagInterior:
		pi := d.Uint()
		if pi >= uint64(len(d.g.Prods)) {
			d.Fail(fmt.Sprintf("production index %d out of range", pi))
		}
		if d.Err != nil {
			return nil
		}
		p := d.g.Prods[pi]
		base := len(d.stack)
		for i, want := range p.RHS {
			c := d.node(depth + 1)
			if c == nil {
				return nil
			}
			if c.Sym != want {
				d.Fail(fmt.Sprintf("production %s child %d: want %s, got %s", p, i, want, c.Sym))
				return nil
			}
			d.stack = append(d.stack, c)
		}
		n := d.b.New(p, d.stack[base:]...)
		d.stack = d.stack[:base]
		return n
	default:
		d.Fail(fmt.Sprintf("bad tag %d", tag))
		return nil
	}
}
