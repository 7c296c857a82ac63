package tree

import (
	"encoding/binary"
	"fmt"
	"math"

	"pag/internal/ag"
)

// TerminalAttrs recomputes the scanner-supplied attribute values of a
// terminal from its lexeme; it is the language front end's lexical
// value function, needed when a linearized subtree is reconstructed on
// another machine.
type TerminalAttrs func(sym *ag.Symbol, token string) ([]ag.Value, error)

const (
	tagInterior byte = 1
	tagTerminal byte = 2
	tagRemote   byte = 3
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
		b = append(b, tagTerminal)
		b = binary.AppendUvarint(b, uint64(n.Sym.Index))
		b = binary.AppendUvarint(b, uint64(len(n.Token)))
		b = append(b, n.Token...)
	default:
		b = append(b, tagInterior)
		e.bufs[f] = binary.AppendUvarint(b, uint64(n.Prod.Index))
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
	b = append(b, tagRemote)
	b = binary.AppendUvarint(b, uint64(sym.Index))
	return binary.AppendUvarint(b, uint64(id))
}

// SplitEncode plans the decomposition Decompose would make of root
// and linearizes every fragment, without writing to the tree: where
// Decompose replaces a cut subtree by a remote leaf, the fragment's
// encoding carries the remote-leaf tag instead. enc[i] equals
// Encode(Frags[i].Root) of the Decompose result byte for byte, and d
// has the same fragment IDs, parents, children, sizes and balance. It
// is the split of a runtime that ships fragments instead of evaluating
// them, so it needs no private copy of the tree and one tree can be
// split by any number of callers at once.
//
// d's fragment roots are nodes of the unmodified tree and still
// contain the subtrees cut from them: inspect the fragments through
// d's methods (Sizes, Balance, Children, Describe, Digests), which
// account for the cuts, not by walking Root.
func SplitEncode(root *Node, granularity, maxFrags int) (d *Decomposition, enc [][]byte) {
	cuts := planCuts(root, granularity, maxFrags)
	d = fromCuts(root, cuts)
	d.cuts = cuts
	e := encoder{bufs: make([][]byte, len(d.Frags)), cuts: cuts}
	for i, s := range d.Sizes() {
		e.bufs[i] = make([]byte, 0, s+s/4) // varints past 127 take two bytes
	}
	e.node(root, 0)
	if e.next != len(cuts) {
		panic(fmt.Sprintf("tree: %d of %d planned cuts not met in preorder", e.next, len(cuts)))
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
	d := decoder{g: g, data: data, str: string(data), lex: lex}
	n, err := d.node(0)
	if err != nil {
		return nil, err
	}
	if d.pos != len(data) {
		return nil, fmt.Errorf("tree: %d trailing bytes", len(data)-d.pos)
	}
	return n, nil
}

// decoder is the state of one Decode.
type decoder struct {
	g    *ag.Grammar
	data []byte
	str  string // data as a string; tokens are substrings of it
	pos  int
	lex  TerminalAttrs

	b     Builder
	stack []*Node // children of the interior nodes being decoded
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("tree: truncated or overlong varint at offset %d", d.pos)
	}
	if n > 1 && d.data[d.pos+n-1] == 0 {
		// A redundant zero group: the value would re-encode shorter.
		return 0, fmt.Errorf("tree: non-canonical varint at offset %d", d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *decoder) symbol() (*ag.Symbol, error) {
	si, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if si >= uint64(len(d.g.Symbols)) {
		return nil, fmt.Errorf("tree: symbol index %d out of range", si)
	}
	return d.g.Symbols[si], nil
}

func (d *decoder) node(depth int) (*Node, error) {
	if depth > maxDecodeDepth {
		return nil, fmt.Errorf("tree: nesting deeper than %d at offset %d", maxDecodeDepth, d.pos)
	}
	if d.pos >= len(d.data) {
		return nil, fmt.Errorf("tree: truncated encoding at offset %d", d.pos)
	}
	tag := d.data[d.pos]
	d.pos++
	switch tag {
	case tagRemote:
		sym, err := d.symbol()
		if err != nil {
			return nil, err
		}
		id, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if sym.Terminal {
			return nil, fmt.Errorf("tree: remote leaf for terminal %s", sym)
		}
		if id > math.MaxInt32 {
			return nil, fmt.Errorf("tree: remote fragment id %d out of range", id)
		}
		return d.b.remote(sym, int(id)), nil
	case tagTerminal:
		sym, err := d.symbol()
		if err != nil {
			return nil, err
		}
		ln, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if !sym.Terminal {
			return nil, fmt.Errorf("tree: terminal tag on nonterminal %s", sym)
		}
		if ln > uint64(len(d.data)-d.pos) {
			return nil, fmt.Errorf("tree: truncated token at offset %d", d.pos)
		}
		tok := d.str[d.pos : d.pos+int(ln)]
		d.pos += int(ln)
		var vals []ag.Value
		if d.lex != nil {
			if vals, err = d.lex(sym, tok); err != nil {
				return nil, fmt.Errorf("tree: terminal %s %q: %w", sym, tok, err)
			}
		}
		return d.b.NewTerminal(sym, tok, vals...), nil
	case tagInterior:
		pi, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if pi >= uint64(len(d.g.Prods)) {
			return nil, fmt.Errorf("tree: production index %d out of range", pi)
		}
		p := d.g.Prods[pi]
		base := len(d.stack)
		for i, want := range p.RHS {
			c, err := d.node(depth + 1)
			if err != nil {
				return nil, err
			}
			if c.Sym != want {
				return nil, fmt.Errorf("tree: production %s child %d: want %s, got %s", p, i, want, c.Sym)
			}
			d.stack = append(d.stack, c)
		}
		n := d.b.New(p, d.stack[base:]...)
		d.stack = d.stack[:base]
		return n, nil
	default:
		return nil, fmt.Errorf("tree: bad tag %d at offset %d", tag, d.pos-1)
	}
}
