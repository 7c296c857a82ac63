package exprlang

import (
	"fmt"
	"strings"

	"pag/internal/tree"
)

// tokKind enumerates lexical token kinds.
type tokKind int

const (
	tokEOF tokKind = iota + 1
	tokIdent
	tokNumber
	tokLet
	tokIn
	tokNi
	tokPlus
	tokStar
	tokEq
	tokLParen
	tokRParen
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func isLetter(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		start := l.pos
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case isDigit(c):
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
			l.emit(tokNumber, l.src[start:l.pos], start)
		case isLetter(c):
			for l.pos < len(l.src) && (isLetter(l.src[l.pos]) || isDigit(l.src[l.pos])) {
				l.pos++
			}
			word := l.src[start:l.pos]
			switch word {
			case "let":
				l.emit(tokLet, word, start)
			case "in":
				l.emit(tokIn, word, start)
			case "ni":
				l.emit(tokNi, word, start)
			default:
				l.emit(tokIdent, word, start)
			}
		case c == '+':
			l.pos++
			l.emit(tokPlus, "+", start)
		case c == '*':
			l.pos++
			l.emit(tokStar, "*", start)
		case c == '=':
			l.pos++
			l.emit(tokEq, "=", start)
		case c == '(':
			l.pos++
			l.emit(tokLParen, "(", start)
		case c == ')':
			l.pos++
			l.emit(tokRParen, ")", start)
		default:
			return nil, fmt.Errorf("exprlang: unexpected character %q at offset %d", c, l.pos)
		}
	}
	l.emit(tokEOF, "", l.pos)
	return l.toks, nil
}

func (l *lexer) emit(k tokKind, text string, pos int) {
	l.toks = append(l.toks, token{kind: k, text: text, pos: pos})
}

// maxNesting bounds how deeply parenthesized expressions and let-blocks
// may nest. The parser recurses once per level, so without a bound a
// source of a few megabytes of "(" would exhaust the goroutine stack —
// a fatal error no recover can catch — instead of failing as a syntax
// error. Sums and products are loops, not recursion; they are charged
// against tree.MaxListRun instead, which bounds the tree's depth.
const maxNesting = 1 << 10

// parser is a recursive-descent parser producing attributed parse
// trees over the appendix grammar's productions. Each Parse call has
// its own parser, and with it its own tree.Builder, so one Lang parses
// concurrently.
type parser struct {
	l     *Lang
	b     tree.Builder
	toks  []token
	pos   int
	depth int // nesting levels open (see maxNesting)
	lists tree.ListRuns
}

// Parse parses src into a parse tree rooted at main_expr. The tree is
// built through a tree.Builder, so its nodes, attribute slots and child
// slices come from a few slabs rather than one heap object each.
func (l *Lang) Parse(src string) (*tree.Node, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{l: l, toks: toks}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, fmt.Errorf("exprlang: trailing input at offset %d: %q", p.cur().pos, p.cur().text)
	}
	return p.b.New(l.PMain, e), nil
}

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	t := p.cur()
	if t.kind != k {
		return token{}, fmt.Errorf("exprlang: expected %s at offset %d, got %q", what, t.pos, t.text)
	}
	return p.advance(), nil
}

// expr := term ('+' term)*      (left-associative, as the appendix's
// %left declarations direct the parser generator)
func (p *parser) expr() (*tree.Node, error) {
	sum := p.lists.Open()
	left, err := p.term()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokPlus {
		p.advance()
		right, err := p.term()
		if err != nil {
			return nil, err
		}
		left = p.b.New(p.l.PAdd, left, p.b.NewTerminal(p.l.Plus, "+"), right)
		if err := p.link(&sum); err != nil {
			return nil, err
		}
	}
	p.lists.Close(sum)
	return left, nil
}

// term := factor ('*' factor)*
func (p *parser) term() (*tree.Node, error) {
	product := p.lists.Open()
	left, err := p.factor()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokStar {
		p.advance()
		right, err := p.factor()
		if err != nil {
			return nil, err
		}
		left = p.b.New(p.l.PMul, left, p.b.NewTerminal(p.l.Star, "*"), right)
		if err := p.link(&product); err != nil {
			return nil, err
		}
	}
	p.lists.Close(product)
	return left, nil
}

// link charges list l the element just added (see tree.ListRuns).
func (p *parser) link(l *tree.List) error {
	if !p.lists.Link(l) {
		return fmt.Errorf("exprlang: lists deeper than %d levels at offset %d", tree.MaxListRun, p.cur().pos)
	}
	return nil
}

func (p *parser) factor() (*tree.Node, error) {
	if p.depth >= maxNesting {
		return nil, fmt.Errorf("exprlang: nesting deeper than %d levels at offset %d", maxNesting, p.cur().pos)
	}
	p.depth++
	defer func() { p.depth-- }()
	switch t := p.cur(); t.kind {
	case tokNumber:
		p.advance()
		return p.b.New(p.l.PNum, p.b.NewTerminal(p.l.Number, t.text, t.text)), nil
	case tokIdent:
		p.advance()
		return p.b.New(p.l.PIdent, p.b.NewTerminal(p.l.Identifier, t.text, t.text)), nil
	case tokLParen:
		p.advance()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return p.b.New(p.l.PParen, p.b.NewTerminal(p.l.LP, "("), e, p.b.NewTerminal(p.l.RP, ")")), nil
	case tokLet:
		p.advance()
		id, err := p.expect(tokIdent, "identifier")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokEq, "'='"); err != nil {
			return nil, err
		}
		bound, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokIn, "'in'"); err != nil {
			return nil, err
		}
		body, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokNi, "'ni'"); err != nil {
			return nil, err
		}
		block := p.b.New(p.l.PLet,
			p.b.NewTerminal(p.l.Let, "let"),
			p.b.NewTerminal(p.l.Identifier, id.text, id.text),
			p.b.NewTerminal(p.l.Eq, "="),
			bound,
			p.b.NewTerminal(p.l.In, "in"),
			body,
			p.b.NewTerminal(p.l.Ni, "ni"),
		)
		return p.b.New(p.l.PBlockExpr, block), nil
	default:
		return nil, fmt.Errorf("exprlang: unexpected token %q at offset %d", t.text, t.pos)
	}
}

// Generate produces a deterministic expression that is a sum of the
// given number of sibling let-blocks, each containing exprsPerBlock
// multiplications — a tree that decomposes into balanced fragments.
// Its value is T(blocks)·T(exprsPerBlock) where T(n) = n(n+1)/2.
func Generate(blocks, exprsPerBlock int) string {
	var b strings.Builder
	for i := 0; i < blocks; i++ {
		if i > 0 {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "let v%d = %d in v%d*1", i, i+1, i)
		for j := 2; j <= exprsPerBlock; j++ {
			fmt.Fprintf(&b, " + v%d*%d", i, j)
		}
		b.WriteString(" ni")
	}
	return b.String()
}

// GenerateNested produces a deterministic expression of nested
// let-blocks (each block's body contains the next); its decomposition
// is a chain of spine fragments, the worst case for parallelism.
func GenerateNested(blocks, exprsPerBlock int) string {
	var b strings.Builder
	for i := 0; i < blocks; i++ {
		fmt.Fprintf(&b, "let v%d = %d in ", i, i+1)
	}
	b.WriteString("1")
	for i := 0; i < blocks; i++ {
		for j := 0; j < exprsPerBlock; j++ {
			fmt.Fprintf(&b, " + v%d*%d", i, j+1)
		}
	}
	for i := 0; i < blocks; i++ {
		b.WriteString(" ni")
	}
	return b.String()
}
