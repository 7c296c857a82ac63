package pascal

import (
	"fmt"
	"strings"
)

// tokKind enumerates Pascal tokens.
type tokKind int

// Token kinds.
const (
	tEOF tokKind = iota + 1
	tBad         // a scanning failure; the scanner holds the error
	tIdent
	tNumber
	tString // 'text' literal (length != 1)
	tChar   // 'c' literal
	// punctuation
	tPlus
	tMinus
	tStar
	tSlash // unused by grammar (div is the keyword) but lexed
	tEq
	tNe
	tLt
	tLe
	tGt
	tGe
	tAssign
	tLParen
	tRParen
	tLBrack
	tRBrack
	tComma
	tSemi
	tColon
	tDot
	tDotDot
	// keywords
	tProgram
	tVar
	tConst
	tProcedure
	tFunction
	tBegin
	tEnd
	tIf
	tThen
	tElse
	tWhile
	tDo
	tRepeat
	tUntil
	tFor
	tTo
	tDownto
	tCase
	tOf
	tArray
	tRecord
	tDiv
	tMod
	tAnd
	tOr
	tNot
	tTrue
	tFalse
	tWrite
	tWriteln
	tRead
	tReadln

	numTokKinds // one past the largest kind, for tables indexed by kind
)

var keywords = map[string]tokKind{
	"program": tProgram, "var": tVar, "const": tConst,
	"procedure": tProcedure, "function": tFunction,
	"begin": tBegin, "end": tEnd,
	"if": tIf, "then": tThen, "else": tElse,
	"while": tWhile, "do": tDo,
	"repeat": tRepeat, "until": tUntil,
	"for": tFor, "to": tTo, "downto": tDownto,
	"case": tCase, "of": tOf,
	"array": tArray, "record": tRecord,
	"div": tDiv, "mod": tMod,
	"and": tAnd, "or": tOr, "not": tNot,
	"true": tTrue, "false": tFalse,
	"write": tWrite, "writeln": tWriteln,
	"read": tRead, "readln": tReadln,
}

// token is one lexical token.
type token struct {
	kind tokKind
	text string
	line int
}

func (t token) String() string {
	if t.kind == tEOF {
		return "end of file"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexError is a scanning failure.
type lexError struct {
	line int
	msg  string
}

func (e *lexError) Error() string { return fmt.Sprintf("pascal: line %d: %s", e.line, e.msg) }

// scanner scans Pascal source (case-insensitive keywords and
// identifiers, { } and (* *) comments, '...' string/char literals) one
// token at a time as the parser asks for it. Parsing therefore holds no
// token buffer: its memory is the tree's, and a hostile source of
// megabytes of punctuation costs nothing beyond the tokens read before
// the parser rejects it.
type scanner struct {
	src  string
	pos  int
	line int
	err  error // the first scanning failure; scan returns tBad from then on
}

// scan returns the next token: tEOF at the end of the source, forever
// after; tBad once scanning has failed, forever after, with err set.
func (s *scanner) scan() token {
	src := s.src
	for s.err == nil && s.pos < len(src) {
		switch c := src[s.pos]; {
		case c == '\n':
			s.line++
			s.pos++
		case c == ' ' || c == '\t' || c == '\r':
			s.pos++
		case c == '{': // comment
			for s.pos < len(src) && src[s.pos] != '}' {
				if src[s.pos] == '\n' {
					s.line++
				}
				s.pos++
			}
			if s.pos == len(src) {
				return s.fail("unterminated { comment")
			}
			s.pos++
		case c == '(' && s.pos+1 < len(src) && src[s.pos+1] == '*':
			s.pos += 2
			for s.pos+1 < len(src) && !(src[s.pos] == '*' && src[s.pos+1] == ')') {
				if src[s.pos] == '\n' {
					s.line++
				}
				s.pos++
			}
			if s.pos+1 >= len(src) {
				return s.fail("unterminated (* comment")
			}
			s.pos += 2
		default:
			return s.token(c)
		}
	}
	if s.err != nil {
		return token{kind: tBad, line: s.line}
	}
	return token{kind: tEOF, line: s.line}
}

// token scans the token that starts with c at s.pos.
func (s *scanner) token(c byte) token {
	src, start := s.src, s.pos
	switch {
	case c >= '0' && c <= '9':
		for s.pos < len(src) && src[s.pos] >= '0' && src[s.pos] <= '9' {
			s.pos++
		}
		return s.emit(tNumber, src[start:s.pos])
	case isIdentStart(c):
		for s.pos < len(src) && isIdentPart(src[s.pos]) {
			s.pos++
		}
		word := strings.ToLower(src[start:s.pos])
		if k, ok := keywords[word]; ok {
			return s.emit(k, word)
		}
		return s.emit(tIdent, word)
	case c == '\'':
		s.pos++
		var sb strings.Builder
		for {
			if s.pos >= len(src) || src[s.pos] == '\n' {
				return s.fail("unterminated string literal")
			}
			if src[s.pos] == '\'' {
				if s.pos+1 < len(src) && src[s.pos+1] == '\'' { // escaped quote
					sb.WriteByte('\'')
					s.pos += 2
					continue
				}
				s.pos++
				break
			}
			sb.WriteByte(src[s.pos])
			s.pos++
		}
		str := sb.String()
		if len(str) == 1 {
			return s.emit(tChar, str)
		}
		return s.emit(tString, str)
	}
	if s.pos+1 < len(src) {
		var k tokKind
		switch src[s.pos : s.pos+2] {
		case ":=":
			k = tAssign
		case "<=":
			k = tLe
		case ">=":
			k = tGe
		case "<>":
			k = tNe
		case "..":
			k = tDotDot
		}
		if k != 0 {
			s.pos += 2
			return s.emit(k, src[start:s.pos])
		}
	}
	k := singleTok[c]
	if k == 0 {
		return s.fail(fmt.Sprintf("unexpected character %q", c))
	}
	s.pos++
	return s.emit(k, src[start:s.pos])
}

func (s *scanner) emit(k tokKind, text string) token {
	return token{kind: k, text: text, line: s.line}
}

func (s *scanner) fail(msg string) token {
	s.err = &lexError{s.line, msg}
	return token{kind: tBad, line: s.line}
}

// singleTok maps a one-character token's byte to its kind (0: none).
var singleTok = [256]tokKind{
	'+': tPlus, '-': tMinus, '*': tStar, '/': tSlash,
	'=': tEq, '<': tLt, '>': tGt,
	'(': tLParen, ')': tRParen, '[': tLBrack, ']': tRBrack,
	',': tComma, ';': tSemi, ':': tColon, '.': tDot,
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}
