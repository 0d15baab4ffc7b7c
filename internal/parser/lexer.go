// Package parser implements a text syntax for dimension schemas and
// dimension constraints (see DESIGN.md for the grammar):
//
//	Store_City_Province                  path atom
//	Store.SaleRegion                     composed rollup atom
//	Store.City.Country                   composed through atom
//	Store.Country="Canada"               equality atom
//	Store="s1"                           abbreviation for Store.Store="s1"
//	! & | ^ -> <-> one(...) true false   connectives
//
// Schema files are line oriented:
//
//	schema locationSch
//	category Store City           # optional, edges imply categories
//	edge Store -> City
//	edge City -> State -> SaleRegion    # chains add each edge
//	constraint Store_City & Store.SaleRegion
//	# comments run to end of line
package parser

import (
	"fmt"
	"strings"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokUnderscore
	tokDot
	tokEq
	tokNot
	tokAnd
	tokOr
	tokXor
	tokArrow  // ->
	tokDArrow // <->
	tokNum    // numeric constant
	tokLt     // <
	tokLe     // <=
	tokGt     // >
	tokGe     // >=
	tokLParen
	tokRParen
	tokComma
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokString:
		return "string"
	case tokUnderscore:
		return "'_'"
	case tokDot:
		return "'.'"
	case tokEq:
		return "'='"
	case tokNot:
		return "'!'"
	case tokAnd:
		return "'&'"
	case tokOr:
		return "'|'"
	case tokXor:
		return "'^'"
	case tokArrow:
		return "'->'"
	case tokDArrow:
		return "'<->'"
	case tokNum:
		return "number"
	case tokLt:
		return "'<'"
	case tokLe:
		return "'<='"
	case tokGt:
		return "'>'"
	case tokGe:
		return "'>='"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	}
	return "unknown token"
}

type token struct {
	kind tokenKind
	text string
	pos  int // byte offset in the source
}

// Error is a parse error with position information.
type Error struct {
	Src string
	Pos int
	Msg string
}

func (e *Error) Error() string {
	line, col := 1, 1
	for i := 0; i < e.Pos && i < len(e.Src); i++ {
		if e.Src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Sprintf("parse error at %d:%d: %s", line, col, e.Msg)
}

type lexer struct {
	src    string
	pos    int
	tokens []token
}

// maxPresizedTokens caps the token slice lex sizes up front. Every token
// but EOF spans at least one byte, so len(src)+1 tokens always suffice,
// but that bound is reserved per request: a 1 MiB constraint of three
// tokens would allocate 32 MiB. Family schemas stay far below the cap and
// never grow the slice; longer input grows it by append.
const maxPresizedTokens = 4096

func lex(src string) ([]token, error) {
	l := &lexer{src: src, tokens: make([]token, 0, min(len(src)+1, maxPresizedTokens))}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case isLetter(c):
			l.lexIdent()
		case isDigit(c):
			l.lexNumber(l.pos)
		case c == '"':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		default:
			if err := l.lexPunct(); err != nil {
				return nil, err
			}
		}
	}
	l.emit(tokEOF, "", l.pos)
	return l.tokens, nil
}

func isLetter(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool {
	return isLetter(c) || isDigit(c)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// lexNumber scans [0-9]+(.[0-9]+)? starting at the current position; start
// marks the token start (it precedes l.pos when a unary minus was
// consumed).
func (l *lexer) lexNumber(start int) {
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	if l.pos+1 < len(l.src) && l.src[l.pos] == '.' && isDigit(l.src[l.pos+1]) {
		l.pos++
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
	}
	l.emit(tokNum, l.src[start:l.pos], start)
}

func (l *lexer) emit(k tokenKind, text string, pos int) {
	l.tokens = append(l.tokens, token{kind: k, text: text, pos: pos})
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
		l.pos++
	}
	l.emit(tokIdent, l.src[start:l.pos], start)
}

// lexString scans a quoted string. A string without escapes is a slice
// of the source; b collects the text of one with escapes.
func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	from := l.pos // start of the text not yet written to b
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case '"':
			text := l.src[from:l.pos]
			if b.Len() > 0 {
				b.WriteString(text)
				text = b.String()
			}
			l.pos++
			l.emit(tokString, text, start)
			return nil
		case '\\':
			if l.pos+1 >= len(l.src) {
				return &Error{Src: l.src, Pos: l.pos, Msg: "unterminated escape"}
			}
			b.WriteString(l.src[from:l.pos])
			b.WriteByte(l.src[l.pos+1])
			l.pos += 2
			from = l.pos
		case '\n':
			return &Error{Src: l.src, Pos: start, Msg: "unterminated string"}
		default:
			l.pos++
		}
	}
	return &Error{Src: l.src, Pos: start, Msg: "unterminated string"}
}

func (l *lexer) lexPunct() error {
	start := l.pos
	rest := l.src[l.pos:]
	switch {
	case strings.HasPrefix(rest, "<->"):
		l.pos += 3
		l.emit(tokDArrow, "<->", start)
	case strings.HasPrefix(rest, "->"):
		l.pos += 2
		l.emit(tokArrow, "->", start)
	case strings.HasPrefix(rest, "<="):
		l.pos += 2
		l.emit(tokLe, "<=", start)
	case strings.HasPrefix(rest, ">="):
		l.pos += 2
		l.emit(tokGe, ">=", start)
	case rest[0] == '<':
		l.pos++
		l.emit(tokLt, "<", start)
	case rest[0] == '>':
		l.pos++
		l.emit(tokGt, ">", start)
	case rest[0] == '-' && len(rest) > 1 && isDigit(rest[1]):
		l.pos++
		l.lexNumber(start)
	default:
		k := punctKind(rest[0])
		if k == tokEOF {
			return &Error{Src: l.src, Pos: start, Msg: fmt.Sprintf("unexpected character %q", rest[0])}
		}
		l.pos++
		l.emit(k, rest[:1], start)
	}
	return nil
}

// punctKind returns the kind of the one-character token c, tokEOF when
// c begins none.
func punctKind(c byte) tokenKind {
	switch c {
	case '_':
		return tokUnderscore
	case '.':
		return tokDot
	case '=':
		return tokEq
	case '!':
		return tokNot
	case '&':
		return tokAnd
	case '|':
		return tokOr
	case '^':
		return tokXor
	case '(':
		return tokLParen
	case ')':
		return tokRParen
	case ',':
		return tokComma
	}
	return tokEOF
}
