package parser

import (
	"fmt"
	"strconv"

	"olapdim/internal/constraint"
)

// ParseConstraint parses a dimension constraint expression.
func ParseConstraint(src string) (constraint.Expr, error) {
	tokens, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &exprParser{src: src, tokens: tokens}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf("unexpected %s after expression", p.peek().kind)
	}
	return e, nil
}

type exprParser struct {
	src    string
	tokens []token
	i      int
}

func (p *exprParser) peek() token { return p.tokens[p.i] }

func (p *exprParser) next() token {
	t := p.tokens[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *exprParser) accept(k tokenKind) (token, bool) {
	if p.peek().kind == k {
		return p.next(), true
	}
	return token{}, false
}

func (p *exprParser) expect(k tokenKind) (token, error) {
	if t, ok := p.accept(k); ok {
		return t, nil
	}
	return token{}, p.errorf("expected %s, found %s", k, p.peek().kind)
}

func (p *exprParser) errorf(format string, args ...any) error {
	return &Error{Src: p.src, Pos: p.peek().pos, Msg: fmt.Sprintf(format, args...)}
}

// parseExpr parses with the precedence ladder
// iff < implies < xor < or < and < not < primary; -> is right associative,
// the other binary operators associate left.
func (p *exprParser) parseExpr() (constraint.Expr, error) {
	return p.parseIff()
}

func (p *exprParser) parseIff() (constraint.Expr, error) {
	left, err := p.parseImplies()
	if err != nil {
		return nil, err
	}
	for {
		if _, ok := p.accept(tokDArrow); !ok {
			return left, nil
		}
		right, err := p.parseImplies()
		if err != nil {
			return nil, err
		}
		left = constraint.Iff{A: left, B: right}
	}
}

func (p *exprParser) parseImplies() (constraint.Expr, error) {
	left, err := p.parseXor()
	if err != nil {
		return nil, err
	}
	if _, ok := p.accept(tokArrow); !ok {
		return left, nil
	}
	right, err := p.parseImplies()
	if err != nil {
		return nil, err
	}
	return constraint.Implies{A: left, B: right}, nil
}

func (p *exprParser) parseXor() (constraint.Expr, error) {
	left, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	for {
		if _, ok := p.accept(tokXor); !ok {
			return left, nil
		}
		right, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		left = constraint.Xor{A: left, B: right}
	}
}

func (p *exprParser) parseOr() (constraint.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	var xs []constraint.Expr
	for {
		if _, ok := p.accept(tokOr); !ok {
			break
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		if xs == nil {
			xs = []constraint.Expr{left}
		}
		xs = append(xs, right)
	}
	if xs == nil {
		return left, nil
	}
	return constraint.Or{Xs: xs}, nil
}

func (p *exprParser) parseAnd() (constraint.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	var xs []constraint.Expr
	for {
		if _, ok := p.accept(tokAnd); !ok {
			break
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if xs == nil {
			xs = []constraint.Expr{left}
		}
		xs = append(xs, right)
	}
	if xs == nil {
		return left, nil
	}
	return constraint.And{Xs: xs}, nil
}

func (p *exprParser) parseUnary() (constraint.Expr, error) {
	if _, ok := p.accept(tokNot); ok {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return constraint.Not{X: x}, nil
	}
	return p.parsePrimary()
}

func (p *exprParser) parsePrimary() (constraint.Expr, error) {
	switch p.peek().kind {
	case tokLParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokIdent:
		switch p.peek().text {
		case "true":
			p.next()
			return constraint.True{}, nil
		case "false":
			p.next()
			return constraint.False{}, nil
		case "one":
			return p.parseOne()
		}
		return p.parseAtom()
	}
	return nil, p.errorf("expected an atom, 'one', 'true', 'false', '!' or '(', found %s", p.peek().kind)
}

// parseOne parses one(e1, e2, ...); a bare identifier "one" not followed by
// '(' is treated as a category name.
func (p *exprParser) parseOne() (constraint.Expr, error) {
	if p.tokens[p.i+1].kind != tokLParen {
		return p.parseAtom()
	}
	p.next() // one
	p.next() // (
	var xs []constraint.Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		xs = append(xs, e)
		if _, ok := p.accept(tokComma); ok {
			continue
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return constraint.One{Xs: xs}, nil
	}
}

// parseAtom parses path, rollup, through and equality atoms.
func (p *exprParser) parseAtom() (constraint.Expr, error) {
	root, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	switch p.peek().kind {
	case tokUnderscore:
		n := 1
		for j := p.i; p.tokens[j].kind == tokUnderscore && p.tokens[j+1].kind == tokIdent; j += 2 {
			n++
		}
		cats := make([]string, 1, n)
		cats[0] = root.text
		for {
			if _, ok := p.accept(tokUnderscore); !ok {
				break
			}
			t, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			cats = append(cats, t.text)
		}
		return constraint.PathAtom{Cats: cats}, nil
	case tokDot:
		p.next()
		first, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		switch p.peek().kind {
		case tokDot:
			p.next()
			second, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			switch p.peek().kind {
			case tokEq:
				return nil, p.errorf("equality atoms take the form c.ci=%q, not c.ci.cj=%q", "k", "k")
			case tokLt, tokLe, tokGt, tokGe:
				return nil, p.errorf("order atoms take the form c.ci%sk, not c.ci.cj%sk",
					p.peek().text, p.peek().text)
			}
			return constraint.ThroughAtom{RootCat: root.text, Via: first.text, Cat: second.text}, nil
		case tokEq:
			p.next()
			v, err := p.expect(tokString)
			if err != nil {
				return nil, err
			}
			return constraint.EqAtom{RootCat: root.text, Cat: first.text, Val: v.text}, nil
		case tokLt, tokLe, tokGt, tokGe:
			return p.parseCmp(root.text, first.text)
		default:
			return constraint.RollupAtom{RootCat: root.text, Cat: first.text}, nil
		}
	case tokEq:
		p.next()
		v, err := p.expect(tokString)
		if err != nil {
			return nil, err
		}
		return constraint.EqAtom{RootCat: root.text, Cat: root.text, Val: v.text}, nil
	case tokLt, tokLe, tokGt, tokGe:
		return p.parseCmp(root.text, root.text)
	}
	return nil, p.errorf("category %q must begin a path atom (%s_c), composed atom (%s.c) or equality atom (%s=\"k\")",
		root.text, root.text, root.text, root.text)
}

// parseCmp parses the operator and numeric constant of an order atom
// (Section 6 extension): c.ci < 100, c.ci >= 19.5, or the abbreviation
// c < 100 for c.c < 100.
func (p *exprParser) parseCmp(root, cat string) (constraint.Expr, error) {
	var op constraint.CmpOp
	switch p.next().kind {
	case tokLt:
		op = constraint.Lt
	case tokLe:
		op = constraint.Le
	case tokGt:
		op = constraint.Gt
	case tokGe:
		op = constraint.Ge
	}
	num, err := p.expect(tokNum)
	if err != nil {
		return nil, err
	}
	v, err := strconv.ParseFloat(num.text, 64)
	if err != nil {
		return nil, p.errorf("invalid number %q", num.text)
	}
	return constraint.CmpAtom{RootCat: root, Cat: cat, Op: op, Val: v}, nil
}
