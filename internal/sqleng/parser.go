package sqleng

import (
	"fmt"
	"strconv"
	"strings"

	"semandaq/internal/types"
)

// ParseError reports a syntax error with the offending token position.
type ParseError struct {
	Pos int
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("sql: parse error at byte %d: %s", e.Pos, e.Msg)
}

// parser consumes a token stream.
type parser struct {
	toks []token
	i    int
}

// Parse parses a single SQL statement (a trailing semicolon is allowed): a
// SELECT or an EXPLAIN SELECT. Anything else is a *ParseError.
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(tokSymbol, ";")
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input %q", p.peek().text)
	}
	return st, nil
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }
func (p *parser) advance() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

// accept consumes the next token if it matches kind and text.
func (p *parser) accept(kind tokenKind, text string) bool {
	t := p.peek()
	if t.kind == kind && t.text == text {
		p.advance()
		return true
	}
	return false
}

// acceptKeyword consumes the next token if it is the given keyword.
func (p *parser) acceptKeyword(kw string) bool { return p.accept(tokKeyword, kw) }

// expect consumes a token of the given kind/text or fails.
func (p *parser) expect(kind tokenKind, text string) (token, error) {
	t := p.peek()
	if t.kind == kind && t.text == text {
		return p.advance(), nil
	}
	return token{}, p.errorf("expected %q, got %q", text, t.text)
}

// expectIdent consumes an identifier and returns its text.
func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind == tokIdent {
		p.advance()
		return t.text, nil
	}
	return "", p.errorf("expected identifier, got %q", t.text)
}

func (p *parser) errorf(format string, args ...any) error {
	return &ParseError{Pos: p.peek().pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errorf("expected statement keyword, got %q", t.text)
	}
	switch t.text {
	case "SELECT":
		return p.parseSelect()
	case "EXPLAIN":
		p.advance()
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Select: sel}, nil
	default:
		return nil, p.errorf("unsupported statement %q", t.text)
	}
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	st := &SelectStmt{Limit: -1}
	st.Distinct = p.acceptKeyword("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if p.acceptKeyword("FROM") {
		for {
			fi, err := p.parseFromItem()
			if err != nil {
				return nil, err
			}
			st.From = append(st.From, fi)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		for {
			left := false
			if p.acceptKeyword("LEFT") {
				left = true
			} else if p.acceptKeyword("INNER") {
				// optional INNER prefix
			} else if p.peek().kind == tokKeyword && p.peek().text == "JOIN" {
				// bare JOIN
			} else {
				break
			}
			if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
				return nil, err
			}
			fi, err := p.parseFromItem()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokKeyword, "ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.Joins = append(st.Joins, JoinClause{Left: left, Item: fi, On: on})
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Having = e
	}
	if p.acceptKeyword("ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			oi := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				oi.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			st.OrderBy = append(st.OrderBy, oi)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.parseNonNegInt()
		if err != nil {
			return nil, err
		}
		st.Limit = n
	}
	if p.acceptKeyword("OFFSET") {
		n, err := p.parseNonNegInt()
		if err != nil {
			return nil, err
		}
		st.Offset = n
	}
	return st, nil
}

func (p *parser) parseNonNegInt() (int, error) {
	t := p.peek()
	if t.kind != tokNumber {
		return 0, p.errorf("expected number, got %q", t.text)
	}
	p.advance()
	n, err := strconv.Atoi(t.text)
	if err != nil || n < 0 {
		return 0, p.errorf("expected non-negative integer, got %q", t.text)
	}
	return n, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	// Bare * or t.*
	if p.peek().kind == tokSymbol && p.peek().text == "*" {
		p.advance()
		return SelectItem{Star: true}, nil
	}
	if p.peek().kind == tokIdent && p.i+2 < len(p.toks) &&
		p.toks[p.i+1].kind == tokSymbol && p.toks[p.i+1].text == "." &&
		p.toks[p.i+2].kind == tokSymbol && p.toks[p.i+2].text == "*" {
		tbl := p.advance().text
		p.advance() // .
		p.advance() // *
		return SelectItem{Star: true, StarTable: tbl}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if p.peek().kind == tokIdent {
		// Implicit alias: SELECT a b
		item.Alias = p.advance().text
	}
	return item, nil
}

func (p *parser) parseFromItem() (FromItem, error) {
	name, err := p.expectIdent()
	if err != nil {
		return FromItem{}, err
	}
	fi := FromItem{Table: name, Alias: name}
	if p.acceptKeyword("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return FromItem{}, err
		}
		fi.Alias = a
	} else if p.peek().kind == tokIdent {
		fi.Alias = p.advance().text
	}
	return fi, nil
}

// Expression grammar (precedence climbing):
//   expr    := orExpr
//   orExpr  := andExpr (OR andExpr)*
//   andExpr := notExpr (AND notExpr)*
//   notExpr := NOT notExpr | predicate
//   predicate := additive ((=|<>|<|<=|>|>=|LIKE) additive
//               | IS [NOT] NULL | IS NOT DISTINCT FROM additive
//               | [NOT] IN (...) | [NOT] BETWEEN a AND b)?
//   additive := multiplicative ((+|-|'||') multiplicative)*
//   multiplicative := unary ((*|/|%) unary)*
//   unary   := - unary | primary
//   primary := literal | columnRef | funcCall | ( expr ) | CASE ...

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", E: e}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokSymbol {
		switch t.text {
		case "=", "<", ">", "<=", ">=":
			p.advance()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: t.text, L: l, R: r}, nil
		case "<>", "!=":
			p.advance()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: "<>", L: l, R: r}, nil
		}
	}
	if t.kind == tokKeyword {
		switch t.text {
		case "IS":
			p.advance()
			not := p.acceptKeyword("NOT")
			if not && p.acceptKeyword("DISTINCT") {
				// l IS NOT DISTINCT FROM r: null-safe equality.
				if _, err := p.expect(tokKeyword, "FROM"); err != nil {
					return nil, err
				}
				r, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				return &BinaryExpr{Op: opNullSafeEq, L: l, R: r}, nil
			}
			if _, err := p.expect(tokKeyword, "NULL"); err != nil {
				return nil, err
			}
			return &IsNullExpr{E: l, Not: not}, nil
		case "LIKE":
			p.advance()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: "LIKE", L: l, R: r}, nil
		case "IN":
			return p.parseInTail(l, false)
		case "BETWEEN":
			return p.parseBetweenTail(l, false)
		case "NOT":
			// l NOT IN / l NOT BETWEEN / l NOT LIKE
			p.advance()
			switch {
			case p.peek().kind == tokKeyword && p.peek().text == "IN":
				return p.parseInTail(l, true)
			case p.peek().kind == tokKeyword && p.peek().text == "BETWEEN":
				return p.parseBetweenTail(l, true)
			case p.acceptKeyword("LIKE"):
				r, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				return &UnaryExpr{Op: "NOT", E: &BinaryExpr{Op: "LIKE", L: l, R: r}}, nil
			default:
				return nil, p.errorf("expected IN, BETWEEN or LIKE after NOT")
			}
		}
	}
	return l, nil
}

func (p *parser) parseInTail(l Expr, not bool) (Expr, error) {
	if _, err := p.expect(tokKeyword, "IN"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	in := &InExpr{E: l, Not: not}
	for {
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		in.List = append(in.List, v)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return in, nil
}

func (p *parser) parseBetweenTail(l Expr, not bool) (Expr, error) {
	if _, err := p.expect(tokKeyword, "BETWEEN"); err != nil {
		return nil, err
	}
	lo, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "AND"); err != nil {
		return nil, err
	}
	hi, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return &BetweenExpr{E: l, Not: not, Lo: lo, Hi: hi}, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-" || t.text == "||") {
			p.advance()
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "*" || t.text == "/" || t.text == "%") {
			p.advance()
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tokSymbol, "-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", E: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.advance()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			return &Literal{Value: types.NewFloat(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.text)
		}
		return &Literal{Value: types.NewInt(n)}, nil
	case tokString:
		p.advance()
		return &Literal{Value: types.NewString(t.text)}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.advance()
			return &Literal{Value: types.Null}, nil
		case "TRUE":
			p.advance()
			return &Literal{Value: types.NewBool(true)}, nil
		case "FALSE":
			p.advance()
			return &Literal{Value: types.NewBool(false)}, nil
		case "CASE":
			return p.parseCase()
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			p.advance()
			return p.parseFuncTail(t.text)
		}
		return nil, p.errorf("unexpected keyword %q in expression", t.text)
	case tokIdent:
		p.advance()
		// Function call?
		if p.peek().kind == tokSymbol && p.peek().text == "(" {
			return p.parseFuncTail(strings.ToUpper(t.text))
		}
		// Qualified column t.c?
		if p.peek().kind == tokSymbol && p.peek().text == "." {
			p.advance()
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.text, Column: col}, nil
		}
		return &ColumnRef{Column: t.text}, nil
	case tokSymbol:
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected token %q in expression", t.text)
}

func (p *parser) parseCase() (Expr, error) {
	if _, err := p.expect(tokKeyword, "CASE"); err != nil {
		return nil, err
	}
	ce := &CaseExpr{}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, WhenClause{Cond: cond, Then: then})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if _, err := p.expect(tokKeyword, "END"); err != nil {
		return nil, err
	}
	return ce, nil
}

func (p *parser) parseFuncTail(name string) (Expr, error) {
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	fe := &FuncExpr{Name: name}
	if name == "COUNT" && p.accept(tokSymbol, "*") {
		fe.Star = true
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return fe, nil
	}
	fe.Distinct = p.acceptKeyword("DISTINCT")
	if !p.accept(tokSymbol, ")") {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fe.Args = append(fe.Args, a)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	return fe, nil
}
