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

// removed names the constructs the grammar leaves out by the token that
// opens them, so that meeting one is an error saying which. Their keywords
// stay reserved.
var removed = map[string]string{
	"DISTINCT": "SELECT DISTINCT", "JOIN": "JOIN ... ON", "INNER": "INNER JOIN", "LEFT": "LEFT JOIN",
	"ORDER": "ORDER BY", "LIMIT": "LIMIT", "OFFSET": "OFFSET", "UNION": "UNION", "EXISTS": "EXISTS",
	"LIKE": "LIKE", "BETWEEN": "BETWEEN", "CASE": "CASE",
	"SUM": "aggregate SUM", "AVG": "aggregate AVG", "MIN": "aggregate MIN", "MAX": "aggregate MAX",
	"+": "arithmetic +", "-": "arithmetic -", "*": "arithmetic *", "/": "arithmetic /", "%": "arithmetic %",
	"||": "concatenation ||",
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
		return nil, p.fail("end of statement")
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
func (p *parser) expect(kind tokenKind, text string) error {
	if p.accept(kind, text) {
		return nil
	}
	return p.fail(strconv.Quote(text))
}

// expectIdent consumes an identifier and returns its text.
func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind == tokIdent {
		p.advance()
		return t.text, nil
	}
	return "", p.fail("identifier")
}

func (p *parser) errorf(format string, args ...any) error {
	return &ParseError{Pos: p.peek().pos, Msg: fmt.Sprintf(format, args...)}
}

// fail reports the next token as unexpected where want was, naming the
// construct it opens when the grammar leaves that construct out.
func (p *parser) fail(want string) error {
	t := p.peek()
	if what, ok := removed[t.text]; ok && (t.kind == tokKeyword || t.kind == tokSymbol) {
		return p.errorf("%s is not supported", what)
	}
	return p.errorf("expected %s, got %q", want, t.text)
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	switch {
	case t.kind == tokKeyword && t.text == "SELECT":
		return p.parseSelect()
	case t.kind == tokKeyword && t.text == "EXPLAIN":
		p.advance()
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Select: sel}, nil
	}
	return nil, p.errorf("unsupported statement %q: only SELECT and EXPLAIN SELECT", t.text)
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	st := &SelectStmt{}
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
	if t := p.peek(); t.kind == tokEOF || t.text == ";" {
		return nil, p.errorf("SELECT without FROM is not supported")
	}
	if err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
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
	var err error
	if p.acceptKeyword("WHERE") {
		if st.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expect(tokKeyword, "BY"); err != nil {
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
		if st.Having, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	// Bare * or t.*
	if p.accept(tokSymbol, "*") {
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
	item.Alias, err = p.parseAlias()
	return item, err
}

// parseAlias reads an optional `[AS] name`.
func (p *parser) parseAlias() (string, error) {
	if p.acceptKeyword("AS") {
		return p.expectIdent()
	}
	if p.peek().kind == tokIdent {
		return p.advance().text, nil
	}
	return "", nil
}

func (p *parser) parseFromItem() (FromItem, error) {
	name, err := p.expectIdent()
	if err != nil {
		return FromItem{}, err
	}
	alias, err := p.parseAlias()
	if alias == "" {
		alias = name
	}
	return FromItem{Table: name, Alias: alias}, err
}

// Expression grammar (precedence climbing):
//   expr      := orExpr
//   orExpr    := andExpr (OR andExpr)*
//   andExpr   := notExpr (AND notExpr)*
//   notExpr   := NOT notExpr | predicate
//   predicate := primary ((=|<>|!=|<|<=|>|>=) primary
//                | IS [NOT] NULL | IS NOT DISTINCT FROM primary
//                | [NOT] IN (literal, ...))?
//   primary   := operand | COUNT(*) | COUNT([DISTINCT] operand) | ( expr )
//   operand   := literal | column | COALESCE(column, literal)
//   literal   := [-]number | string | NULL | TRUE | FALSE

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
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	switch {
	case t.kind == tokSymbol && (cmpSigns[t.text] != 0 || t.text == "!="):
		p.advance()
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		op := t.text
		if op == "!=" {
			op = "<>"
		}
		return &BinaryExpr{Op: op, L: l, R: r}, nil
	case t.kind == tokKeyword && t.text == "IS":
		p.advance()
		not := p.acceptKeyword("NOT")
		if p.acceptKeyword("DISTINCT") {
			// l IS NOT DISTINCT FROM r: null-safe equality.
			if !not {
				return nil, p.errorf("IS DISTINCT FROM is not supported")
			}
			if err := p.expect(tokKeyword, "FROM"); err != nil {
				return nil, err
			}
			r, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: opNullSafeEq, L: l, R: r}, nil
		}
		if err := p.expect(tokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{E: l, Not: not}, nil
	case t.kind == tokKeyword && (t.text == "IN" || t.text == "NOT"):
		in := &InExpr{E: l, Not: p.acceptKeyword("NOT")}
		if err := p.expect(tokKeyword, "IN"); err != nil {
			return nil, err
		}
		if err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		for {
			v, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			in.List = append(in.List, v)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		return in, p.expect(tokSymbol, ")")
	}
	return l, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	switch {
	case p.accept(tokSymbol, "("):
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return e, p.expect(tokSymbol, ")")
	case p.acceptKeyword("COUNT"):
		return p.parseCount()
	}
	return p.parseOperand()
}

// parseCount reads the tail of COUNT(*) or COUNT([DISTINCT] operand).
func (p *parser) parseCount() (Expr, error) {
	if err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	fe := &FuncExpr{Name: "COUNT"}
	if p.accept(tokSymbol, "*") {
		fe.Star = true
		return fe, p.expect(tokSymbol, ")")
	}
	fe.Distinct = p.acceptKeyword("DISTINCT")
	arg, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	fe.Args = []Expr{arg}
	return fe, p.expect(tokSymbol, ")")
}

// parseOperand reads a literal, a column or COALESCE(column, literal).
func (p *parser) parseOperand() (Expr, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return p.parseLiteral()
	}
	p.advance()
	if p.peek().kind == tokSymbol && p.peek().text == "(" {
		if name := strings.ToUpper(t.text); name != "COALESCE" {
			return nil, p.errorf("function %s is not supported", name)
		}
		p.advance()
		c := p.peek()
		if c.kind != tokIdent {
			return nil, p.fail("a column")
		}
		p.advance()
		col, err := p.parseColumn(c)
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokSymbol, ","); err != nil {
			return nil, err
		}
		dflt, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return &FuncExpr{Name: "COALESCE", Args: []Expr{col, dflt}}, p.expect(tokSymbol, ")")
	}
	return p.parseColumn(t)
}

// parseColumn reads a column reference whose first name, the identifier
// t, is consumed: c or t.c.
func (p *parser) parseColumn(t token) (Expr, error) {
	if !p.accept(tokSymbol, ".") {
		return &ColumnRef{Column: t.text}, nil
	}
	col, err := p.expectIdent()
	return &ColumnRef{Table: t.text, Column: col}, err
}

// parseLiteral reads a constant; a leading - is the sign of a number.
func (p *parser) parseLiteral() (Expr, error) {
	sign := ""
	if p.accept(tokSymbol, "-") {
		if sign = "-"; p.peek().kind != tokNumber {
			return nil, p.errorf("- is supported only as the sign of a number")
		}
	}
	t := p.peek()
	var v types.Value
	switch {
	case t.kind == tokNumber && strings.Contains(t.text, "."):
		f, err := strconv.ParseFloat(sign+t.text, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.text)
		}
		v = types.NewFloat(f)
	case t.kind == tokNumber:
		n, err := strconv.ParseInt(sign+t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.text)
		}
		v = types.NewInt(n)
	case t.kind == tokString:
		v = types.NewString(t.text)
	case t.kind == tokKeyword && t.text == "NULL":
		v = types.Null
	case t.kind == tokKeyword && (t.text == "TRUE" || t.text == "FALSE"):
		v = types.NewBool(t.text == "TRUE")
	default:
		return nil, p.fail("an operand")
	}
	p.advance()
	return &Literal{Value: v}, nil
}
