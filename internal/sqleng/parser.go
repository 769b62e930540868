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
	"LIKE": "LIKE", "BETWEEN": "BETWEEN", "CASE": "CASE", "EXPLAIN": "EXPLAIN",
	"SUM": "aggregate SUM", "AVG": "aggregate AVG", "MIN": "aggregate MIN", "MAX": "aggregate MAX",
	"NOT": "NOT", "IN": "IN", "IS": "IS [NOT] NULL",
	"+": "arithmetic +", "-": "arithmetic -", "*": "arithmetic *", "/": "arithmetic /", "%": "arithmetic %",
	"||": "concatenation ||",
}

// parser consumes a token stream.
type parser struct {
	toks []token
	i    int
}

// Parse parses a single SELECT (a trailing semicolon is allowed) of the
// grammar the detector's statements use:
//
//	select   := SELECT item (, item)* FROM table [[AS] alias] (, table [[AS] alias])*
//	            [WHERE cond] [GROUP BY column (, column)*] [HAVING having]
//	item     := * | name.* | (column | count) [[AS] alias]
//	cond     := and (OR and)*,  and := atom (AND atom)*,  atom := ( cond ) | operand (= | <> | !=) operand
//	operand  := column | literal, not both literals, no _tid
//	having   := cond over counts: count or INT literal (= | <> | < | <= | > | >=) count or INT literal
//	count    := COUNT(*) | COUNT([DISTINCT] column), no _tid
//	literal  := [-]number | string | NULL | TRUE | FALSE
//
// Anything else is a *ParseError naming the construct.
func Parse(src string) (*SelectStmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	if t := p.peek(); t.kind != tokKeyword || t.text != "SELECT" {
		if _, ok := removed[t.text]; ok {
			return nil, p.fail("")
		}
		return nil, p.errorf("unsupported statement %q: only SELECT", t.text)
	}
	st, err := p.parseSelect()
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
	what, ok := removed[t.text]
	if !ok || (t.kind != tokKeyword && t.kind != tokSymbol) {
		return p.errorf("expected %s, got %q", want, t.text)
	}
	next := func(i int) string { return p.toks[min(p.i+i, len(p.toks)-1)].text }
	switch {
	case t.text == "IS" && next(1) == "DISTINCT":
		what = "IS DISTINCT FROM"
	case t.text == "IS" && next(1) == "NOT" && next(2) == "DISTINCT":
		what = "IS NOT DISTINCT FROM"
	case t.text == "NOT" && (next(1) == "IN" || next(1) == "LIKE" || next(1) == "BETWEEN"):
		what = removed[next(1)]
	}
	return p.errorf("%s is not supported", what)
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
		if st.Where, err = p.parseCond(p.parseOperand, false); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColumn()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, c)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		if st.Having, err = p.parseCond(p.parseCountOperand, true); err != nil {
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
	var item SelectItem
	var err error
	switch t := p.peek(); {
	case t.kind == tokKeyword && t.text == "COUNT":
		item.Expr, err = p.parseCount()
	case t.kind == tokIdent:
		item.Expr, err = p.parseRef()
	case t.kind == tokNumber || t.kind == tokString || t.text == "NULL" || t.text == "TRUE" || t.text == "FALSE":
		return item, p.errorf("a literal in the select list is not supported")
	default:
		return item, p.fail("a column or COUNT")
	}
	if err != nil {
		return item, err
	}
	if t := p.peek(); t.kind == tokSymbol && (cmpSigns[t.text] != 0 || t.text == "!=") {
		return item, p.errorf("a comparison in the select list is not supported")
	}
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

// parseCond reads comparisons of side operands (parseCompare) under AND
// and OR, AND binding tighter, a parenthesised condition standing for a
// comparison.
func (p *parser) parseCond(side func() (Expr, error), ordered bool) (Expr, error) {
	return p.parseJoined("OR", func() (Expr, error) {
		return p.parseJoined("AND", func() (Expr, error) {
			if !p.accept(tokSymbol, "(") {
				return p.parseCompare(side, ordered)
			}
			e, err := p.parseCond(side, ordered)
			if err != nil {
				return nil, err
			}
			return e, p.expect(tokSymbol, ")")
		})
	})
}

// parseJoined reads next (op next)*, folding to the left.
func (p *parser) parseJoined(op string, next func() (Expr, error)) (Expr, error) {
	l, err := next()
	for err == nil && p.acceptKeyword(op) {
		var r Expr
		if r, err = next(); err == nil {
			l = &BinaryExpr{Op: op, L: l, R: r}
		}
	}
	if err != nil {
		return nil, err
	}
	return l, nil
}

// cmpSigns maps a comparison operator to the signs of a three-way compare
// it accepts: bit 0 <, bit 1 =, bit 2 >.
var cmpSigns = map[string]uint8{"<": 1, "=": 2, "<=": 3, ">": 4, "<>": 5, ">=": 6}

// parseCompare reads side op side, not both literals: op is = or <>, or
// with ordered also <, <=, > or >=.
func (p *parser) parseCompare(side func() (Expr, error), ordered bool) (Expr, error) {
	start := p.peek().pos
	l, err := side()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	switch {
	case t.kind != tokSymbol || (cmpSigns[t.text] == 0 && t.text != "!="):
		return nil, p.fail("a comparison")
	case !ordered && t.text != "=" && t.text != "<>" && t.text != "!=":
		return nil, p.errorf("ordering compare %s in WHERE is not supported", t.text)
	}
	p.advance()
	r, err := side()
	if err != nil {
		return nil, err
	}
	_, lit1 := l.(*Literal)
	if _, lit2 := r.(*Literal); lit1 && lit2 {
		return nil, &ParseError{Pos: start, Msg: "a comparison of two literals is not supported"}
	}
	return &BinaryExpr{Op: strings.Replace(t.text, "!=", "<>", 1), L: l, R: r}, nil
}

// parseCountOperand reads a HAVING operand: a COUNT or an INT literal.
func (p *parser) parseCountOperand() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokKeyword && t.text == "COUNT":
		return p.parseCount()
	case t.kind == tokIdent:
		return nil, p.errorf("a column in HAVING is not supported")
	}
	lit, err := p.parseLiteral()
	if err != nil {
		return nil, err
	}
	if k := lit.(*Literal).Value.Kind(); k != types.KindInt {
		return nil, &ParseError{Pos: t.pos, Msg: fmt.Sprintf("a %s literal in HAVING is not supported", k)}
	}
	return lit, nil
}

// parseCount reads COUNT(*) or COUNT([DISTINCT] column).
func (p *parser) parseCount() (Expr, error) {
	if err := p.expect(tokKeyword, "COUNT"); err != nil {
		return nil, err
	}
	if err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	c := &CountExpr{}
	if p.accept(tokSymbol, "*") {
		return c, p.expect(tokSymbol, ")")
	}
	c.Distinct = p.acceptKeyword("DISTINCT")
	var err error
	if c.Arg, err = p.parseColumn(); err != nil {
		return nil, err
	}
	return c, p.expect(tokSymbol, ")")
}

// parseOperand reads a WHERE operand: a column other than _tid, or a
// literal.
func (p *parser) parseOperand() (Expr, error) {
	switch t := p.peek(); {
	case t.kind == tokIdent:
		return p.parseColumn()
	case t.kind == tokKeyword && t.text == "COUNT":
		return nil, p.errorf("COUNT in WHERE is not supported")
	}
	return p.parseLiteral()
}

// parseColumn reads a column other than _tid, which only the select list
// may name.
func (p *parser) parseColumn() (*ColumnRef, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return nil, p.fail("a column")
	}
	c, err := p.parseRef()
	if err == nil && strings.EqualFold(c.Column, TIDColumn) {
		return nil, &ParseError{Pos: t.pos, Msg: TIDColumn + " outside the select list is not supported"}
	}
	return c, err
}

// parseRef reads a column reference, c or t.c; a name followed by ( is a
// function call, which the grammar leaves out.
func (p *parser) parseRef() (*ColumnRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokSymbol && p.peek().text == "(" {
		return nil, p.errorf("function %s is not supported", strings.ToUpper(name))
	}
	if !p.accept(tokSymbol, ".") {
		return &ColumnRef{Column: name}, nil
	}
	col, err := p.expectIdent()
	return &ColumnRef{Table: name, Column: col}, err
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
