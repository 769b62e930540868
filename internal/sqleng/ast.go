package sqleng

import (
	"strconv"
	"strings"

	"semandaq/internal/types"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []FromItem
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 if absent
	Offset   int // 0 if absent
}

// SelectItem is one projection: either Star (optionally qualified) or an
// expression with an optional alias.
type SelectItem struct {
	Star      bool
	StarTable string // for t.*
	Expr      Expr
	Alias     string
}

// FromItem is a base table reference with an optional alias.
type FromItem struct {
	Table string
	Alias string
}

// JoinClause is an INNER/LEFT JOIN ... ON clause following the FROM list.
type JoinClause struct {
	Left bool // LEFT OUTER join; false means INNER
	Item FromItem
	On   Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// ExplainStmt is EXPLAIN SELECT ...: plan the query and return the chosen
// join order, pushed-down predicates and the exact statistics behind each
// choice, one plan line per result row, without executing it.
type ExplainStmt struct {
	Select *SelectStmt
}

func (*SelectStmt) stmt()  {}
func (*ExplainStmt) stmt() {}

// Expr is an expression tree node.
type Expr interface{ expr() }

// ColumnRef names a column, optionally qualified with a table alias.
type ColumnRef struct {
	Table  string // "" if unqualified
	Column string
}

// Literal is a constant value.
type Literal struct {
	Value types.Value
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   string // =, <>, <, <=, >, >=, +, -, *, /, AND, OR, LIKE, ||, opNullSafeEq
	L, R Expr
}

// opNullSafeEq is null-safe equality: NULL equals NULL and nothing else, so
// the result is never unknown. As a join key it matches NULL with NULL.
const opNullSafeEq = "IS NOT DISTINCT FROM"

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op string // NOT, -
	E  Expr
}

// IsNullExpr is `e IS [NOT] NULL`.
type IsNullExpr struct {
	E   Expr
	Not bool
}

// InExpr is `e [NOT] IN (v1, v2, ...)`.
type InExpr struct {
	E    Expr
	Not  bool
	List []Expr
}

// BetweenExpr is `e [NOT] BETWEEN lo AND hi`.
type BetweenExpr struct {
	E      Expr
	Not    bool
	Lo, Hi Expr
}

// CaseExpr is a searched CASE: CASE WHEN c THEN v ... [ELSE v] END.
type CaseExpr struct {
	Whens []WhenClause
	Else  Expr
}

// WhenClause is one WHEN ... THEN ... arm.
type WhenClause struct {
	Cond Expr
	Then Expr
}

// FuncExpr is a function call: aggregate or scalar.
type FuncExpr struct {
	Name     string // uppercased
	Distinct bool   // COUNT(DISTINCT e)
	Star     bool   // COUNT(*)
	Args     []Expr
}

func (*ColumnRef) expr()   {}
func (*Literal) expr()     {}
func (*BinaryExpr) expr()  {}
func (*UnaryExpr) expr()   {}
func (*IsNullExpr) expr()  {}
func (*InExpr) expr()      {}
func (*BetweenExpr) expr() {}
func (*CaseExpr) expr()    {}
func (*FuncExpr) expr()    {}

// aggregateFuncs names the supported aggregates.
var aggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// hasAggregate reports whether the expression contains an aggregate call
// (not descending into nested aggregates, which are rejected elsewhere).
func hasAggregate(e Expr) bool {
	switch n := e.(type) {
	case nil:
		return false
	case *FuncExpr:
		if aggregateFuncs[n.Name] {
			return true
		}
		for _, a := range n.Args {
			if hasAggregate(a) {
				return true
			}
		}
	case *BinaryExpr:
		return hasAggregate(n.L) || hasAggregate(n.R)
	case *UnaryExpr:
		return hasAggregate(n.E)
	case *IsNullExpr:
		return hasAggregate(n.E)
	case *InExpr:
		if hasAggregate(n.E) {
			return true
		}
		for _, v := range n.List {
			if hasAggregate(v) {
				return true
			}
		}
	case *BetweenExpr:
		return hasAggregate(n.E) || hasAggregate(n.Lo) || hasAggregate(n.Hi)
	case *CaseExpr:
		for _, w := range n.Whens {
			if hasAggregate(w.Cond) || hasAggregate(w.Then) {
				return true
			}
		}
		return hasAggregate(n.Else)
	}
	return false
}

// exprString renders an expression back to SQL text that parses to the
// same tree (FuzzParseSQL holds it to that). It names unaliased
// projections and aggregate slots and quotes expressions in errors and
// EXPLAIN.
func exprString(e Expr) string {
	switch n := e.(type) {
	case nil:
		return ""
	case *ColumnRef:
		if n.Table != "" {
			return quoteIdent(n.Table) + "." + quoteIdent(n.Column)
		}
		return quoteIdent(n.Column)
	case *Literal:
		if n.Value.Kind() == types.KindFloat { // keep the point: 1.0 is no INT
			s := strconv.FormatFloat(n.Value.Float(), 'f', -1, 64)
			if !strings.Contains(s, ".") {
				s += ".0"
			}
			return s
		}
		return n.Value.SQLString()
	case *BinaryExpr:
		if n.Op == "AND" || n.Op == "OR" {
			return "(" + exprString(n.L) + " " + n.Op + " " + exprString(n.R) + ")"
		}
		return "(" + operand(n.L) + " " + n.Op + " " + operand(n.R) + ")"
	case *UnaryExpr:
		if n.Op == "NOT" {
			return "NOT " + exprString(n.E)
		}
		return n.Op + " " + operand(n.E)
	case *IsNullExpr:
		if n.Not {
			return operand(n.E) + " IS NOT NULL"
		}
		return operand(n.E) + " IS NULL"
	case *InExpr:
		var parts []string
		for _, v := range n.List {
			parts = append(parts, exprString(v))
		}
		op := " IN ("
		if n.Not {
			op = " NOT IN ("
		}
		return operand(n.E) + op + strings.Join(parts, ", ") + ")"
	case *BetweenExpr:
		op := " BETWEEN "
		if n.Not {
			op = " NOT BETWEEN "
		}
		return operand(n.E) + op + operand(n.Lo) + " AND " + operand(n.Hi)
	case *CaseExpr:
		var b strings.Builder
		b.WriteString("CASE")
		for _, w := range n.Whens {
			b.WriteString(" WHEN " + exprString(w.Cond) + " THEN " + exprString(w.Then))
		}
		if n.Else != nil {
			b.WriteString(" ELSE " + exprString(n.Else))
		}
		b.WriteString(" END")
		return b.String()
	case *FuncExpr:
		name := n.Name
		if !aggregateFuncs[name] {
			name = quoteIdent(name)
		}
		if n.Star {
			return name + "(*)"
		}
		var parts []string
		for _, a := range n.Args {
			parts = append(parts, exprString(a))
		}
		d := ""
		if n.Distinct {
			d = "DISTINCT "
		}
		return name + "(" + d + strings.Join(parts, ", ") + ")"
	}
	return "?"
}

// operand renders e where the grammar wants an additive expression (an
// operand of a comparison, arithmetic, unary minus, IS, IN or BETWEEN):
// a predicate or a NOT there needs parentheses.
func operand(e Expr) string {
	switch n := e.(type) {
	case *IsNullExpr, *InExpr, *BetweenExpr:
		return "(" + exprString(e) + ")"
	case *UnaryExpr:
		if n.Op == "NOT" {
			return "(" + exprString(e) + ")"
		}
	}
	return exprString(e)
}

// quoteIdent renders a name as a bare identifier when it lexes as one and
// double-quoted otherwise.
func quoteIdent(name string) string {
	plain := name != "" && isIdentStart(name[0])
	for i := 1; plain && i < len(name); i++ {
		plain = isIdentPart(name[i])
	}
	if plain && !isKeyword(name) {
		return name
	}
	return `"` + name + `"`
}

// isKeyword reports whether an identifier-shaped name lexes as a keyword,
// without allocating its upper-cased form.
func isKeyword(name string) bool {
	var up [16]byte
	if len(name) > len(up) {
		return false // longer than every keyword
	}
	for i := 0; i < len(name); i++ {
		up[i] = name[i]
		if 'a' <= up[i] && up[i] <= 'z' {
			up[i] -= 'a' - 'A'
		}
	}
	return keywords[string(up[:len(name)])]
}
