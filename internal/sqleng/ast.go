package sqleng

import (
	"strconv"
	"strings"

	"semandaq/internal/types"
)

// SelectStmt is a SELECT query over a comma-joined FROM list.
type SelectStmt struct {
	Items   []SelectItem
	From    []FromItem
	Where   Expr
	GroupBy []*ColumnRef
	Having  Expr
}

// SelectItem is one projection: either Star (optionally qualified) or a
// column or COUNT with an optional alias.
type SelectItem struct {
	Star      bool
	StarTable string // for t.*
	Expr      Expr   // *ColumnRef or *CountExpr
	Alias     string
}

// FromItem is a base table reference with an optional alias.
type FromItem struct {
	Table string
	Alias string
}

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

// BinaryExpr applies a binary operator: AND and OR over conditions, = and
// <> between WHERE operands, and =, <>, <, <=, >, >= between HAVING's
// counts and INT literals.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// CountExpr is COUNT(*) (Arg nil) or COUNT([DISTINCT] column).
type CountExpr struct {
	Distinct bool
	Arg      *ColumnRef
}

func (*ColumnRef) expr()  {}
func (*Literal) expr()    {}
func (*BinaryExpr) expr() {}
func (*CountExpr) expr()  {}

// exprString renders an expression back to SQL text that parses to the
// same tree (FuzzParseSQL holds it to that). It names unaliased COUNT
// projections and aggregate slots and quotes expressions in errors and
// plans.
func exprString(e Expr) string {
	switch n := e.(type) {
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
		return "(" + exprString(n.L) + " " + n.Op + " " + exprString(n.R) + ")"
	case *CountExpr:
		switch {
		case n.Arg == nil:
			return "COUNT(*)"
		case n.Distinct:
			return "COUNT(DISTINCT " + exprString(n.Arg) + ")"
		}
		return "COUNT(" + exprString(n.Arg) + ")"
	}
	return ""
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
