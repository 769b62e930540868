package sqleng

import (
	"fmt"
	"strings"

	"semandaq/internal/types"
)

// colInfo describes one column of an intermediate row: the table alias it
// came from (empty for synthesized columns) and its name.
type colInfo struct {
	qual string
	name string
}

// catalog is the ordered column layout of an intermediate result.
type catalog []colInfo

// AmbiguousColumnError reports an unqualified column name matching several
// catalog columns.
type AmbiguousColumnError struct{ Name string }

func (e *AmbiguousColumnError) Error() string {
	return fmt.Sprintf("sql: ambiguous column %q", e.Name)
}

// resolve finds the position of a column reference. Unqualified names must
// be unambiguous across the catalog.
func (c catalog) resolve(ref *ColumnRef) (int, error) {
	found := -1
	for i, ci := range c {
		if !strings.EqualFold(ci.name, ref.Column) {
			continue
		}
		if ref.Table != "" && !strings.EqualFold(ci.qual, ref.Table) {
			continue
		}
		if found >= 0 {
			return 0, &AmbiguousColumnError{Name: exprString(ref)}
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("sql: unknown column %q", exprString(ref))
	}
	return found, nil
}

// evalFn is a compiled expression, evaluated against one intermediate row.
// Evaluation is total: an operand of the wrong kind makes a predicate
// unknown (NULL), so where a predicate runs can never change whether a
// query fails. Only compilation can fail.
type evalFn func(row []types.Value) types.Value

// compileExpr resolves column references against cat and returns an
// evaluator implementing SQL three-valued logic. Aggregate calls are
// rejected here; the grouping stage compiles them through compileExprAgg.
func compileExpr(e Expr, cat catalog) (evalFn, error) {
	return compileExprAgg(e, cat, nil)
}

// compileExprAgg is compileExpr with an optional aggregate environment: a
// map from aggregate-call text to the slot in the synthetic agg-value area
// appended after the representative row. If aggEnv is nil, aggregates error.
func compileExprAgg(e Expr, cat catalog, aggEnv map[string]int) (evalFn, error) {
	switch n := e.(type) {
	case *Literal:
		v := n.Value
		return func([]types.Value) types.Value { return v }, nil

	case *ColumnRef:
		idx, err := cat.resolve(n)
		if err != nil {
			return nil, err
		}
		return func(row []types.Value) types.Value { return row[idx] }, nil

	case *UnaryExpr:
		sub, err := compileExprAgg(n.E, cat, aggEnv)
		if err != nil {
			return nil, err
		}
		return func(row []types.Value) types.Value {
			if v := sub(row); v.Kind() == types.KindBool {
				return types.NewBool(!v.Bool())
			}
			return types.Null
		}, nil

	case *BinaryExpr:
		return compileBinary(n, cat, aggEnv)

	case *IsNullExpr:
		sub, err := compileExprAgg(n.E, cat, aggEnv)
		if err != nil {
			return nil, err
		}
		not := n.Not
		return func(row []types.Value) types.Value {
			return types.NewBool(sub(row).IsNull() != not)
		}, nil

	case *InExpr:
		sub, err := compileExprAgg(n.E, cat, aggEnv)
		if err != nil {
			return nil, err
		}
		not := n.Not
		list := n.List // literals (the grammar's)
		return func(row []types.Value) types.Value {
			v := sub(row)
			if v.IsNull() {
				return types.Null
			}
			sawNull := false
			for _, le := range list {
				lv := le.(*Literal).Value
				if lv.IsNull() {
					sawNull = true
					continue
				}
				if v.Equal(lv) {
					return types.NewBool(!not)
				}
			}
			if sawNull {
				return types.Null
			}
			return types.NewBool(not)
		}, nil

	case *FuncExpr:
		if n.Name == "COUNT" {
			if aggEnv == nil {
				return nil, fmt.Errorf("sql: aggregate COUNT not allowed here")
			}
			slot := aggEnv[exprString(n)]
			return func(row []types.Value) types.Value { return row[slot] }, nil
		}
		// COALESCE(column, literal)
		col, err := compileExprAgg(n.Args[0], cat, aggEnv)
		if err != nil {
			return nil, err
		}
		dflt := n.Args[1].(*Literal).Value
		return func(row []types.Value) types.Value {
			if v := col(row); !v.IsNull() {
				return v
			}
			return dflt
		}, nil
	}
	return nil, fmt.Errorf("sql: cannot compile expression %q", exprString(e))
}

// cmpSigns maps a comparison operator to the signs of a three-way compare
// it accepts: bit 0 <, bit 1 =, bit 2 >.
var cmpSigns = map[string]uint8{"<": 1, "=": 2, "<=": 3, ">": 4, "<>": 5, ">=": 6}

func compileBinary(n *BinaryExpr, cat catalog, aggEnv map[string]int) (evalFn, error) {
	l, err := compileExprAgg(n.L, cat, aggEnv)
	if err != nil {
		return nil, err
	}
	r, err := compileExprAgg(n.R, cat, aggEnv)
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case "AND", "OR":
		stop := n.Op == "OR" // the operand value that decides
		return func(row []types.Value) types.Value {
			lv := l(row)
			if lv.Kind() == types.KindBool && lv.Bool() == stop {
				return lv
			}
			if stop {
				return or3(lv, r(row))
			}
			return and3(lv, r(row))
		}, nil
	case opNullSafeEq:
		return func(row []types.Value) types.Value {
			return types.NewBool(l(row).Equal(r(row))) // Equal: NULL equals only NULL
		}, nil
	}
	signs := cmpSigns[n.Op]
	return func(row []types.Value) types.Value {
		lv, rv := l(row), r(row)
		if lv.IsNull() || rv.IsNull() {
			return types.Null
		}
		return types.NewBool(signs>>(lv.Compare(rv)+1)&1 == 1)
	}, nil
}

// and3/or3 implement SQL three-valued logic over BOOL/NULL values.
func and3(a, b types.Value) types.Value {
	af, bf := boolState(a), boolState(b)
	switch {
	case af == 0 || bf == 0:
		return types.NewBool(false)
	case af == 1 && bf == 1:
		return types.NewBool(true)
	default:
		return types.Null
	}
}

func or3(a, b types.Value) types.Value {
	af, bf := boolState(a), boolState(b)
	switch {
	case af == 1 || bf == 1:
		return types.NewBool(true)
	case af == 0 && bf == 0:
		return types.NewBool(false)
	default:
		return types.Null
	}
}

// boolState maps a value to 0 (false), 1 (true) or 2 (unknown).
func boolState(v types.Value) int {
	if v.IsNull() || v.Kind() != types.KindBool {
		return 2
	}
	if v.Bool() {
		return 1
	}
	return 0
}

// truthy reports whether a predicate result selects the row.
func truthy(v types.Value) bool { return boolState(v) == 1 }
