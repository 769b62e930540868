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
// Evaluation is total: an operand of the wrong kind or a zero divisor makes
// the result NULL (as SQLite does for x/0), so where a predicate runs can
// never change whether a query fails. Only compilation can fail.
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
		switch n.Op {
		case "NOT":
			return func(row []types.Value) types.Value {
				if v := sub(row); v.Kind() == types.KindBool {
					return types.NewBool(!v.Bool())
				}
				return types.Null
			}, nil
		case "-":
			return func(row []types.Value) types.Value {
				switch v := sub(row); v.Kind() {
				case types.KindInt:
					return types.NewInt(-v.Int())
				case types.KindFloat:
					return types.NewFloat(-v.Float())
				}
				return types.Null
			}, nil
		}
		return nil, fmt.Errorf("sql: unknown unary operator %q", n.Op)

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
		list, err := compileList(n.List, cat, aggEnv)
		if err != nil {
			return nil, err
		}
		not := n.Not
		return func(row []types.Value) types.Value {
			v := sub(row)
			if v.IsNull() {
				return types.Null
			}
			sawNull := false
			for _, f := range list {
				lv := f(row)
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

	case *BetweenExpr:
		sub, lo, err := compilePair(n.E, n.Lo, cat, aggEnv)
		if err != nil {
			return nil, err
		}
		hi, err := compileExprAgg(n.Hi, cat, aggEnv)
		if err != nil {
			return nil, err
		}
		not := n.Not
		return func(row []types.Value) types.Value {
			v, lv, hv := sub(row), lo(row), hi(row)
			if v.IsNull() || lv.IsNull() || hv.IsNull() {
				return types.Null
			}
			in := v.Compare(lv) >= 0 && v.Compare(hv) <= 0
			return types.NewBool(in != not)
		}, nil

	case *CaseExpr:
		type arm struct{ cond, then evalFn }
		arms := make([]arm, len(n.Whens))
		for i, w := range n.Whens {
			c, th, err := compilePair(w.Cond, w.Then, cat, aggEnv)
			if err != nil {
				return nil, err
			}
			arms[i] = arm{c, th}
		}
		els := func([]types.Value) types.Value { return types.Null }
		if n.Else != nil {
			f, err := compileExprAgg(n.Else, cat, aggEnv)
			if err != nil {
				return nil, err
			}
			els = f
		}
		return func(row []types.Value) types.Value {
			for _, a := range arms {
				if truthy(a.cond(row)) {
					return a.then(row)
				}
			}
			return els(row)
		}, nil

	case *FuncExpr:
		if aggregateFuncs[n.Name] {
			if aggEnv == nil {
				return nil, fmt.Errorf("sql: aggregate %s not allowed here", n.Name)
			}
			slot, ok := aggEnv[exprString(n)]
			if !ok {
				return nil, fmt.Errorf("sql: internal: aggregate %s not registered", exprString(n))
			}
			return func(row []types.Value) types.Value { return row[slot] }, nil
		}
		return compileScalarFunc(n, cat, aggEnv)
	}
	return nil, fmt.Errorf("sql: cannot compile expression %q", exprString(e))
}

// cmpSigns maps a comparison operator to the signs of a three-way compare
// it accepts: bit 0 <, bit 1 =, bit 2 >.
var cmpSigns = map[string]uint8{"<": 1, "=": 2, "<=": 3, ">": 4, "<>": 5, ">=": 6}

// compilePair compiles two expressions.
func compilePair(a, b Expr, cat catalog, aggEnv map[string]int) (evalFn, evalFn, error) {
	fa, err := compileExprAgg(a, cat, aggEnv)
	if err != nil {
		return nil, nil, err
	}
	fb, err := compileExprAgg(b, cat, aggEnv)
	return fa, fb, err
}

// compileList compiles each expression of es.
func compileList(es []Expr, cat catalog, aggEnv map[string]int) ([]evalFn, error) {
	fs := make([]evalFn, len(es))
	for i, e := range es {
		f, err := compileExprAgg(e, cat, aggEnv)
		if err != nil {
			return nil, err
		}
		fs[i] = f
	}
	return fs, nil
}

func compileBinary(n *BinaryExpr, cat catalog, aggEnv map[string]int) (evalFn, error) {
	l, r, err := compilePair(n.L, n.R, cat, aggEnv)
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
	case "=", "<>", "<", "<=", ">", ">=":
		signs := cmpSigns[n.Op]
		return func(row []types.Value) types.Value {
			lv, rv := l(row), r(row)
			if lv.IsNull() || rv.IsNull() {
				return types.Null
			}
			return types.NewBool(signs>>(lv.Compare(rv)+1)&1 == 1)
		}, nil
	case "+", "-", "*", "/", "%":
		op := n.Op[0]
		return func(row []types.Value) types.Value { return arith(op, l(row), r(row)) }, nil
	case "||", "LIKE":
		like := n.Op == "LIKE"
		return func(row []types.Value) types.Value {
			lv, rv := l(row), r(row)
			switch {
			case lv.IsNull() || rv.IsNull():
				return types.Null
			case like:
				return types.NewBool(likeMatch(rv.CoerceString(), lv.CoerceString()))
			}
			return types.NewString(lv.CoerceString() + rv.CoerceString())
		}, nil
	}
	return nil, fmt.Errorf("sql: unknown binary operator %q", n.Op)
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

// arith applies +, -, *, / or %: NULL when an operand is not a number, for
// a zero divisor, and for % on a FLOAT.
func arith(op byte, a, b types.Value) types.Value {
	ak, bk := a.Kind(), b.Kind()
	if (ak != types.KindInt && ak != types.KindFloat) || (bk != types.KindInt && bk != types.KindFloat) {
		return types.Null
	}
	if ak == types.KindInt && bk == types.KindInt {
		x, y := a.Int(), b.Int()
		switch op {
		case '+':
			return types.NewInt(x + y)
		case '-':
			return types.NewInt(x - y)
		case '*':
			return types.NewInt(x * y)
		}
		if y == 0 {
			return types.Null
		}
		if op == '/' {
			return types.NewInt(x / y)
		}
		return types.NewInt(x % y)
	}
	x, y := a.Float(), b.Float()
	switch op {
	case '+':
		return types.NewFloat(x + y)
	case '-':
		return types.NewFloat(x - y)
	case '*':
		return types.NewFloat(x * y)
	case '/':
		if y != 0 {
			return types.NewFloat(x / y)
		}
	}
	return types.Null
}

// likeMatch implements SQL LIKE with % (any run) and _ (any one byte),
// using iterative backtracking (the classic wildcard-match algorithm).
func likeMatch(pattern, s string) bool {
	p, i := 0, 0
	star, mark := -1, 0
	for i < len(s) {
		switch {
		case p < len(pattern) && (pattern[p] == '_' || pattern[p] == s[i]):
			p++
			i++
		case p < len(pattern) && pattern[p] == '%':
			star = p
			mark = i
			p++
		case star >= 0:
			p = star + 1
			mark++
			i = mark
		default:
			return false
		}
	}
	for p < len(pattern) && pattern[p] == '%' {
		p++
	}
	return p == len(pattern)
}

// scalarArity gives each scalar function its least and greatest argument
// count, -1 for no greatest.
var scalarArity = map[string][2]int{"UPPER": {1, 1}, "LOWER": {1, 1}, "TRIM": {1, 1}, "LENGTH": {1, 1},
	"ABS": {1, 1}, "SUBSTR": {2, 3}, "COALESCE": {1, -1}, "CONCAT": {0, -1}}

// compileScalarFunc compiles the supported scalar functions.
func compileScalarFunc(n *FuncExpr, cat catalog, aggEnv map[string]int) (evalFn, error) {
	args, err := compileList(n.Args, cat, aggEnv)
	if err != nil {
		return nil, err
	}
	bounds, ok := scalarArity[n.Name]
	if !ok {
		return nil, fmt.Errorf("sql: unknown function %q", n.Name)
	}
	if len(args) < bounds[0] || (bounds[1] >= 0 && len(args) > bounds[1]) {
		return nil, fmt.Errorf("sql: %s: wrong number of arguments (%d)", n.Name, len(args))
	}
	switch n.Name {
	case "COALESCE":
		return func(row []types.Value) types.Value {
			for _, f := range args {
				if v := f(row); !v.IsNull() {
					return v
				}
			}
			return types.Null
		}, nil
	case "CONCAT":
		return func(row []types.Value) types.Value {
			var b strings.Builder
			for _, f := range args {
				b.WriteString(f(row).CoerceString())
			}
			return types.NewString(b.String())
		}, nil
	case "SUBSTR":
		return func(row []types.Value) types.Value {
			v, pos := args[0](row), args[1](row)
			if v.IsNull() || pos.Kind() != types.KindInt {
				return types.Null
			}
			s := v.CoerceString()
			start := min(max(pos.Int()-1, 0), int64(len(s))) // SQL is 1-based
			end := int64(len(s))
			if len(args) == 3 {
				switch n := args[2](row); n.Kind() {
				case types.KindNull:
				case types.KindInt:
					end = start + min(max(n.Int(), 0), end-start)
				default:
					return types.Null
				}
			}
			return types.NewString(s[start:end])
		}, nil
	case "ABS":
		return func(row []types.Value) types.Value {
			switch v := args[0](row); {
			case v.Kind() == types.KindInt && v.Int() < 0:
				return types.NewInt(-v.Int())
			case v.Kind() == types.KindFloat && v.Float() < 0:
				return types.NewFloat(-v.Float())
			case v.Kind() == types.KindInt || v.Kind() == types.KindFloat:
				return v
			}
			return types.Null
		}, nil
	}
	name := n.Name
	return func(row []types.Value) types.Value {
		v := args[0](row)
		if v.IsNull() {
			return types.Null
		}
		s := v.CoerceString()
		switch name {
		case "UPPER":
			return types.NewString(strings.ToUpper(s))
		case "LOWER":
			return types.NewString(strings.ToLower(s))
		case "TRIM":
			return types.NewString(strings.TrimSpace(s))
		}
		return types.NewInt(int64(len(s))) // LENGTH
	}, nil
}
