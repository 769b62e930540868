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

// evalFn is a compiled expression: evaluated against one intermediate row.
type evalFn func(row []types.Value) (types.Value, error)

// compileExpr resolves column references against cat and returns an
// evaluator implementing SQL three-valued logic. Aggregate calls are
// rejected here; the grouping stage compiles them separately via
// compileWithAggs.
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
		return func([]types.Value) (types.Value, error) { return v, nil }, nil

	case *ColumnRef:
		idx, err := cat.resolve(n)
		if err != nil {
			return nil, err
		}
		return func(row []types.Value) (types.Value, error) { return row[idx], nil }, nil

	case *UnaryExpr:
		sub, err := compileExprAgg(n.E, cat, aggEnv)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case "NOT":
			return func(row []types.Value) (types.Value, error) {
				v, err := sub(row)
				if err != nil {
					return types.Null, err
				}
				if v.IsNull() {
					return types.Null, nil
				}
				if v.Kind() != types.KindBool {
					return types.Null, fmt.Errorf("sql: NOT applied to %s", v.Kind())
				}
				return types.NewBool(!v.Bool()), nil
			}, nil
		case "-":
			return func(row []types.Value) (types.Value, error) {
				v, err := sub(row)
				if err != nil || v.IsNull() {
					return types.Null, err
				}
				switch v.Kind() {
				case types.KindInt:
					return types.NewInt(-v.Int()), nil
				case types.KindFloat:
					return types.NewFloat(-v.Float()), nil
				}
				return types.Null, fmt.Errorf("sql: unary - applied to %s", v.Kind())
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
		return func(row []types.Value) (types.Value, error) {
			v, err := sub(row)
			if err != nil {
				return types.Null, err
			}
			return types.NewBool(v.IsNull() != not), nil
		}, nil

	case *InExpr:
		sub, err := compileExprAgg(n.E, cat, aggEnv)
		if err != nil {
			return nil, err
		}
		list := make([]evalFn, len(n.List))
		for i, le := range n.List {
			f, err := compileExprAgg(le, cat, aggEnv)
			if err != nil {
				return nil, err
			}
			list[i] = f
		}
		not := n.Not
		return func(row []types.Value) (types.Value, error) {
			v, err := sub(row)
			if err != nil {
				return types.Null, err
			}
			if v.IsNull() {
				return types.Null, nil
			}
			sawNull := false
			for _, f := range list {
				lv, err := f(row)
				if err != nil {
					return types.Null, err
				}
				if lv.IsNull() {
					sawNull = true
					continue
				}
				if v.Equal(lv) {
					return types.NewBool(!not), nil
				}
			}
			if sawNull {
				return types.Null, nil
			}
			return types.NewBool(not), nil
		}, nil

	case *BetweenExpr:
		sub, err := compileExprAgg(n.E, cat, aggEnv)
		if err != nil {
			return nil, err
		}
		lo, err := compileExprAgg(n.Lo, cat, aggEnv)
		if err != nil {
			return nil, err
		}
		hi, err := compileExprAgg(n.Hi, cat, aggEnv)
		if err != nil {
			return nil, err
		}
		not := n.Not
		return func(row []types.Value) (types.Value, error) {
			v, err := sub(row)
			if err != nil {
				return types.Null, err
			}
			lv, err := lo(row)
			if err != nil {
				return types.Null, err
			}
			hv, err := hi(row)
			if err != nil {
				return types.Null, err
			}
			if v.IsNull() || lv.IsNull() || hv.IsNull() {
				return types.Null, nil
			}
			in := v.Compare(lv) >= 0 && v.Compare(hv) <= 0
			return types.NewBool(in != not), nil
		}, nil

	case *CaseExpr:
		type arm struct{ cond, then evalFn }
		arms := make([]arm, len(n.Whens))
		for i, w := range n.Whens {
			c, err := compileExprAgg(w.Cond, cat, aggEnv)
			if err != nil {
				return nil, err
			}
			th, err := compileExprAgg(w.Then, cat, aggEnv)
			if err != nil {
				return nil, err
			}
			arms[i] = arm{c, th}
		}
		var els evalFn
		if n.Else != nil {
			f, err := compileExprAgg(n.Else, cat, aggEnv)
			if err != nil {
				return nil, err
			}
			els = f
		}
		return func(row []types.Value) (types.Value, error) {
			for _, a := range arms {
				c, err := a.cond(row)
				if err != nil {
					return types.Null, err
				}
				if truthy(c) {
					return a.then(row)
				}
			}
			if els != nil {
				return els(row)
			}
			return types.Null, nil
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
			return func(row []types.Value) (types.Value, error) {
				return row[slot], nil
			}, nil
		}
		return compileScalarFunc(n, cat, aggEnv)
	}
	return nil, fmt.Errorf("sql: cannot compile expression %q", exprString(e))
}

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
	case "AND":
		return func(row []types.Value) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Null, err
			}
			// Short-circuit FALSE.
			if !lv.IsNull() && lv.Kind() == types.KindBool && !lv.Bool() {
				return types.NewBool(false), nil
			}
			rv, err := r(row)
			if err != nil {
				return types.Null, err
			}
			return and3(lv, rv), nil
		}, nil
	case "OR":
		return func(row []types.Value) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Null, err
			}
			if !lv.IsNull() && lv.Kind() == types.KindBool && lv.Bool() {
				return types.NewBool(true), nil
			}
			rv, err := r(row)
			if err != nil {
				return types.Null, err
			}
			return or3(lv, rv), nil
		}, nil
	case "=", "<>", "<", "<=", ">", ">=", opNullSafeEq:
		op := n.Op
		return func(row []types.Value) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Null, err
			}
			rv, err := r(row)
			if err != nil {
				return types.Null, err
			}
			if op == opNullSafeEq {
				return types.NewBool(lv.Equal(rv)), nil // Equal: NULL equals only NULL
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null, nil
			}
			c := lv.Compare(rv)
			var b bool
			switch op {
			case "=":
				b = c == 0
			case "<>":
				b = c != 0
			case "<":
				b = c < 0
			case "<=":
				b = c <= 0
			case ">":
				b = c > 0
			case ">=":
				b = c >= 0
			}
			return types.NewBool(b), nil
		}, nil
	case "+", "-", "*", "/", "%":
		op := n.Op
		return func(row []types.Value) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Null, err
			}
			rv, err := r(row)
			if err != nil {
				return types.Null, err
			}
			return arith(op, lv, rv)
		}, nil
	case "||":
		return func(row []types.Value) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Null, err
			}
			rv, err := r(row)
			if err != nil {
				return types.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null, nil
			}
			return types.NewString(lv.CoerceString() + rv.CoerceString()), nil
		}, nil
	case "LIKE":
		return func(row []types.Value) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Null, err
			}
			rv, err := r(row)
			if err != nil {
				return types.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null, nil
			}
			return types.NewBool(likeMatch(rv.CoerceString(), lv.CoerceString())), nil
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

func arith(op string, a, b types.Value) (types.Value, error) {
	if a.IsNull() || b.IsNull() {
		return types.Null, nil
	}
	num := func(v types.Value) (float64, bool, error) {
		switch v.Kind() {
		case types.KindInt:
			return float64(v.Int()), true, nil
		case types.KindFloat:
			return v.Float(), false, nil
		}
		return 0, false, fmt.Errorf("sql: arithmetic on %s value", v.Kind())
	}
	af, aInt, err := num(a)
	if err != nil {
		return types.Null, err
	}
	bf, bInt, err := num(b)
	if err != nil {
		return types.Null, err
	}
	bothInt := aInt && bInt
	switch op {
	case "+":
		if bothInt {
			return types.NewInt(a.Int() + b.Int()), nil
		}
		return types.NewFloat(af + bf), nil
	case "-":
		if bothInt {
			return types.NewInt(a.Int() - b.Int()), nil
		}
		return types.NewFloat(af - bf), nil
	case "*":
		if bothInt {
			return types.NewInt(a.Int() * b.Int()), nil
		}
		return types.NewFloat(af * bf), nil
	case "/":
		if bf == 0 {
			return types.Null, fmt.Errorf("sql: division by zero")
		}
		if bothInt {
			return types.NewInt(a.Int() / b.Int()), nil
		}
		return types.NewFloat(af / bf), nil
	case "%":
		if !bothInt {
			return types.Null, fmt.Errorf("sql: %% requires integers")
		}
		if b.Int() == 0 {
			return types.Null, fmt.Errorf("sql: division by zero")
		}
		return types.NewInt(a.Int() % b.Int()), nil
	}
	return types.Null, fmt.Errorf("sql: unknown arithmetic operator %q", op)
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

// compileScalarFunc compiles the supported scalar functions.
func compileScalarFunc(n *FuncExpr, cat catalog, aggEnv map[string]int) (evalFn, error) {
	args := make([]evalFn, len(n.Args))
	for i, a := range n.Args {
		f, err := compileExprAgg(a, cat, aggEnv)
		if err != nil {
			return nil, err
		}
		args[i] = f
	}
	requireArgs := func(min, max int) error {
		if len(args) < min || (max >= 0 && len(args) > max) {
			return fmt.Errorf("sql: %s: wrong number of arguments (%d)", n.Name, len(args))
		}
		return nil
	}
	evalArgs := func(row []types.Value) ([]types.Value, error) {
		vals := make([]types.Value, len(args))
		for i, f := range args {
			v, err := f(row)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return vals, nil
	}
	switch n.Name {
	case "UPPER", "LOWER", "TRIM", "LENGTH":
		if err := requireArgs(1, 1); err != nil {
			return nil, err
		}
		name := n.Name
		return func(row []types.Value) (types.Value, error) {
			vals, err := evalArgs(row)
			if err != nil {
				return types.Null, err
			}
			v := vals[0]
			if v.IsNull() {
				return types.Null, nil
			}
			s := v.CoerceString()
			switch name {
			case "UPPER":
				return types.NewString(strings.ToUpper(s)), nil
			case "LOWER":
				return types.NewString(strings.ToLower(s)), nil
			case "TRIM":
				return types.NewString(strings.TrimSpace(s)), nil
			default: // LENGTH
				return types.NewInt(int64(len(s))), nil
			}
		}, nil
	case "SUBSTR":
		if err := requireArgs(2, 3); err != nil {
			return nil, err
		}
		return func(row []types.Value) (types.Value, error) {
			vals, err := evalArgs(row)
			if err != nil {
				return types.Null, err
			}
			if vals[0].IsNull() || vals[1].IsNull() {
				return types.Null, nil
			}
			if vals[1].Kind() != types.KindInt {
				return types.Null, fmt.Errorf("sql: SUBSTR position must be an integer, got %s", vals[1].Kind())
			}
			s := vals[0].CoerceString()
			start := int(vals[1].Int()) - 1 // SQL is 1-based
			if start < 0 {
				start = 0
			}
			if start > len(s) {
				start = len(s)
			}
			end := len(s)
			if len(vals) == 3 && !vals[2].IsNull() {
				if vals[2].Kind() != types.KindInt {
					return types.Null, fmt.Errorf("sql: SUBSTR length must be an integer, got %s", vals[2].Kind())
				}
				n := int(vals[2].Int())
				if n < 0 {
					n = 0
				}
				if start+n < end {
					end = start + n
				}
			}
			return types.NewString(s[start:end]), nil
		}, nil
	case "COALESCE":
		if err := requireArgs(1, -1); err != nil {
			return nil, err
		}
		return func(row []types.Value) (types.Value, error) {
			for _, f := range args {
				v, err := f(row)
				if err != nil {
					return types.Null, err
				}
				if !v.IsNull() {
					return v, nil
				}
			}
			return types.Null, nil
		}, nil
	case "CONCAT":
		return func(row []types.Value) (types.Value, error) {
			vals, err := evalArgs(row)
			if err != nil {
				return types.Null, err
			}
			var b strings.Builder
			for _, v := range vals {
				b.WriteString(v.CoerceString())
			}
			return types.NewString(b.String()), nil
		}, nil
	case "ABS":
		if err := requireArgs(1, 1); err != nil {
			return nil, err
		}
		return func(row []types.Value) (types.Value, error) {
			vals, err := evalArgs(row)
			if err != nil {
				return types.Null, err
			}
			v := vals[0]
			if v.IsNull() {
				return types.Null, nil
			}
			switch v.Kind() {
			case types.KindInt:
				if v.Int() < 0 {
					return types.NewInt(-v.Int()), nil
				}
				return v, nil
			case types.KindFloat:
				if v.Float() < 0 {
					return types.NewFloat(-v.Float()), nil
				}
				return v, nil
			}
			return types.Null, fmt.Errorf("sql: ABS on %s value", v.Kind())
		}, nil
	}
	return nil, fmt.Errorf("sql: unknown function %q", n.Name)
}
