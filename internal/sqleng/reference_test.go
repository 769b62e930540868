package sqleng

// The nested-loop reference defines the supported SELECT fragment on
// Values: the cross product of FROM in written order, WHERE under SQL's
// three-valued logic, GROUP BY, HAVING and the projection. It shares the
// parser, the table pins and name resolution with the engine, and nothing
// of its evaluation: no plan, no pipeline, no code.

import (
	"cmp"
	"fmt"
	"slices"

	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

// tri is a truth value of SQL's three-valued logic.
type tri uint8

const (
	triFalse tri = iota
	triTrue
	triUnknown
)

// refQuery runs one statement through the reference.
func refQuery(e *Engine, sql string) (*Result, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	qp := e.newQueryPins()
	var cat catalog
	var tables [][][]types.Value // per FROM item: its rows, hidden _tid first, in snapshot order
	for _, fi := range st.From {
		snap, ok := qp.snapshot(fi.Table)
		if !ok {
			return nil, fmt.Errorf("sql: no table %q", fi.Table)
		}
		cat = append(cat, colInfo{qual: fi.Alias, name: TIDColumn})
		for _, a := range snap.Schema().Attrs {
			cat = append(cat, colInfo{qual: fi.Alias, name: a.Name})
		}
		var rows [][]types.Value
		snap.Scan(func(id relstore.TupleID, row relstore.Tuple) bool {
			rows = append(rows, append([]types.Value{types.NewInt(int64(id))}, row...))
			return true
		})
		tables = append(tables, rows)
	}
	where, err := refCond(st.Where, cat)
	if err != nil {
		return nil, err
	}

	var rows [][]types.Value
	var walk func(d int, row []types.Value)
	walk = func(d int, row []types.Value) {
		if d == len(tables) {
			if where(row) == triTrue {
				rows = append(rows, row)
			}
			return
		}
		for _, r := range tables[d] {
			walk(d+1, slices.Concat(row, r))
		}
	}
	walk(0, nil)

	// The COUNT calls, each once, in the order HAVING names them; a grouped
	// row carries their counts past the columns.
	var calls []*CountExpr
	var collect func(e Expr)
	collect = func(e Expr) {
		switch n := e.(type) {
		case *BinaryExpr:
			collect(n.L)
			collect(n.R)
		case *CountExpr:
			if !slices.ContainsFunc(calls, func(c *CountExpr) bool { return exprString(c) == exprString(n) }) {
				calls = append(calls, n)
			}
		}
	}
	collect(st.Having)
	slot := func(c *CountExpr) int {
		return len(cat) + slices.IndexFunc(calls, func(x *CountExpr) bool { return exprString(x) == exprString(c) })
	}
	if st.GroupBy != nil {
		keys := make([]int, len(st.GroupBy))
		for i, g := range st.GroupBy {
			if keys[i], err = cat.resolve(g); err != nil {
				return nil, err
			}
		}
		args := make([]int, len(calls))
		for i, c := range calls {
			if args[i] = -1; c.Arg != nil {
				if args[i], err = cat.resolve(c.Arg); err != nil {
					return nil, err
				}
			}
		}
		rows = refGroup(rows, keys, calls, args)
		if st.Having != nil {
			rows = slices.DeleteFunc(rows, func(r []types.Value) bool { return !refHaving(st.Having, r, slot) })
		}
	}

	var names []string
	var projs []int
	for _, it := range st.Items {
		pos, err := cat.resolve(it)
		if err != nil {
			return nil, err
		}
		names, projs = append(names, it.Column), append(projs, pos)
	}
	res := &Result{Columns: names, Versions: qp.versions()}
	for _, r := range rows {
		var out []types.Value
		for _, pos := range projs {
			out = append(out, r[pos])
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

// refCond compiles a WHERE condition to its three-valued truth on a row:
// a comparison with NULL is unknown, AND and OR are Kleene's.
func refCond(e Expr, cat catalog) (func(row []types.Value) tri, error) {
	if e == nil {
		return func([]types.Value) tri { return triTrue }, nil
	}
	b := e.(*BinaryExpr)
	if b.Op == "AND" || b.Op == "OR" {
		l, err := refCond(b.L, cat)
		if err != nil {
			return nil, err
		}
		r, err := refCond(b.R, cat)
		if err != nil {
			return nil, err
		}
		decides := triFalse // the operand value that decides an AND
		if b.Op == "OR" {
			decides = triTrue
		}
		return func(row []types.Value) tri {
			switch x, y := l(row), r(row); {
			case x == decides || y == decides:
				return decides
			case x == triUnknown || y == triUnknown:
				return triUnknown
			}
			return 1 - decides
		}, nil
	}
	operand := func(e Expr) (func(row []types.Value) types.Value, error) {
		if lit, ok := e.(*Literal); ok {
			return func([]types.Value) types.Value { return lit.Value }, nil
		}
		pos, err := cat.resolve(e.(*ColumnRef))
		return func(row []types.Value) types.Value { return row[pos] }, err
	}
	l, err := operand(b.L)
	if err != nil {
		return nil, err
	}
	r, err := operand(b.R)
	if err != nil {
		return nil, err
	}
	return func(row []types.Value) tri {
		x, y := l(row), r(row)
		switch {
		case x.IsNull() || y.IsNull():
			return triUnknown
		case x.Equal(y) == (b.Op == "="):
			return triTrue
		}
		return triFalse
	}, nil
}

// refHaving decides HAVING on a grouped row, whose counts sit at slot.
func refHaving(e Expr, row []types.Value, slot func(*CountExpr) int) bool {
	b := e.(*BinaryExpr)
	switch b.Op {
	case "AND":
		return refHaving(b.L, row, slot) && refHaving(b.R, row, slot)
	case "OR":
		return refHaving(b.L, row, slot) || refHaving(b.R, row, slot)
	}
	side := func(e Expr) int64 {
		if lit, ok := e.(*Literal); ok {
			return lit.Value.Int()
		}
		return row[slot(e.(*CountExpr))].Int()
	}
	c := cmp.Compare(side(b.L), side(b.R))
	switch b.Op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	}
	return c > 0
}

// refGroup groups rows by the values at keys, in first-appearance order,
// into one row per group: its first member, then one count per call over
// the operand at args (-1: COUNT(*)).
func refGroup(rows [][]types.Value, keys []int, calls []*CountExpr, args []int) [][]types.Value {
	var order []string
	members := map[string][][]types.Value{}
	for _, r := range rows {
		var k []byte
		for _, pos := range keys {
			k = r[pos].AppendGroupKey(k)
		}
		if members[string(k)] == nil {
			order = append(order, string(k))
		}
		members[string(k)] = append(members[string(k)], r)
	}
	var out [][]types.Value
	for _, k := range order {
		ms := members[k]
		rep := slices.Clone(ms[0])
		for i, c := range calls {
			rep = append(rep, types.NewInt(refCount(c.Distinct, args[i], ms)))
		}
		out = append(out, rep)
	}
	return out
}

// refCount evaluates one COUNT over a group's rows: every row for
// COUNT(*) (arg -1), else the non-NULL operands, the distinct ones under
// DISTINCT.
func refCount(distinct bool, arg int, ms [][]types.Value) int64 {
	if arg < 0 {
		return int64(len(ms))
	}
	seen := map[string]bool{}
	n := int64(0)
	for _, r := range ms {
		k := string(r[arg].AppendGroupKey(nil))
		if r[arg].IsNull() || (distinct && seen[k]) {
			continue
		}
		seen[k] = true
		n++
	}
	return n
}
