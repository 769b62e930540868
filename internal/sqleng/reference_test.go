package sqleng

// The nested-loop reference defines the supported SELECT fragment: the
// cross product of FROM in written order, WHERE, GROUP BY, HAVING and the
// projection. It shares the parser, the expression compiler and
// collectAggs' slot mapping with the engine, and nothing of the planner, the
// pipeline or the code predicates.

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

// refQuery runs one statement through the reference. An EXPLAIN fails
// exactly when its SELECT does; the plan it prints is the engine's own, so
// a successful one returns a nil Result.
func refQuery(e *Engine, sql string) (*Result, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	if x, ok := st.(*ExplainStmt); ok {
		_, err := refSelect(e, x.Select)
		return nil, err
	}
	return refSelect(e, st.(*SelectStmt))
}

// refSelect evaluates st by the definition.
func refSelect(e *Engine, st *SelectStmt) (*Result, error) {
	qp := e.newQueryPins()
	var cat catalog
	var hidden []bool
	var tables [][][]types.Value // per FROM item: its rows, hidden _tid first, in snapshot order
	for _, fi := range st.From {
		snap, ok := qp.snapshot(fi.Table)
		if !ok {
			return nil, fmt.Errorf("sql: no table %q", fi.Table)
		}
		cat, hidden = append(cat, colInfo{qual: fi.Alias, name: TIDColumn}), append(hidden, true)
		for _, a := range snap.Schema().Attrs {
			cat, hidden = append(cat, colInfo{qual: fi.Alias, name: a.Name}), append(hidden, false)
		}
		var rows [][]types.Value
		snap.Scan(func(id relstore.TupleID, row relstore.Tuple) bool {
			rows = append(rows, append([]types.Value{types.NewInt(int64(id))}, row...))
			return true
		})
		tables = append(tables, rows)
	}
	where, err := compileExpr(cmp.Or[Expr](st.Where, &Literal{Value: types.NewBool(true)}), cat)
	if err != nil {
		return nil, err
	}

	var rows [][]types.Value
	var walk func(d int, row []types.Value)
	walk = func(d int, row []types.Value) {
		if d == len(tables) {
			if truthy(where(row)) {
				rows = append(rows, row)
			}
			return
		}
		for _, r := range tables[d] {
			walk(d+1, slices.Concat(row, r))
		}
	}
	walk(0, nil)

	var outExprs []Expr
	for _, it := range st.Items {
		if !it.Star {
			outExprs = append(outExprs, it.Expr)
		}
	}
	gcat, env := cat, map[string]int(nil)
	if st.GroupBy != nil || st.Having != nil || slices.ContainsFunc(outExprs, hasAggregate) {
		var calls []aggCall
		if env, calls, err = collectAggs(cat, append(slices.Clone(outExprs), st.Having)...); err != nil {
			return nil, err
		}
		keys := make([]evalFn, len(st.GroupBy))
		for i, g := range st.GroupBy {
			if keys[i], err = compileExpr(g, cat); err != nil {
				return nil, err
			}
		}
		rows = refGroup(rows, keys, calls, len(cat), st.GroupBy == nil)
		gcat = append(slices.Clone(cat), make(catalog, len(calls))...)
		if st.Having != nil {
			having, err := compileExprAgg(st.Having, gcat, env)
			if err != nil {
				return nil, err
			}
			rows = slices.DeleteFunc(rows, func(r []types.Value) bool { return !truthy(having(r)) })
		}
	}

	var names []string
	var projs []evalFn
	for _, it := range st.Items {
		if !it.Star {
			f, err := compileExprAgg(it.Expr, gcat, env)
			if err != nil {
				return nil, err
			}
			names, projs = append(names, itemName(it)), append(projs, f)
			continue
		}
		for i, ci := range cat {
			if !hidden[i] && (it.StarTable == "" || strings.EqualFold(ci.qual, it.StarTable)) {
				names = append(names, ci.name)
				projs = append(projs, func(r []types.Value) types.Value { return r[i] })
			}
		}
	}
	if len(projs) == 0 {
		return nil, fmt.Errorf("sql: empty select list")
	}
	res := &Result{Columns: names, Versions: qp.versions()}
	for _, r := range rows {
		var out []types.Value
		for _, f := range projs {
			out = append(out, f(r))
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

// refGroup groups rows by their keys' values, in first-appearance order,
// into one row per group: its first member, then one count per COUNT call.
// With no GROUP BY (global) an empty input is one group of NULLs.
func refGroup(rows [][]types.Value, keys []evalFn, calls []aggCall, width int, global bool) [][]types.Value {
	var order []string
	members := map[string][][]types.Value{}
	for _, r := range rows {
		var k []byte
		for _, f := range keys {
			k = f(r).AppendGroupKey(k)
		}
		if members[string(k)] == nil {
			order = append(order, string(k))
		}
		members[string(k)] = append(members[string(k)], r)
	}
	if len(order) == 0 && global {
		order = []string{""}
	}
	var out [][]types.Value
	for _, k := range order {
		ms := members[k]
		rep := slices.Repeat([]types.Value{types.Null}, width)
		if len(ms) > 0 {
			rep = slices.Clone(ms[0])
		}
		for _, c := range calls {
			rep = append(rep, types.NewInt(refCount(c, ms)))
		}
		out = append(out, rep)
	}
	return out
}

// refCount evaluates one COUNT call over a group's rows: every row for
// COUNT(*), else the non-NULL operands, under DISTINCT the distinct ones.
func refCount(c aggCall, ms [][]types.Value) int64 {
	if c.fn.Star {
		return int64(len(ms))
	}
	seen := map[string]bool{}
	n := int64(0)
	for _, r := range ms {
		v := c.arg(r)
		k := string(v.AppendGroupKey(nil))
		if v.IsNull() || (c.fn.Distinct && seen[k]) {
			continue
		}
		seen[k] = true
		n++
	}
	return n
}
