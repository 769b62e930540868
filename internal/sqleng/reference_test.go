package sqleng

// The nested-loop reference defines the supported SELECT fragment: the
// cross product of FROM in written order (comma tables, then JOINs; a LEFT
// JOIN null-extends a left row no pair matched), WHERE, GROUP BY, HAVING,
// projection, DISTINCT, stable ORDER BY, OFFSET/LIMIT. It shares the parser,
// the expression compiler and collectAggs' slot mapping with the engine, and
// nothing of the planner, the pipeline or the code predicates.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
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

// refSource is one FROM item: its segment of the row, its rows (hidden
// _tid first) in snapshot order, and its ON (TRUE for a comma table).
type refSource struct {
	start, width int
	rows         [][]types.Value
	on           evalFn
	left         bool
}

// refSelect evaluates st by the definition. Without FROM it is one row of
// no columns, and takes a select list of no * and no aggregate only.
func refSelect(e *Engine, st *SelectStmt) (*Result, error) {
	clauses := st.Where != nil || st.GroupBy != nil || st.Having != nil || st.OrderBy != nil || st.Limit >= 0 || st.Offset > 0
	if len(st.From) == 0 && (clauses || slices.ContainsFunc(st.Items, func(it SelectItem) bool { return it.Star || hasAggregate(it.Expr) })) {
		return nil, fmt.Errorf("sql: a SELECT without FROM takes only a select list")
	}
	qp := e.newQueryPins()
	if err := validateRefs(st, qp); err != nil {
		return nil, err
	}
	always := &Literal{Value: types.NewBool(true)}
	items := make([]JoinClause, 0, len(st.From)+len(st.Joins))
	for _, fi := range st.From {
		items = append(items, JoinClause{Item: fi, On: always})
	}
	var cat catalog
	var hidden []bool
	var srcs []refSource
	for _, jc := range append(items, st.Joins...) {
		snap, _ := qp.snapshot(jc.Item.Table) // validateRefs pinned every table
		src := refSource{start: len(cat), left: jc.Left}
		cat, hidden = append(cat, colInfo{qual: jc.Item.Alias, name: TIDColumn}), append(hidden, true)
		for _, a := range snap.Schema().Attrs {
			cat, hidden = append(cat, colInfo{qual: jc.Item.Alias, name: a.Name}), append(hidden, false)
		}
		src.width = len(cat) - src.start
		snap.Scan(func(id relstore.TupleID, row relstore.Tuple) bool {
			src.rows = append(src.rows, append([]types.Value{types.NewInt(int64(id))}, row...))
			return true
		})
		var err error
		if src.on, err = compileExpr(jc.On, cat); err != nil { // an ON reads the tables joined so far
			return nil, err
		}
		srcs = append(srcs, src)
	}
	where, err := compileExpr(cmp.Or[Expr](st.Where, always), cat)
	if err != nil {
		return nil, err
	}

	var rows [][]types.Value
	row := make([]types.Value, len(cat))
	var walk func(d int)
	walk = func(d int) {
		if d == len(srcs) {
			if truthy(where(row)) {
				rows = append(rows, slices.Clone(row))
			}
			return
		}
		src, matched := srcs[d], false
		for _, r := range src.rows {
			copy(row[src.start:], r)
			if truthy(src.on(row)) {
				matched = true
				walk(d + 1)
			}
		}
		if src.left && !matched {
			for i := range src.width {
				row[src.start+i] = types.Null
			}
			walk(d + 1)
		}
	}
	walk(0)

	var outExprs []Expr // the select items, then the ORDER BY keys
	for _, it := range st.Items {
		if !it.Star {
			outExprs = append(outExprs, it.Expr)
		}
	}
	for _, oi := range st.OrderBy {
		outExprs = append(outExprs, oi.Expr)
	}
	gcat, env := cat, map[string]int(nil)
	if st.GroupBy != nil || st.Having != nil || slices.ContainsFunc(outExprs, hasAggregate) {
		var calls []aggCall
		if env, calls, err = collectAggs(cat, append(slices.Clone(outExprs), st.Having)...); err != nil {
			return nil, err
		}
		keys, err := compileList(st.GroupBy, cat, nil)
		if err != nil {
			return nil, err
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
	// An ORDER BY key is an expression over the (grouped) row, or else a
	// bare name of an output column.
	orderBy := make([]evalFn, len(st.OrderBy))
	for k, oi := range st.OrderBy {
		f, err := compileExprAgg(oi.Expr, gcat, env)
		if ref, isRef := oi.Expr.(*ColumnRef); err != nil && isRef && ref.Table == "" {
			if j := slices.IndexFunc(names, func(n string) bool { return strings.EqualFold(n, ref.Column) }); j >= 0 {
				f, err = projs[j], nil
			}
		}
		if err != nil {
			return nil, err
		}
		orderBy[k] = f
	}

	type outRow struct{ vals, keys []types.Value }
	var out []outRow
	seen := map[string]bool{}
	for _, r := range rows {
		var o outRow
		for _, f := range projs {
			o.vals = append(o.vals, f(r))
		}
		if st.Distinct {
			var key []byte
			for _, v := range o.vals {
				key = v.AppendGroupKey(key)
			}
			if seen[string(key)] {
				continue
			}
			seen[string(key)] = true
		}
		for _, f := range orderBy {
			o.keys = append(o.keys, f(r))
		}
		out = append(out, o)
	}
	sort.SliceStable(out, func(i, j int) bool {
		for k, oi := range st.OrderBy {
			if c := out[i].keys[k].Compare(out[j].keys[k]); c != 0 {
				return (c < 0) != oi.Desc
			}
		}
		return false
	})
	out = out[min(st.Offset, len(out)):]
	if st.Limit >= 0 {
		out = out[:min(st.Limit, len(out))]
	}
	res := &Result{Columns: names, Versions: qp.versions()}
	for _, o := range out {
		res.Rows = append(res.Rows, o.vals)
	}
	return res, nil
}

// refGroup groups rows by their keys' values, in first-appearance order,
// into one row per group: its first member, then one value per aggregate
// call. With no GROUP BY (global) an empty input is one group of NULLs.
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
			rep = append(rep, refAggregate(c, ms))
		}
		out = append(out, rep)
	}
	return out
}

// refAggregate evaluates one aggregate call over a group's rows. Every call
// skips NULL operands and, under DISTINCT, repeats of an earlier value; SUM
// and AVG also skip operands that are not numbers.
func refAggregate(c aggCall, ms [][]types.Value) types.Value {
	if c.fn.Star {
		return types.NewInt(int64(len(ms)))
	}
	sums := c.fn.Name == "SUM" || c.fn.Name == "AVG"
	var vals []types.Value
	seen := map[string]bool{}
	for _, r := range ms {
		v := c.arg(r)
		k := string(v.AppendGroupKey(nil))
		if v.IsNull() || (c.fn.Distinct && seen[k]) || (sums && v.Kind() != types.KindInt && v.Kind() != types.KindFloat) {
			continue
		}
		seen[k] = true
		vals = append(vals, v)
	}
	ext, sumI, sumF, allInt := types.Null, int64(0), 0.0, true
	for _, v := range vals {
		if d := v.Compare(ext); ext.IsNull() || (c.fn.Name == "MIN" && d < 0) || (c.fn.Name == "MAX" && d > 0) {
			ext = v
		}
		if sums && v.Kind() == types.KindInt {
			sumI += v.Int()
		}
		if sums {
			allInt, sumF = allInt && v.Kind() == types.KindInt, sumF+v.Float()
		}
	}
	switch {
	case c.fn.Name == "COUNT":
		return types.NewInt(int64(len(vals)))
	case !sums || len(vals) == 0: // MIN, MAX; NULL over no values
		return ext
	case c.fn.Name == "AVG":
		return types.NewFloat(sumF / float64(len(vals)))
	case allInt:
		return types.NewInt(sumI)
	}
	return types.NewFloat(sumF)
}
