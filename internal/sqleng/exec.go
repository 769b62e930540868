package sqleng

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

// cancelStride is how many rows the executor's hot loops (scans, joins,
// grouping) process between context checks: a cancelled million-row query
// aborts within a few thousand rows without the check showing up in
// profiles.
const cancelStride = 4096

// strideCheck returns ctx.Err() every cancelStride-th call position i.
func strideCheck(ctx context.Context, i int) error {
	if i%cancelStride == 0 {
		return ctx.Err()
	}
	return nil
}

// TIDColumn is the hidden pseudo-column exposing each base tuple's store ID.
// Detection queries select it to attribute violations back to tuples, e.g.
// SELECT t._tid FROM customer t WHERE ...; it never appears in `*` output.
const TIDColumn = "_tid"

// Result is a materialized query result.
type Result struct {
	Columns []string
	Rows    [][]types.Value
	// Versions records, per base table the statement read (lowercased
	// name), the table version it read — every base table is resolved to one
	// pinned snapshot per query, so a table referenced twice (a self-join)
	// contributes exactly one version.
	Versions map[string]int64
}

// Engine executes SQL statements against a relstore.Store.
type Engine struct {
	store *relstore.Store
	// pins maps lowercased table names to externally pinned snapshots;
	// queries read a pinned table at that exact version regardless of
	// concurrent mutations. Set via Pin/Unpin.
	pins map[string]*relstore.Snapshot
	// ops accumulates executor operation counters (iterator.go), read via
	// OpStats and zeroed via ResetOpStats. Every run adds its counts
	// atomically when it ends, so concurrent queries on a shared engine all
	// count; a read while queries run sees only the runs that have ended.
	ops OpCounters
}

// New creates an engine over the given store.
func New(store *relstore.Store) *Engine { return &Engine{store: store} }

// Pin makes every subsequent query read the snapshot's table at the
// snapshot's version, regardless of concurrent mutations of the live table.
// The SQL detector pins the data table once per detection so the multiple
// generated queries of one run all see a single version. Pin configures
// the engine and must not race with running queries: use it on a private
// engine, not a shared one.
func (e *Engine) Pin(snap *relstore.Snapshot) {
	if e.pins == nil {
		e.pins = map[string]*relstore.Snapshot{}
	}
	e.pins[strings.ToLower(snap.Schema().Name)] = snap
}

// Unpin removes a Pin for the named table.
func (e *Engine) Unpin(name string) { delete(e.pins, strings.ToLower(name)) }

// Store returns the underlying store.
func (e *Engine) Store() *relstore.Store { return e.store }

// queryPins resolves base tables to read snapshots, at most once per table
// per query: the first reference pins the table's current version (or the
// engine-level Pin) and every later reference — a self-join, a second FROM
// item — reuses it, so one statement never mixes two versions of a table.
type queryPins struct {
	e     *Engine
	snaps map[string]*relstore.Snapshot
}

func (e *Engine) newQueryPins() *queryPins {
	return &queryPins{e: e, snaps: map[string]*relstore.Snapshot{}}
}

// snapshot returns the query's pinned snapshot of the named table.
func (q *queryPins) snapshot(name string) (*relstore.Snapshot, bool) {
	key := strings.ToLower(name)
	if s, ok := q.snaps[key]; ok {
		return s, true
	}
	if s, ok := q.e.pins[key]; ok {
		q.snaps[key] = s
		return s, true
	}
	tab, ok := q.e.store.Table(name)
	if !ok {
		return nil, false
	}
	s := tab.Snapshot()
	q.snaps[key] = s
	return s, true
}

// versions reports the pinned version per table read by the query.
func (q *queryPins) versions() map[string]int64 {
	out := make(map[string]int64, len(q.snaps))
	for name, s := range q.snaps {
		out[name] = s.Version()
	}
	return out
}

// QueryContext parses and executes a single statement under a context: a
// cancelled ctx aborts the executor's scan, join and grouping loops
// promptly and returns ctx.Err().
func (e *Engine) QueryContext(ctx context.Context, sql string) (*Result, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.RunContext(ctx, st)
}

// RunContext executes a pre-parsed statement under a context.
func (e *Engine) RunContext(ctx context.Context, st Statement) (*Result, error) {
	switch s := st.(type) {
	case *SelectStmt:
		return e.runSelect(ctx, s)
	case *ExplainStmt:
		return e.runExplain(s)
	}
	return nil, fmt.Errorf("sql: unsupported statement %T", st)
}

// splitConjuncts flattens nested ANDs into a conjunct list.
func splitConjuncts(e Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	if e == nil {
		return nil
	}
	return []Expr{e}
}

// columnRefs collects every column reference in an expression; with
// inAggs false it stays outside aggregate calls (whose values a grouped row
// reads from the aggregate slots, not from the columns).
func columnRefs(e Expr, inAggs bool, out *[]*ColumnRef) {
	switch n := e.(type) {
	case nil:
	case *ColumnRef:
		*out = append(*out, n)
	case *Literal:
	case *BinaryExpr:
		columnRefs(n.L, inAggs, out)
		columnRefs(n.R, inAggs, out)
	case *UnaryExpr:
		columnRefs(n.E, inAggs, out)
	case *IsNullExpr:
		columnRefs(n.E, inAggs, out)
	case *InExpr:
		columnRefs(n.E, inAggs, out)
		for _, v := range n.List {
			columnRefs(v, inAggs, out)
		}
	case *BetweenExpr:
		columnRefs(n.E, inAggs, out)
		columnRefs(n.Lo, inAggs, out)
		columnRefs(n.Hi, inAggs, out)
	case *CaseExpr:
		for _, w := range n.Whens {
			columnRefs(w.Cond, inAggs, out)
			columnRefs(w.Then, inAggs, out)
		}
		columnRefs(n.Else, inAggs, out)
	case *FuncExpr:
		if !inAggs && aggregateFuncs[n.Name] {
			return
		}
		for _, a := range n.Args {
			columnRefs(a, inAggs, out)
		}
	}
}

// resolvable reports whether every column reference in e resolves in cat.
func resolvable(e Expr, cat catalog) bool {
	var refs []*ColumnRef
	columnRefs(e, true, &refs)
	for _, r := range refs {
		if _, err := cat.resolve(r); err != nil {
			return false
		}
	}
	return true
}

// validateRefs rejects ambiguous unqualified column references against the
// final joined catalog. Without this up-front pass, an ambiguous WHERE
// conjunct could be silently pushed down to the first table it resolves on.
// Tables resolve through the query's pins (engine pins before the store).
func validateRefs(st *SelectStmt, qp *queryPins) error {
	var fullCat catalog
	load := func(fi FromItem) error {
		snap, ok := qp.snapshot(fi.Table)
		if !ok {
			return fmt.Errorf("sql: no table %q", fi.Table)
		}
		fullCat = append(fullCat, colInfo{qual: fi.Alias, name: TIDColumn})
		for _, a := range snap.Schema().Attrs {
			fullCat = append(fullCat, colInfo{qual: fi.Alias, name: a.Name})
		}
		return nil
	}
	for _, fi := range st.From {
		if err := load(fi); err != nil {
			return err
		}
	}
	for _, jc := range st.Joins {
		if err := load(jc.Item); err != nil {
			return err
		}
	}
	check := func(exprs ...Expr) error {
		var refs []*ColumnRef
		for _, ex := range exprs {
			columnRefs(ex, true, &refs)
		}
		for _, r := range refs {
			if _, err := fullCat.resolve(r); err != nil {
				var amb *AmbiguousColumnError
				if errors.As(err, &amb) {
					return err
				}
			}
		}
		return nil
	}
	all := []Expr{st.Where, st.Having}
	all = append(all, st.GroupBy...)
	for _, it := range st.Items {
		if !it.Star {
			all = append(all, it.Expr)
		}
	}
	for _, jc := range st.Joins {
		all = append(all, jc.On)
	}
	for _, oi := range st.OrderBy {
		all = append(all, oi.Expr)
	}
	return check(all...)
}

// runSelect plans a SELECT onto the streaming executor (plan.go,
// iterator.go) and collects its result.
func (e *Engine) runSelect(ctx context.Context, st *SelectStmt) (*Result, error) {
	if len(st.From) == 0 {
		return e.selectNoFrom(st)
	}
	p, err := e.buildSelectPlan(st)
	if err != nil {
		return nil, err
	}
	return p.collect(ctx)
}

// runExplain plans the SELECT (without running it) and renders the chosen
// join order, pushed-down predicates and the exact statistics behind each
// choice, one line per plan element.
func (e *Engine) runExplain(st *ExplainStmt) (*Result, error) {
	if len(st.Select.From) == 0 {
		// No FROM clause: nothing to scan, join or push down; the select
		// list still has to compile.
		if _, err := e.selectNoFrom(st.Select); err != nil {
			return nil, err
		}
		return &Result{
			Columns:  []string{"plan"},
			Rows:     [][]types.Value{{types.NewString("constant select (no FROM)")}},
			Versions: map[string]int64{},
		}, nil
	}
	p, err := e.buildSelectPlan(st.Select)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: []string{"plan"}, Versions: p.versions}
	for _, line := range p.describe() {
		res.Rows = append(res.Rows, []types.Value{types.NewString(line)})
	}
	return res, nil
}

// selectNoFrom handles SELECT <exprs> with no FROM clause (constants): one
// row, so it takes a select list and nothing else.
func (e *Engine) selectNoFrom(st *SelectStmt) (*Result, error) {
	if st.Where != nil || st.GroupBy != nil || st.Having != nil || st.OrderBy != nil || st.Limit >= 0 || st.Offset > 0 {
		return nil, fmt.Errorf("sql: a SELECT without FROM takes only a select list")
	}
	// The statement touches no base table, which the stamp records as an
	// explicitly empty version map.
	res := &Result{Versions: map[string]int64{}}
	var row []types.Value
	for _, item := range st.Items {
		if item.Star {
			return nil, fmt.Errorf("sql: * requires FROM")
		}
		f, err := compileExpr(item.Expr, nil)
		if err != nil {
			return nil, err
		}
		row = append(row, f(nil))
		res.Columns = append(res.Columns, itemName(item))
	}
	res.Rows = [][]types.Value{row}
	return res, nil
}

// aggCall pairs an aggregate expression with its compiled operand. The
// streaming sink adds what lets it count on dictionary codes: term when
// the operand of a COUNT compiles to a code term (vslot is then -1, else
// the call's slot among the value-level states), and the call's DISTINCT
// bookkeeping — intern maps a value-level operand to a code, dseen holds
// every (group, code) pair past a group's first code.
type aggCall struct {
	fn     *FuncExpr
	arg    evalFn // nil for COUNT(*)
	term   *codeTerm
	vslot  int
	intern map[string]uint32
	dseen  map[uint64]struct{}
}

// collectAggs finds the distinct aggregate calls in the given expressions.
func collectAggs(cat catalog, exprs ...Expr) (map[string]int, []aggCall, error) {
	env := map[string]int{}
	var calls []aggCall
	var walk func(e Expr) error
	walk = func(e Expr) error {
		switch n := e.(type) {
		case nil, *Literal, *ColumnRef:
		case *FuncExpr:
			if aggregateFuncs[n.Name] {
				key := exprString(n)
				if _, ok := env[key]; ok {
					return nil
				}
				var arg evalFn
				if !n.Star {
					if len(n.Args) != 1 {
						return fmt.Errorf("sql: %s takes one argument", n.Name)
					}
					if hasAggregate(n.Args[0]) {
						return fmt.Errorf("sql: nested aggregates are not allowed")
					}
					f, err := compileExpr(n.Args[0], cat)
					if err != nil {
						return err
					}
					arg = f
				}
				env[key] = len(cat) + len(calls)
				calls = append(calls, aggCall{fn: n, arg: arg})
				return nil
			}
			for _, a := range n.Args {
				if err := walk(a); err != nil {
					return err
				}
			}
		case *BinaryExpr:
			if err := walk(n.L); err != nil {
				return err
			}
			return walk(n.R)
		case *UnaryExpr:
			return walk(n.E)
		case *IsNullExpr:
			return walk(n.E)
		case *InExpr:
			if err := walk(n.E); err != nil {
				return err
			}
			for _, v := range n.List {
				if err := walk(v); err != nil {
					return err
				}
			}
		case *BetweenExpr:
			if err := walk(n.E); err != nil {
				return err
			}
			if err := walk(n.Lo); err != nil {
				return err
			}
			return walk(n.Hi)
		case *CaseExpr:
			for _, w := range n.Whens {
				if err := walk(w.Cond); err != nil {
					return err
				}
				if err := walk(w.Then); err != nil {
					return err
				}
			}
			return walk(n.Else)
		}
		return nil
	}
	for _, e := range exprs {
		if err := walk(e); err != nil {
			return nil, nil, err
		}
	}
	return env, calls, nil
}

// aggState accumulates one aggregate over one group.
type aggState struct {
	call   *aggCall
	count  int64
	sumI   int64
	sumF   float64
	allInt bool
	ext    types.Value // the running MIN or MAX
}

// accumulate folds one non-NULL (and, under DISTINCT, first-seen) operand
// value into the aggregate. SUM and AVG skip a value that is not a number
// the way every aggregate skips NULL.
func (s *aggState) accumulate(v types.Value) {
	switch s.call.fn.Name {
	case "SUM", "AVG":
		switch v.Kind() {
		case types.KindInt:
			s.sumI += v.Int()
		case types.KindFloat:
			s.allInt = false
		default:
			return
		}
		s.sumF += v.Float()
	case "MIN":
		if s.ext.IsNull() || v.Compare(s.ext) < 0 {
			s.ext = v
		}
	case "MAX":
		if s.ext.IsNull() || v.Compare(s.ext) > 0 {
			s.ext = v
		}
	}
	s.count++
}

func (s *aggState) result() types.Value {
	switch s.call.fn.Name {
	case "COUNT":
		return types.NewInt(s.count)
	case "SUM":
		if s.count == 0 {
			return types.Null
		}
		if s.allInt {
			return types.NewInt(s.sumI)
		}
		return types.NewFloat(s.sumF)
	case "AVG":
		if s.count == 0 {
			return types.Null
		}
		return types.NewFloat(s.sumF / float64(s.count))
	case "MIN", "MAX":
		return s.ext
	}
	return types.Null
}

// itemName returns the output column name of a projection item.
func itemName(it SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*ColumnRef); ok {
		return cr.Column
	}
	return exprString(it.Expr)
}
