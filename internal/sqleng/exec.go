package sqleng

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"sync"

	"semandaq/internal/fdset"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
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

// Result is a materialized query result. For DML statements Rows is nil and
// Affected counts modified tuples.
type Result struct {
	Columns  []string
	Rows     [][]types.Value
	Affected int
	// Versions records, per base table the statement touched (lowercased
	// name), the table version the statement read — every base table is
	// resolved to one pinned snapshot per query, so a table referenced
	// twice (a self-join) contributes exactly one version. For DML it is
	// the version after the mutation.
	Versions map[string]int64
}

// Engine executes SQL statements against a relstore.Store.
type Engine struct {
	store *relstore.Store
	// rowScan is the package tests' hook: it routes SELECTs to the legacy
	// materializing executor (base tables loaded by the snapshot's row
	// scan), the oracle the streaming path is cross-checked against. No
	// caller outside this package's tests sets it.
	rowScan bool
	// pins maps lowercased table names to externally pinned snapshots;
	// queries read a pinned table at that exact version regardless of
	// concurrent mutations. Set via Pin/Unpin.
	pins map[string]*relstore.Snapshot
	// fds maps lowercased table names to registered exact-FD sets; the
	// planner consults them for FD-collapsed joins (fdjoin.go). Unlike Pin,
	// registration is safe against concurrent queries: the map is
	// copy-on-write under fdmu (discovery runs register facts on live
	// engines), and a stale set can never change results — the collapsed
	// probe re-checks every key per candidate.
	fdmu sync.RWMutex
	fds  map[string]*fdset.Set
	// ops accumulates executor operation counters (fdjoin.go), read via
	// OpStats and zeroed via ResetOpStats. Unsynchronized: meaningful
	// only when queries run sequentially.
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
	case *InsertStmt:
		return e.runInsert(s)
	case *UpdateStmt:
		return e.runUpdate(ctx, s)
	case *DeleteStmt:
		return e.runDelete(ctx, s)
	case *CreateTableStmt:
		return e.runCreate(s)
	case *DropTableStmt:
		tab, ok := e.store.Table(s.Table)
		if !ok || !e.store.Drop(s.Table) {
			return nil, fmt.Errorf("sql: no table %q", s.Table)
		}
		// Stamp the dropped table's final version: the statement's last
		// observation of the base table it touched.
		return &Result{
			Versions: map[string]int64{strings.ToLower(s.Table): tab.Version()},
		}, nil
	}
	return nil, fmt.Errorf("sql: unsupported statement %T", st)
}

// relation is an intermediate materialized result with a column catalog.
// It belongs to the legacy materializing executor, kept behind the rowScan
// test hook as the cross-check oracle for the streaming path.
type relation struct {
	cat    catalog
	hidden []bool // parallel to cat; hidden columns are excluded from `*`
	rows   [][]types.Value
}

func (r *relation) width() int { return len(r.cat) }

// loadTable materializes a base table with its hidden _tid column first,
// reading from the query's pinned snapshot (queryPins) so the whole
// statement — including self-joins — observes exactly one version of each
// base table.
func (e *Engine) loadTable(ctx context.Context, fi FromItem, qp *queryPins) (*relation, error) {
	snap, ok := qp.snapshot(fi.Table)
	if !ok {
		return nil, fmt.Errorf("sql: no table %q", fi.Table)
	}
	sc := snap.Schema()
	rel := &relation{}
	rel.cat = append(rel.cat, colInfo{qual: fi.Alias, name: TIDColumn})
	rel.hidden = append(rel.hidden, true)
	for _, a := range sc.Attrs {
		rel.cat = append(rel.cat, colInfo{qual: fi.Alias, name: a.Name})
		rel.hidden = append(rel.hidden, false)
	}
	n := 0
	snap.Scan(func(id relstore.TupleID, row relstore.Tuple) bool {
		if n++; n%cancelStride == 0 && ctx.Err() != nil {
			return false
		}
		out := make([]types.Value, 0, len(row)+1)
		out = append(out, types.NewInt(int64(id)))
		out = append(out, row...)
		rel.rows = append(rel.rows, out)
		return true
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return rel, nil
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

// runSelect dispatches a SELECT to the streaming planner/executor
// (plan.go, iterator.go) or, under the rowScan test hook, to the legacy
// materializing executor below. Both produce byte-identical Results; the
// legacy path is the cross-check oracle.
func (e *Engine) runSelect(ctx context.Context, st *SelectStmt) (*Result, error) {
	if len(st.From) == 0 {
		return e.selectNoFrom(st)
	}
	if e.rowScan {
		return e.runSelectLegacy(ctx, st)
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
		// No FROM clause: nothing to scan, join or push down.
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

// runSelectLegacy is the materializing executor: load whole tables, filter,
// join relation by relation, then project. Retained verbatim as the oracle
// the streaming path is cross-checked against.
func (e *Engine) runSelectLegacy(ctx context.Context, st *SelectStmt) (*Result, error) {
	// One pin set per statement: every base table resolves to a single
	// snapshot for the whole query, so the result reflects exactly one
	// version of each table it reads.
	qp := e.newQueryPins()
	if err := validateRefs(st, qp); err != nil {
		return nil, err
	}
	pending := splitConjuncts(st.Where)

	// Build the join tree left to right: comma-list tables first, then the
	// explicit JOIN clauses.
	rel, err := e.loadTable(ctx, st.From[0], qp)
	if err != nil {
		return nil, err
	}
	rel, pending, err = applyResolvable(ctx, rel, pending)
	if err != nil {
		return nil, err
	}
	for _, fi := range st.From[1:] {
		right, err := e.loadTable(ctx, fi, qp)
		if err != nil {
			return nil, err
		}
		rel, pending, err = joinRelations(ctx, rel, right, pending, nil, false)
		if err != nil {
			return nil, err
		}
	}
	for _, jc := range st.Joins {
		right, err := e.loadTable(ctx, jc.Item, qp)
		if err != nil {
			return nil, err
		}
		on := splitConjuncts(jc.On)
		rel, pending, err = joinRelations(ctx, rel, right, pending, on, jc.Left)
		if err != nil {
			return nil, err
		}
	}
	// Any leftover WHERE conjunct must now resolve.
	for _, c := range pending {
		f, err := compileExpr(c, rel.cat)
		if err != nil {
			return nil, err
		}
		var kept [][]types.Value
		for i, row := range rel.rows {
			if err := strideCheck(ctx, i); err != nil {
				return nil, err
			}
			v, err := f(row)
			if err != nil {
				return nil, err
			}
			if truthy(v) {
				kept = append(kept, row)
			}
		}
		rel.rows = kept
	}
	return e.projectAndFinish(ctx, st, rel, qp.versions())
}

// selectNoFrom handles SELECT <exprs> with no FROM clause (constants).
func (e *Engine) selectNoFrom(st *SelectStmt) (*Result, error) {
	// No FROM clause: the statement touches no base table, which the
	// stamp records as an explicitly empty version map.
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
		v, err := f(nil)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
		res.Columns = append(res.Columns, itemName(item))
	}
	res.Rows = [][]types.Value{row}
	return res, nil
}

// applyResolvable filters rel by every pending conjunct that resolves,
// returning the surviving conjuncts.
func applyResolvable(ctx context.Context, rel *relation, pending []Expr) (*relation, []Expr, error) {
	var rest []Expr
	for _, c := range pending {
		if !resolvable(c, rel.cat) || hasAggregate(c) {
			rest = append(rest, c)
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		f, err := compileExpr(c, rel.cat)
		if err != nil {
			return nil, nil, err
		}
		var evalErr error
		rel.filterInPlace(func(row []types.Value) bool {
			if evalErr != nil {
				return false
			}
			v, err := f(row)
			if err != nil {
				evalErr = err
				return false
			}
			return truthy(v)
		})
		if evalErr != nil {
			return nil, nil, evalErr
		}
	}
	return rel, rest, nil
}

// filterInPlace keeps the rows the predicate selects.
func (r *relation) filterInPlace(keep func(row []types.Value) bool) {
	rows := r.rows[:0]
	for _, row := range r.rows {
		if keep(row) {
			rows = append(rows, row)
		}
	}
	r.rows = rows
}

// joinRelations joins left and right. Equi-join keys are harvested from
// `on` (for JOIN ... ON) and, for inner joins, from the pending WHERE
// conjuncts. Non-key conditions are applied as filters. For LEFT joins the
// whole ON condition is evaluated per pair and unmatched left rows are
// null-extended.
func joinRelations(ctx context.Context, left, right *relation, pending, on []Expr, outer bool) (*relation, []Expr, error) {
	combinedCat := append(append(catalog{}, left.cat...), right.cat...)
	combinedHidden := append(append([]bool{}, left.hidden...), right.hidden...)

	// Right side may have its own single-table filters in ON/WHERE; push
	// them down before hashing (inner joins only — for LEFT JOIN the ON
	// condition must not pre-filter which left rows survive, but filtering
	// the right side is safe and standard).
	var onRest []Expr
	for _, c := range on {
		if resolvable(c, right.cat) {
			f, err := compileExpr(c, right.cat)
			if err != nil {
				return nil, nil, err
			}
			var kept [][]types.Value
			for _, row := range right.rows {
				v, err := f(row)
				if err != nil {
					return nil, nil, err
				}
				if truthy(v) {
					kept = append(kept, row)
				}
			}
			right.rows = kept
			continue
		}
		onRest = append(onRest, c)
	}

	// Harvest equi-join keys: conjuncts of form L = R bridging the sides.
	// A null-safe key (IS NOT DISTINCT FROM) hashes NULL like any value.
	type keyPair struct {
		l, r     evalFn
		nullSafe bool
	}
	var keys []keyPair
	takeKey := func(c Expr) bool {
		b, ok := c.(*BinaryExpr)
		if !ok || (b.Op != "=" && b.Op != opNullSafeEq) || hasAggregate(c) {
			return false
		}
		switch {
		case resolvable(b.L, left.cat) && resolvable(b.R, right.cat) &&
			!resolvable(b.L, right.cat) && !resolvable(b.R, left.cat):
			lf, err1 := compileExpr(b.L, left.cat)
			rf, err2 := compileExpr(b.R, right.cat)
			if err1 != nil || err2 != nil {
				return false
			}
			keys = append(keys, keyPair{lf, rf, b.Op == opNullSafeEq})
			return true
		case resolvable(b.R, left.cat) && resolvable(b.L, right.cat) &&
			!resolvable(b.R, right.cat) && !resolvable(b.L, left.cat):
			lf, err1 := compileExpr(b.R, left.cat)
			rf, err2 := compileExpr(b.L, right.cat)
			if err1 != nil || err2 != nil {
				return false
			}
			keys = append(keys, keyPair{lf, rf, b.Op == opNullSafeEq})
			return true
		}
		return false
	}
	var onResidual []Expr
	for _, c := range onRest {
		if !takeKey(c) {
			onResidual = append(onResidual, c)
		}
	}
	var pendingRest []Expr
	if !outer {
		for _, c := range pending {
			if !takeKey(c) {
				pendingRest = append(pendingRest, c)
			}
		}
	} else {
		pendingRest = pending
	}

	// Residual ON conditions are evaluated per joined pair.
	var residualFns []evalFn
	for _, c := range onResidual {
		f, err := compileExpr(c, combinedCat)
		if err != nil {
			return nil, nil, err
		}
		residualFns = append(residualFns, f)
	}

	out := &relation{cat: combinedCat, hidden: combinedHidden}
	rightWidth := right.width()

	emit := func(lrow, rrow []types.Value) (bool, error) {
		row := make([]types.Value, 0, len(lrow)+rightWidth)
		row = append(row, lrow...)
		row = append(row, rrow...)
		for _, f := range residualFns {
			v, err := f(row)
			if err != nil {
				return false, err
			}
			if !truthy(v) {
				return false, nil
			}
		}
		out.rows = append(out.rows, row)
		return true, nil
	}

	if len(keys) > 0 {
		// Hash join on the harvested keys.
		buckets := make(map[string][][]types.Value, len(right.rows))
		for _, rrow := range right.rows {
			var kb strings.Builder
			null := false
			for _, k := range keys {
				v, err := k.r(rrow)
				if err != nil {
					return nil, nil, err
				}
				if v.IsNull() && !k.nullSafe {
					null = true
					break
				}
				v.WriteGroupKey(&kb)
			}
			if null {
				continue // NULL never equi-joins
			}
			key := kb.String()
			buckets[key] = append(buckets[key], rrow)
		}
		nullRight := make([]types.Value, rightWidth)
		for li, lrow := range left.rows {
			if err := strideCheck(ctx, li); err != nil {
				return nil, nil, err
			}
			var kb strings.Builder
			null := false
			for _, k := range keys {
				v, err := k.l(lrow)
				if err != nil {
					return nil, nil, err
				}
				if v.IsNull() && !k.nullSafe {
					null = true
					break
				}
				v.WriteGroupKey(&kb)
			}
			matched := false
			if !null {
				for _, rrow := range buckets[kb.String()] {
					ok, err := emit(lrow, rrow)
					if err != nil {
						return nil, nil, err
					}
					matched = matched || ok
				}
			}
			if outer && !matched {
				// Unmatched left rows are null-extended; the ON condition
				// does not filter them (standard LEFT JOIN semantics).
				row := make([]types.Value, 0, len(lrow)+rightWidth)
				row = append(row, lrow...)
				row = append(row, nullRight...)
				out.rows = append(out.rows, row)
			}
		}
	} else {
		// Nested-loop join (cross product with residual filters).
		nullRight := make([]types.Value, rightWidth)
		for li, lrow := range left.rows {
			if err := strideCheck(ctx, li); err != nil {
				return nil, nil, err
			}
			matched := false
			for _, rrow := range right.rows {
				ok, err := emit(lrow, rrow)
				if err != nil {
					return nil, nil, err
				}
				matched = matched || ok
			}
			if outer && !matched {
				row := make([]types.Value, 0, len(lrow)+rightWidth)
				row = append(row, lrow...)
				row = append(row, nullRight...)
				out.rows = append(out.rows, row)
			}
		}
	}

	// Apply any WHERE conjunct that becomes resolvable on the joined shape.
	return applyResolvable(ctx, out, pendingRest)
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
	// distinct is the legacy oracle's DISTINCT set, by Value.Key(); the
	// streaming sink tracks DISTINCT by code (aggCount).
	distinct map[string]bool
}

func newAggState(c aggCall) *aggState {
	s := &aggState{call: &c, allInt: true}
	if c.fn.Distinct {
		s.distinct = map[string]bool{}
	}
	return s
}

func (s *aggState) add(row []types.Value) error {
	if s.call.fn.Star {
		s.count++
		return nil
	}
	v, err := s.call.arg(row)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil // aggregates skip NULLs
	}
	if s.distinct != nil {
		k := v.Key()
		if s.distinct[k] {
			return nil
		}
		s.distinct[k] = true
	}
	return s.accumulate(v)
}

// accumulate folds one non-NULL (and, under DISTINCT, first-seen) operand
// value into the aggregate.
func (s *aggState) accumulate(v types.Value) error {
	s.count++
	switch s.call.fn.Name {
	case "SUM", "AVG":
		switch v.Kind() {
		case types.KindInt:
			s.sumI += v.Int()
			s.sumF += float64(v.Int())
		case types.KindFloat:
			s.allInt = false
			s.sumF += v.Float()
		default:
			return fmt.Errorf("sql: %s over %s values", s.call.fn.Name, v.Kind())
		}
	case "MIN":
		if s.ext.IsNull() || v.Compare(s.ext) < 0 {
			s.ext = v
		}
	case "MAX":
		if s.ext.IsNull() || v.Compare(s.ext) > 0 {
			s.ext = v
		}
	}
	return nil
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

// projectAndFinish runs grouping, having, projection, distinct, order and
// limit over the filtered relation. versions is the per-base-table pin map
// the query resolved; it stamps the Result at construction.
func (e *Engine) projectAndFinish(ctx context.Context, st *SelectStmt, rel *relation, versions map[string]int64) (*Result, error) {
	var orderExprs []Expr
	for _, oi := range st.OrderBy {
		orderExprs = append(orderExprs, oi.Expr)
	}
	var itemExprs []Expr
	for _, it := range st.Items {
		if !it.Star {
			itemExprs = append(itemExprs, it.Expr)
		}
	}
	needsGroup := len(st.GroupBy) > 0 || st.Having != nil
	if !needsGroup {
		for _, ex := range append(append([]Expr{}, itemExprs...), orderExprs...) {
			if hasAggregate(ex) {
				needsGroup = true
				break
			}
		}
	}

	var aggEnv map[string]int
	if needsGroup {
		all := append(append([]Expr{}, itemExprs...), orderExprs...)
		if st.Having != nil {
			all = append(all, st.Having)
		}
		env, calls, err := collectAggs(rel.cat, all...)
		if err != nil {
			return nil, err
		}
		aggEnv = env

		var keyFns []evalFn
		for _, g := range st.GroupBy {
			f, err := compileExpr(g, rel.cat)
			if err != nil {
				return nil, err
			}
			keyFns = append(keyFns, f)
		}

		type group struct {
			rep    []types.Value
			states []*aggState
		}
		groups := map[string]*group{}
		var order []string
		for i, row := range rel.rows {
			if err := strideCheck(ctx, i); err != nil {
				return nil, err
			}
			var kb strings.Builder
			for _, f := range keyFns {
				v, err := f(row)
				if err != nil {
					return nil, err
				}
				v.WriteGroupKey(&kb)
			}
			key := kb.String()
			g, ok := groups[key]
			if !ok {
				g = &group{rep: row}
				for _, c := range calls {
					g.states = append(g.states, newAggState(c))
				}
				groups[key] = g
				order = append(order, key)
			}
			for _, s := range g.states {
				if err := s.add(row); err != nil {
					return nil, err
				}
			}
		}
		// Global aggregate over an empty input still yields one group.
		if len(groups) == 0 && len(st.GroupBy) == 0 {
			g := &group{rep: make([]types.Value, rel.width())}
			for _, c := range calls {
				g.states = append(g.states, newAggState(c))
			}
			groups[""] = g
			order = append(order, "")
		}
		// Rebuild the relation: representative row + aggregate results.
		grel := &relation{cat: rel.cat, hidden: rel.hidden}
		for range calls {
			grel.cat = append(grel.cat, colInfo{})
			grel.hidden = append(grel.hidden, true)
		}
		for _, key := range order {
			g := groups[key]
			row := make([]types.Value, 0, grel.width())
			row = append(row, g.rep...)
			for _, s := range g.states {
				row = append(row, s.result())
			}
			grel.rows = append(grel.rows, row)
		}
		rel = grel

		if st.Having != nil {
			f, err := compileExprAgg(st.Having, rel.cat, aggEnv)
			if err != nil {
				return nil, err
			}
			var kept [][]types.Value
			for _, row := range rel.rows {
				v, err := f(row)
				if err != nil {
					return nil, err
				}
				if truthy(v) {
					kept = append(kept, row)
				}
			}
			rel.rows = kept
		}
	}

	// Compile the projection.
	type proj struct {
		name string
		fn   evalFn
	}
	var projs []proj
	for _, it := range st.Items {
		if it.Star {
			for i, ci := range rel.cat {
				if rel.hidden[i] {
					continue
				}
				if it.StarTable != "" && !strings.EqualFold(ci.qual, it.StarTable) {
					continue
				}
				idx := i
				projs = append(projs, proj{name: ci.name, fn: func(row []types.Value) (types.Value, error) {
					return row[idx], nil
				}})
			}
			continue
		}
		f, err := compileExprAgg(it.Expr, rel.cat, aggEnv)
		if err != nil {
			return nil, err
		}
		projs = append(projs, proj{name: itemName(it), fn: f})
	}
	if len(projs) == 0 {
		return nil, fmt.Errorf("sql: empty select list")
	}

	// Compile ORDER BY keys: against the relation, or against an output
	// alias when the expression is a bare name matching one.
	type orderKey struct {
		fn    evalFn // against relation row; nil when byOutput >= 0
		byOut int
		desc  bool
	}
	var orderKeys []orderKey
	for _, oi := range st.OrderBy {
		ok := orderKey{byOut: -1, desc: oi.Desc}
		if f, err := compileExprAgg(oi.Expr, rel.cat, aggEnv); err == nil {
			ok.fn = f
		} else if cr, isRef := oi.Expr.(*ColumnRef); isRef && cr.Table == "" {
			found := -1
			for i, p := range projs {
				if strings.EqualFold(p.name, cr.Column) {
					found = i
					break
				}
			}
			if found < 0 {
				return nil, err
			}
			ok.byOut = found
		} else {
			return nil, err
		}
		orderKeys = append(orderKeys, ok)
	}

	res := &Result{Versions: versions}
	for _, p := range projs {
		res.Columns = append(res.Columns, p.name)
	}
	type outRow struct {
		vals []types.Value
		keys []types.Value
	}
	var out []outRow
	seen := map[string]bool{}
	for ri, row := range rel.rows {
		if err := strideCheck(ctx, ri); err != nil {
			return nil, err
		}
		or := outRow{vals: make([]types.Value, len(projs))}
		for i, p := range projs {
			v, err := p.fn(row)
			if err != nil {
				return nil, err
			}
			or.vals[i] = v
		}
		if st.Distinct {
			var kb strings.Builder
			for _, v := range or.vals {
				v.WriteGroupKey(&kb)
			}
			k := kb.String()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		for _, okey := range orderKeys {
			var v types.Value
			if okey.byOut >= 0 {
				v = or.vals[okey.byOut]
			} else {
				var err error
				v, err = okey.fn(row)
				if err != nil {
					return nil, err
				}
			}
			or.keys = append(or.keys, v)
		}
		out = append(out, or)
	}

	if len(orderKeys) > 0 {
		sort.SliceStable(out, func(i, j int) bool {
			for k, okey := range orderKeys {
				c := out[i].keys[k].Compare(out[j].keys[k])
				if c == 0 {
					continue
				}
				if okey.desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}

	// OFFSET / LIMIT.
	if st.Offset > 0 {
		if st.Offset >= len(out) {
			out = nil
		} else {
			out = out[st.Offset:]
		}
	}
	if st.Limit >= 0 && st.Limit < len(out) {
		out = out[:st.Limit]
	}
	for _, or := range out {
		res.Rows = append(res.Rows, or.vals)
	}
	return res, nil
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

func (e *Engine) runInsert(st *InsertStmt) (*Result, error) {
	tab, ok := e.store.Table(st.Table)
	if !ok {
		return nil, fmt.Errorf("sql: no table %q", st.Table)
	}
	sc := tab.Schema()
	var colPos []int
	if len(st.Cols) > 0 {
		pos, err := sc.Positions(st.Cols)
		if err != nil {
			return nil, err
		}
		colPos = pos
	}
	n := 0
	for _, exprRow := range st.Rows {
		if colPos == nil && len(exprRow) != sc.Arity() {
			return nil, fmt.Errorf("sql: INSERT has %d values, table %s has %d columns",
				len(exprRow), st.Table, sc.Arity())
		}
		if colPos != nil && len(exprRow) != len(colPos) {
			return nil, fmt.Errorf("sql: INSERT has %d values for %d columns",
				len(exprRow), len(colPos))
		}
		row := make(relstore.Tuple, sc.Arity())
		for i := range row {
			row[i] = types.Null
		}
		for i, ex := range exprRow {
			f, err := compileExpr(ex, nil)
			if err != nil {
				return nil, err
			}
			v, err := f(nil)
			if err != nil {
				return nil, err
			}
			if colPos != nil {
				row[colPos[i]] = v
			} else {
				row[i] = v
			}
		}
		if _, err := tab.Insert(row); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{
		Affected: n,
		Versions: map[string]int64{strings.ToLower(sc.Name): tab.Version()},
	}, nil
}

// tableEnv builds the catalog for single-table DML (alias = table name, no
// hidden _tid: DML operates on visible columns, IDs are collected aside).
func tableEnv(tab *relstore.Table) catalog {
	sc := tab.Schema()
	cat := make(catalog, 0, sc.Arity())
	for _, a := range sc.Attrs {
		cat = append(cat, colInfo{qual: sc.Name, name: a.Name})
	}
	return cat
}

func (e *Engine) runUpdate(ctx context.Context, st *UpdateStmt) (*Result, error) {
	tab, ok := e.store.Table(st.Table)
	if !ok {
		return nil, fmt.Errorf("sql: no table %q", st.Table)
	}
	sc := tab.Schema()
	cat := tableEnv(tab)
	var where evalFn
	if st.Where != nil {
		f, err := compileExpr(st.Where, cat)
		if err != nil {
			return nil, err
		}
		where = f
	}
	type change struct {
		pos int
		fn  evalFn
	}
	var changes []change
	for _, setc := range st.Set {
		pos, ok := sc.Pos(setc.Col)
		if !ok {
			return nil, fmt.Errorf("sql: no column %q in %s", setc.Col, st.Table)
		}
		f, err := compileExpr(setc.Expr, cat)
		if err != nil {
			return nil, err
		}
		changes = append(changes, change{pos: pos, fn: f})
	}
	type pendingUpdate struct {
		id  relstore.TupleID
		row relstore.Tuple
	}
	var updates []pendingUpdate
	var scanErr error
	n := 0
	// Pin the read phase: the WHERE scan evaluates exactly one table
	// version even while other writers interleave; the apply phase below
	// then re-locks per tuple as usual.
	tab.Snapshot().Scan(func(id relstore.TupleID, row relstore.Tuple) bool {
		if n++; n%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				scanErr = err
				return false
			}
		}
		if where != nil {
			v, err := where(row)
			if err != nil {
				scanErr = err
				return false
			}
			if !truthy(v) {
				return true
			}
		}
		newRow := row.Clone()
		for _, c := range changes {
			v, err := c.fn(row)
			if err != nil {
				scanErr = err
				return false
			}
			newRow[c.pos] = v
		}
		updates = append(updates, pendingUpdate{id: id, row: newRow})
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	for _, u := range updates {
		if err := tab.Update(u.id, u.row); err != nil {
			return nil, err
		}
	}
	return &Result{
		Affected: len(updates),
		Versions: map[string]int64{strings.ToLower(sc.Name): tab.Version()},
	}, nil
}

func (e *Engine) runDelete(ctx context.Context, st *DeleteStmt) (*Result, error) {
	tab, ok := e.store.Table(st.Table)
	if !ok {
		return nil, fmt.Errorf("sql: no table %q", st.Table)
	}
	cat := tableEnv(tab)
	var where evalFn
	if st.Where != nil {
		f, err := compileExpr(st.Where, cat)
		if err != nil {
			return nil, err
		}
		where = f
	}
	var ids []relstore.TupleID
	var scanErr error
	n := 0
	// Pin the read phase (see runUpdate): one version for the WHERE scan.
	tab.Snapshot().Scan(func(id relstore.TupleID, row relstore.Tuple) bool {
		if n++; n%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				scanErr = err
				return false
			}
		}
		if where != nil {
			v, err := where(row)
			if err != nil {
				scanErr = err
				return false
			}
			if !truthy(v) {
				return true
			}
		}
		ids = append(ids, id)
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	// The apply phase deliberately runs to completion: aborting between
	// deletes would leave the DML half-applied with an error return.
	//semandaq:vet-ignore ctxloop apply phase is atomic by design
	for _, id := range ids {
		tab.Delete(id)
	}
	return &Result{
		Affected: len(ids),
		Versions: map[string]int64{strings.ToLower(tab.Schema().Name): tab.Version()},
	}, nil
}

func (e *Engine) runCreate(st *CreateTableStmt) (*Result, error) {
	attrs := make([]schema.Attribute, len(st.Cols))
	for i, c := range st.Cols {
		attrs[i] = schema.Attribute{Name: c.Name, Type: c.Type}
	}
	tab, err := e.store.Create(schema.NewTyped(st.Table, attrs...))
	if err != nil {
		return nil, err
	}
	return &Result{
		Versions: map[string]int64{strings.ToLower(st.Table): tab.Version()},
	}, nil
}
