package sqleng

import (
	"context"
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
	// concurrent mutations. Set via Pin/PinClasses/Unpin.
	pins map[string]pin
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
func (e *Engine) Pin(snap *relstore.Snapshot) { e.PinClasses(snap, nil) }

// PinClasses is Pin with the run's class memo over snap (nil: none): the
// class walk of a query driven by the pinned table takes its classes from
// the memo, so the queries of one run, and the run's own code, group each
// column set once. Without a memo a query builds the classes it walks.
func (e *Engine) PinClasses(snap *relstore.Snapshot, classes *relstore.ClassMemo) {
	if e.pins == nil {
		e.pins = map[string]pin{}
	}
	e.pins[strings.ToLower(snap.Schema().Name)] = pin{snap, classes}
}

// pin is a pinned snapshot and its class memo, if it has one.
type pin struct {
	snap    *relstore.Snapshot
	classes *relstore.ClassMemo
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
	snaps map[string]pin
}

func (e *Engine) newQueryPins() *queryPins {
	return &queryPins{e: e, snaps: map[string]pin{}}
}

// snapshot returns the query's pinned snapshot of the named table.
func (q *queryPins) snapshot(name string) (*relstore.Snapshot, bool) {
	key := strings.ToLower(name)
	if s, ok := q.snaps[key]; ok {
		return s.snap, true
	}
	if s, ok := q.e.pins[key]; ok {
		q.snaps[key] = s
		return s.snap, true
	}
	tab, ok := q.e.store.Table(name)
	if !ok {
		return nil, false
	}
	q.snaps[key] = pin{snap: tab.Snapshot()}
	return q.snaps[key].snap, true
}

// classes returns the class memo pinned with the named table, nil if none.
func (q *queryPins) classes(name string) *relstore.ClassMemo {
	return q.snaps[strings.ToLower(name)].classes
}

// versions reports the pinned version per table read by the query.
func (q *queryPins) versions() map[string]int64 {
	out := make(map[string]int64, len(q.snaps))
	for name, s := range q.snaps {
		out[name] = s.snap.Version()
	}
	return out
}

// QueryContext parses and executes a single SELECT under a context: a
// cancelled ctx aborts the executor's scan, join and grouping loops
// promptly and returns ctx.Err().
func (e *Engine) QueryContext(ctx context.Context, sql string) (*Result, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	p, err := e.buildSelectPlan(st)
	if err != nil {
		return nil, err
	}
	return p.collect(ctx)
}

// colInfo describes one column of the pipeline row: the table alias it
// came from and its name.
type colInfo struct {
	qual string
	name string
}

// catalog is the ordered column layout of the pipeline row.
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

// columnRefs collects every column reference in a WHERE condition.
func columnRefs(e Expr, out *[]*ColumnRef) {
	switch n := e.(type) {
	case *ColumnRef:
		*out = append(*out, n)
	case *BinaryExpr:
		columnRefs(n.L, out)
		columnRefs(n.R, out)
	}
}

// resolvable reports whether every column reference in e resolves in cat.
func resolvable(e Expr, cat catalog) bool {
	var refs []*ColumnRef
	columnRefs(e, &refs)
	for _, r := range refs {
		if _, err := cat.resolve(r); err != nil {
			return false
		}
	}
	return true
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
