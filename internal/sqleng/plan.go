// The planner for the SELECT path: buildSelectPlan lowers a SelectStmt onto
// the query's pinned snapshots as a left-deep pipeline of columnar scans,
// each later scan joined to the prefix by a nested loop over its surviving
// rows. The scans run in FROM order and each enumerates its rows in
// snapshot order, so the pipeline yields the rows of the nested-loop
// definition (cross product in FROM order, then WHERE) in that
// definition's order. The nested-loop evaluator in the package tests is
// that definition, and FuzzSQLExec holds the pipeline to it.
//
// No WHERE conjunct can fail on a row, so where and how often one is
// evaluated is unobservable, and the planner is free to:
//
//   - decide on codes (codepred.go): the pipeline carries a cursor of
//     snapshot row indices, every WHERE comparison, GROUP BY key and COUNT
//     operand is decided on dictionary codes, and a Value is fetched only
//     for a projected column, at the sink;
//   - run a WHERE conjunct at the first stage where it resolves, and push
//     one that reads a joined scan alone into that scan, before the join;
//   - decide the pipeline once per class of driver rows with Equal values
//     on the columns WHERE reads, and count a class at once (the class
//     walk).
package sqleng

import (
	"fmt"
	"slices"
	"strings"

	"semandaq/internal/relstore"
)

// filterPred is one compiled conjunct; src feeds the plan's description.
type filterPred struct {
	code codeFn
	src  Expr
}

// scanNode is one base-table access: a pinned columnar snapshot plus the
// predicates pushed down to it. start/arity locate the scan's segment
// (hidden _tid first, then the attributes) inside the full pipeline row.
type scanNode struct {
	alias string
	table string
	snap  *relstore.Snapshot
	cnr   *relstore.Columnar
	start int // offset of the scan's segment in the full row
	arity int // segment width (1 + number of attributes)
	// filters hold a joined scan's pushdown: they decide, before the join,
	// which of its rows survive. The driver scan keeps its WHERE conjuncts
	// in plan.stages[0].
	filters []filterPred
}

// selectPlan is a fully compiled SELECT: scans, stage filters and the
// result sink, with the per-table pinned versions captured at plan (pin)
// time.
type selectPlan struct {
	st     *SelectStmt
	cat    catalog
	hidden []bool
	scans  []*scanNode
	// stages[d] holds the WHERE conjuncts that become evaluable once scans
	// 0..d are set, in original WHERE order.
	stages   [][]filterPred
	versions map[string]int64
	sink     *streamSink
	posScan  []int32    // row-buffer position -> owning scan
	xlats    []*xlatTab // the plan's code translation tables (codepred.go)
	// The class walk (planMemo): its columns D, the product of their
	// distinct counts, why the plan has none, and the memo pinned with the
	// driver table, if any, which holds D's classes.
	memoCols  []int32
	memoSpace int
	memoOff   string
	classes   *relstore.ClassMemo
	// ops points at the owning engine's executor operation counters; a run
	// adds what it counted when it ends (planExec.flushOps).
	ops *OpCounters
}

// scanOf maps a full-row column position to the owning scan index.
func (p *selectPlan) scanOf(pos int) int { return int(p.posScan[pos]) }

// buildSelectPlan compiles st against the engine's store and pins. Every
// error a SELECT can return, short of cancellation, surfaces here: running
// the plan cannot fail. Every expression compiles against the full row
// layout, so an unqualified name that two tables share is ambiguous
// wherever it is placed.
func (e *Engine) buildSelectPlan(st *SelectStmt) (*selectPlan, error) {
	qp := e.newQueryPins()
	p := &selectPlan{st: st, ops: &e.ops}
	for _, fi := range st.From {
		snap, ok := qp.snapshot(fi.Table)
		if !ok {
			return nil, fmt.Errorf("sql: no table %q", fi.Table)
		}
		if len(p.scans) == 0 {
			p.classes = qp.classes(fi.Table)
		}
		sc := &scanNode{alias: fi.Alias, table: fi.Table, snap: snap, cnr: snap.Columnar(), start: len(p.cat)}
		p.cat, p.hidden = append(p.cat, colInfo{qual: fi.Alias, name: TIDColumn}), append(p.hidden, true)
		for _, a := range snap.Schema().Attrs {
			p.cat, p.hidden = append(p.cat, colInfo{qual: fi.Alias, name: a.Name}), append(p.hidden, false)
		}
		sc.arity = len(p.cat) - sc.start
		for range sc.arity {
			p.posScan = append(p.posScan, int32(len(p.scans)))
		}
		p.scans = append(p.scans, sc)
	}
	p.stages = make([][]filterPred, len(p.scans))
	p.versions = qp.versions()

	// Each stage, in FROM order, claims the WHERE conjuncts that resolve on
	// its prefix. What no stage claims reads an unknown or ambiguous column,
	// and compiling it returns that error.
	pending := splitConjuncts(st.Where)
	for d := range p.scans {
		var err error
		if pending, err = p.claimStage(d, pending); err != nil {
			return nil, err
		}
	}
	if len(pending) > 0 {
		_, err := p.compileCode(pending[0])
		return nil, err
	}

	p.planMemo()
	var err error
	if p.sink, err = newStreamSink(p); err != nil {
		return nil, err
	}
	if p.memoOff == "" && len(p.memoCols) == 0 && !p.sink.perClass {
		// One class of every row: deciding it saves nothing, and a sink
		// that takes rows one by one would replay them all after it.
		p.memoOff = "WHERE reads no driver column and the sink takes rows one by one"
	}
	return p, nil
}

// planMemo decides whether the class walk (driverMemo, iterator.go) serves
// the plan. D is every driver column WHERE reads: what the stage filters
// below the driver scan see of its row. The walk is on when the product of
// D's distinct counts is at most half the driver's row count, so that a
// class holds two rows on average (on a key the walk is all cost) — exact
// statistics, so a patched snapshot plans like a rebuilt one. An empty D
// passes that test but only serves a sink that counts per class;
// buildSelectPlan turns the walk off otherwise, once the sink is compiled.
func (p *selectPlan) planMemo() {
	drv, rows := p.scans[0], p.scans[0].cnr.Len()
	p.memoSpace = 1
	var refs []*ColumnRef
	columnRefs(p.st.Where, &refs)
	for _, r := range refs {
		pos, _ := p.cat.resolve(r)                                                                // every WHERE column resolved when its stage claimed it
		if pos < drv.arity && 2*p.memoSpace <= rows && !slices.Contains(p.memoCols, int32(pos)) { // past that the product only grows
			p.memoCols = append(p.memoCols, int32(pos))
			p.memoSpace *= drv.cnr.Col(pos - 1).Card()
		}
	}
	if 2*p.memoSpace > rows {
		p.memoOff = fmt.Sprintf("space %d > half of rows %d", p.memoSpace, rows)
	}
}

// claimStage claims every pending conjunct resolvable on the prefix through
// scan d, in WHERE order, returning the survivors. One that reads scan d > 0
// alone filters that scan before the join: it keeps the same rows either
// way.
func (p *selectPlan) claimStage(d int, pending []Expr) ([]Expr, error) {
	cat := p.cat[:p.scans[d].start+p.scans[d].arity]
	var rest []Expr
	for _, c := range pending {
		if !resolvable(c, cat) {
			rest = append(rest, c)
			continue
		}
		code, err := p.compileCode(c)
		if err != nil {
			return nil, err
		}
		if f := (filterPred{code, c}); d > 0 && p.refsOnlyScan(c, d) {
			p.scans[d].filters = append(p.scans[d].filters, f)
		} else {
			p.stages[d] = append(p.stages[d], f)
		}
	}
	return rest, nil
}

// refsOnlyScan reports whether every column reference of e resolves into
// scan d's segment of the full catalog.
func (p *selectPlan) refsOnlyScan(e Expr, d int) bool {
	var refs []*ColumnRef
	columnRefs(e, &refs)
	for _, r := range refs {
		if pos, err := p.cat.resolve(r); err != nil || p.scanOf(pos) != d {
			return false
		}
	}
	return len(refs) > 0
}

// describe renders the plan, one line per element: each scan with its
// exact per-column class counts and the conjuncts it runs, the translation
// tables they read (xlat), whether the class walk serves the statement, the
// sink, and which columns the sink fetches. Plans are compared by these
// lines in tests; nothing served prints them.
func (p *selectPlan) describe() []string {
	var out []string
	add := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...))
	}
	preds := func(role string, fs []filterPred) {
		for _, f := range fs {
			add("  %s %s", role, exprString(f.src))
		}
	}
	for i, sc := range p.scans {
		role, name := "scan", sc.table
		if i == 0 {
			role = "drive"
		}
		if !strings.EqualFold(sc.alias, sc.table) {
			name += " AS " + sc.alias
		}
		add("%s %s rows=%d distinct[%s]", role, name, sc.cnr.Len(), scanStats(sc))
		preds("filter", sc.filters)
		preds("stage-filter", p.stages[i])
	}
	for _, x := range p.xlats {
		add("xlat %s (%d codes)", x.label, x.a.col.Card())
	}
	if p.memoOff != "" {
		add("class walk off: %s", p.memoOff)
	} else {
		add("class walk on %s space=%d rows=%d", p.colNames(p.memoCols), p.memoSpace, p.scans[0].cnr.Len())
	}
	add("sink %s", p.sink.describe())
	if cols := append(slices.Clone(p.sink.rowCols), p.sink.outCols...); len(cols) > 0 {
		add("  materialise %s at the sink", p.colNames(cols))
	}
	return out
}

// colNames renders row-buffer positions as [alias.column ...].
func (p *selectPlan) colNames(cols []int32) string {
	names := make([]string, len(cols))
	for i, pos := range cols {
		names[i] = p.cat[pos].qual + "." + p.cat[pos].name
	}
	return "[" + strings.Join(names, " ") + "]"
}

// scanStats renders the exact per-attribute distinct counts of a scan
// (Column.Card) — the statistics the class walk's rule reads.
func scanStats(sc *scanNode) string {
	attrs := sc.snap.Schema().Attrs
	parts := make([]string, len(attrs))
	for j, a := range attrs {
		parts[j] = fmt.Sprintf("%s:%d", a.Name, sc.cnr.Col(j).Card())
	}
	return strings.Join(parts, " ")
}
