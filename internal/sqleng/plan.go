// The planner for the SELECT path: buildSelectPlan lowers a SelectStmt onto
// the query's pinned snapshots as a left-deep pipeline of columnar scans and
// join steps. Join steps run in FROM order and each enumerates its matches
// in right-side snapshot order, so the pipeline yields the rows of the
// nested-loop definition (cross product in FROM order, then WHERE) in that
// definition's order. The nested-loop evaluator in the package tests is
// that definition, and FuzzSQLExec holds the pipeline to it.
//
// Expression evaluation is total (expr.go): no predicate can fail on a row.
// Where and how often a conjunct is evaluated is therefore unobservable,
// and the planner is free to:
//
//   - decide on codes (codepred.go): the pipeline carries a cursor of
//     snapshot row indices, and every conjunct, join key, GROUP BY key and
//     COUNT operand in the code-compilable subset is decided on dictionary
//     codes; a Value is fetched only for a column some value-level
//     expression reads, and for projected columns only at the sink;
//   - run a WHERE conjunct at the first stage where it resolves, and push
//     one that reads a join's right side alone into that side's build;
//   - join through a PLI: a step keyed by an equality whose right side is a
//     bare column probes that column's position list index with the left
//     side's code, and checks any further keys as code predicates; a step
//     without such a key is a nested loop over the right side's survivors;
//   - decide the pipeline once per class of driver rows with the same
//     values, and count a class at once (the class walk).
package sqleng

import (
	"fmt"
	"slices"
	"strings"

	"semandaq/internal/relstore"
)

// filterPred is one compiled conjunct: a code predicate over the cursor
// when its shape allows (codepred.go), else an evaluator over the lazily
// filled row buffer. src feeds EXPLAIN.
type filterPred struct {
	code codeFn
	fn   evalFn
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
	cat   catalog // this scan's own catalog: [_tid, attrs...]
	start int     // offset of the scan's segment in the full row
	arity int     // segment width (1 + number of attributes)
	// filters hold right-side pushdown only: they decide, at index build
	// time, which rows of a join's right side survive. The driver scan keeps
	// its WHERE conjuncts in plan.stages[0].
	filters []filterPred
	// fill lists the row-buffer positions of this scan that some value-level
	// expression of the pipeline reads: materialised each time the scan's
	// cursor moves. Empty when everything on the scan compiled to codes.
	fill []int32
}

// stepKind selects the join algorithm of one step.
type stepKind uint8

const (
	stepNested stepKind = iota // no PLI key: filtered nested loop
	stepPLI                    // a bare right column keyed by a left code term: PLI-class probe
)

// joinKey is the equality lsrc = rsrc (nullSafe: IS NOT DISTINCT FROM, NULL
// matches NULL) a PLI step probes by: rt is the right side's bare column,
// lt the left side's code term, and tab translates lt's codes into rt's
// Equal-class space.
type joinKey struct {
	lsrc, rsrc Expr
	lt, rt     *codeTerm
	tab        *xlatTab
	nullSafe   bool
}

// joinStep joins the pipeline prefix with one more scan.
type joinStep struct {
	right    *scanNode
	rightIdx int // scan index of the right side (= step index + 1)
	kind     stepKind
	key      joinKey // stepPLI

	// Exact statistics (never estimated): the right row count, the key
	// column's PLI class count, and rightLen / classes.
	rightLen int
	classes  int
	expected float64
}

// selectPlan is a fully compiled SELECT: scans, join steps, stage filters
// and the result sink, with the per-table pinned versions captured at plan
// (pin) time.
type selectPlan struct {
	st     *SelectStmt
	cat    catalog
	hidden []bool
	scans  []*scanNode
	steps  []*joinStep
	// stages[d] holds the WHERE conjuncts that become evaluable once scans
	// 0..d are filled, in original WHERE order.
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
	// adds what it probed when it ends (planExec.flushOps).
	ops *OpCounters
}

// prefixCat returns the catalog covering scans 0..i: what the join of the
// first i+1 tables can see.
func (p *selectPlan) prefixCat(i int) catalog {
	sc := p.scans[i]
	return p.cat[:sc.start+sc.arity]
}

// scanOf maps a full-row column position to the owning scan index.
func (p *selectPlan) scanOf(pos int) int { return int(p.posScan[pos]) }

// colsOf appends to dst the row-buffer positions exprs read outside
// aggregate calls, skipping those in dst or skip already.
func (p *selectPlan) colsOf(dst, skip []int32, exprs ...Expr) []int32 {
	var refs []*ColumnRef
	for _, e := range exprs {
		columnRefs(e, false, &refs)
	}
	for _, r := range refs {
		if pos, err := p.cat.resolve(r); err == nil &&
			!slices.Contains(dst, int32(pos)) && !slices.Contains(skip, int32(pos)) {
			dst = append(dst, int32(pos))
		}
	}
	return dst
}

// pred compiles one conjunct against the full row layout: to codes when its
// shape allows, else value-level, registering the columns it reads for
// filling as their scans' cursors move.
func (p *selectPlan) pred(c Expr) (filterPred, error) {
	if code, ok := p.compileCode(c); ok {
		return filterPred{code: code, src: c}, nil
	}
	f, err := compileExpr(c, p.cat)
	if err != nil {
		return filterPred{}, err
	}
	for _, pos := range p.colsOf(nil, nil, c) {
		if sc := p.scans[p.scanOf(int(pos))]; !slices.Contains(sc.fill, pos) {
			sc.fill = append(sc.fill, pos)
		}
	}
	return filterPred{fn: f, src: c}, nil
}

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
		sc.cat = append(sc.cat, colInfo{qual: fi.Alias, name: TIDColumn})
		p.hidden = append(p.hidden, true)
		for _, a := range snap.Schema().Attrs {
			sc.cat = append(sc.cat, colInfo{qual: fi.Alias, name: a.Name})
			p.hidden = append(p.hidden, false)
		}
		p.cat = append(p.cat, sc.cat...)
		sc.arity = len(sc.cat)
		for range sc.cat {
			p.posScan = append(p.posScan, int32(len(p.scans)))
		}
		p.scans = append(p.scans, sc)
	}
	p.stages = make([][]filterPred, len(p.scans))
	p.versions = qp.versions()

	// Driver scan: claim the WHERE conjuncts resolvable on the first table.
	pending, err := p.claimStage(0, splitConjuncts(st.Where))
	if err != nil {
		return nil, err
	}
	// Join steps, in FROM order (the enumeration order is part of the
	// result, so it is never reordered). Each takes its PLI key from the
	// pending conjuncts; the conjuncts that then resolve on the widened
	// prefix, further keys included, run as its stage's filters.
	for i := 1; i < len(p.scans); i++ {
		step := &joinStep{right: p.scans[i], rightIdx: i, rightLen: p.scans[i].cnr.Len()}
		step.expected = float64(step.rightLen)
		key := -1
		for j, c := range pending {
			if k, ok := p.keyOf(c, i); ok {
				if classes := k.rt.col.PLI().NumClasses(); key < 0 || classes > step.classes {
					key, step.key, step.classes = j, k, classes
				}
			}
		}
		if key >= 0 {
			step.kind = stepPLI
			step.key.tab = p.xlat(step.key.lt, step.key.rt)
			pending = slices.Delete(pending, key, key+1)
			if step.classes > 0 {
				step.expected = float64(step.rightLen) / float64(step.classes)
			}
		}
		p.steps = append(p.steps, step)
		if pending, err = p.claimStage(i, pending); err != nil {
			return nil, err
		}
	}
	// What no stage claimed reads an unknown or ambiguous column or holds an
	// aggregate: compiling it returns that error.
	for _, c := range pending {
		f, err := p.pred(c)
		if err != nil {
			return nil, err
		}
		p.stages[len(p.scans)-1] = append(p.stages[len(p.scans)-1], f)
	}

	p.planMemo()
	p.sink, err = newStreamSink(p)
	if err != nil {
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
// and join keys below the driver scan see of its row. The walk is on when D
// holds no _tid and the product of D's distinct counts is at most half the
// driver's row count, so that a class holds two rows on average (on a key
// the walk is all cost) — exact statistics, like the join steps' choices,
// so a patched snapshot plans like a rebuilt one. An empty D passes that
// test but only serves a sink that counts per class; buildSelectPlan turns
// the walk off otherwise, once the sink is compiled.
func (p *selectPlan) planMemo() {
	drv, rows := p.scans[0], p.scans[0].cnr.Len()
	p.memoSpace = 1
	for _, pos := range p.colsOf(nil, nil, p.st.Where) {
		if pos == 0 {
			p.memoOff = "reads " + p.cat[0].qual + "." + TIDColumn
			return
		}
		if int(pos) < drv.arity && 2*p.memoSpace <= rows { // past that the product only grows
			p.memoCols = append(p.memoCols, pos)
			p.memoSpace *= drv.cnr.Col(int(pos) - 1).Card()
		}
	}
	if 2*p.memoSpace > rows {
		p.memoOff = fmt.Sprintf("space %d > half of rows %d", p.memoSpace, rows)
	}
}

// claimStage claims every pending conjunct resolvable on the prefix through
// scan d (aggregate-free, in WHERE order), returning the survivors. One that
// reads scan d > 0 alone filters that join's right side before the join: it
// keeps the same rows either way.
func (p *selectPlan) claimStage(d int, pending []Expr) ([]Expr, error) {
	cat := p.prefixCat(d)
	var rest []Expr
	for _, c := range pending {
		if !resolvable(c, cat) || hasAggregate(c) {
			rest = append(rest, c)
			continue
		}
		f, err := p.pred(c)
		if err != nil {
			return nil, err
		}
		if d > 0 && p.refsOnlyScan(c, d) {
			p.scans[d].filters = append(p.scans[d].filters, f)
		} else {
			p.stages[d] = append(p.stages[d], f)
		}
	}
	return rest, nil
}

// keyOf reports whether conjunct c can key step si's PLI probe: an = (or IS
// NOT DISTINCT FROM) whose one side is a bare column of scan si and whose
// other is a code term over an earlier scan.
func (p *selectPlan) keyOf(c Expr, si int) (joinKey, bool) {
	b, ok := c.(*BinaryExpr)
	if !ok || (b.Op != "=" && b.Op != opNullSafeEq) {
		return joinKey{}, false
	}
	k := joinKey{nullSafe: b.Op == opNullSafeEq}
	for _, sides := range [2][2]Expr{{b.L, b.R}, {b.R, b.L}} {
		k.lsrc, k.rsrc = sides[0], sides[1]
		_, bare := k.rsrc.(*ColumnRef)
		k.lt, _, _ = p.termOf(k.lsrc, k.nullSafe)
		k.rt, _, _ = p.termOf(k.rsrc, k.nullSafe)
		if bare && k.lt != nil && k.rt != nil && k.lt.scan < si && k.rt.scan == si {
			return k, true
		}
	}
	return joinKey{}, false
}

// refsOnlyScan reports whether every column reference of e resolves into
// scan d's segment of the full catalog.
func (p *selectPlan) refsOnlyScan(e Expr, d int) bool {
	var refs []*ColumnRef
	columnRefs(e, true, &refs)
	for _, r := range refs {
		if pos, err := p.cat.resolve(r); err != nil || p.scanOf(pos) != d {
			return false
		}
	}
	return len(refs) > 0
}

// describe renders the plan for EXPLAIN: one line per scan and join step,
// quoting the pushed-down predicates and the exact cardinalities behind
// each join, which predicates run on codes (code-pred), the translation
// tables they read (xlat) and which columns are materialised where.
func (p *selectPlan) describe() []string {
	var out []string
	add := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...))
	}
	preds := func(role string, fs []filterPred) {
		for _, f := range fs {
			if f.code != nil {
				add("  %s code-pred %s", role, exprString(f.src))
			} else {
				add("  %s %s", role, exprString(f.src))
			}
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
		if len(sc.fill) > 0 {
			add("  materialise %s per row", p.colNames(sc.fill))
		}
		if i > 0 {
			step := p.steps[i-1]
			if step.kind == stepPLI {
				op := " = "
				if step.key.nullSafe {
					op = " " + opNullSafeEq + " "
				}
				add("  join pli on %s%s%s classes=%d expect=%.3g", exprString(step.key.lsrc), op,
					exprString(step.key.rsrc), step.classes, step.expected)
			} else {
				add("  join nested expect=%.3g", step.expected)
			}
		}
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
	late := slices.Clone(p.sink.rowCols)
	for _, pos := range append(slices.Clone(p.sink.havingCols), p.sink.outCols...) {
		if !slices.Contains(late, pos) {
			late = append(late, pos)
		}
	}
	if len(late) > 0 {
		add("  materialise %s at the sink", p.colNames(late))
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

// scanStats renders the exact per-attribute class counts of a scan — the
// statistics the PLI steps read.
func scanStats(sc *scanNode) string {
	attrs := sc.snap.Schema().Attrs
	parts := make([]string, len(attrs))
	for j, a := range attrs {
		parts[j] = fmt.Sprintf("%s:%d", a.Name, sc.snap.ColClassCount(j))
	}
	return strings.Join(parts, " ")
}
