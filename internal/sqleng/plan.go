// The planner for the SELECT path: buildSelectPlan lowers a SelectStmt onto
// the query's pinned snapshots as a left-deep pipeline of columnar scans and
// join steps. Join steps run in written order and each enumerates its
// matches in right-side snapshot order, so the pipeline yields the rows of
// the nested-loop definition (cross product in FROM order, left-outer
// extension, then WHERE) in that definition's order. The nested-loop
// evaluator in the package tests is that definition, and FuzzSQLExec holds
// the pipeline to it.
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
//   - run a WHERE conjunct at the first stage where it resolves, and push a
//     right-only one into an inner join's build;
//   - join through indexes: equi-join steps probe the right side through its
//     PLI classes (single bare column) or a hash index over composite keys,
//     instead of nesting loops;
//   - order probes greedily by exact statistics: every indexed inner join
//     whose left key is computable from an earlier prefix is probed as soon
//     as that prefix is filled, most selective first, ranked by expected
//     matches = right rows / PLI class count (or dictionary-cardinality
//     product) — numbers the snapshot carries exactly, never estimates;
//   - replay a driver row's pipeline from an earlier row with the same
//     values (the driver memo), and stop early once a LIMIT is met.
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
	stepNested stepKind = iota // no equi-key: filtered nested loop
	stepPLI                    // single bare right column: PLI-class probe
	stepHash                   // composite/expression keys: hash index
)

func (k stepKind) String() string {
	switch k {
	case stepPLI:
		return "pli"
	case stepHash:
		return "hash"
	default:
		return "nested"
	}
}

// joinKey is one harvested equi-join key lsrc = rsrc (nullSafe: IS NOT
// DISTINCT FROM, NULL matches NULL). When the right side is a code term
// (rt) the key lives in rt's code space: the left side reaches it through
// the translation table tab when it is a term too, else by looking its
// value up (rt.codeOf). With rt nil both sides are evaluated and the key is
// their group-key bytes.
type joinKey struct {
	lsrc, rsrc Expr
	lfn, rfn   evalFn // value-level sides: lfn when tab is nil, rfn when rt is nil
	lt, rt     *codeTerm
	tab        *xlatTab
	nullSafe   bool
}

// joinStep joins the pipeline prefix with one more scan. Its keys are the
// bare `=` conjuncts bridging the sides, from ON first, then — inner joins
// only — from the pending WHERE list.
type joinStep struct {
	right    *scanNode
	rightIdx int // scan index of the right side (= step index + 1)
	outer    bool
	kind     stepKind

	keys    []joinKey
	keyRCol int // stepPLI: snapshot column index of the key column

	residuals []filterPred // leftover ON conjuncts, against the combined prefix

	// Exact statistics (never estimated): right row count, and the number
	// of key classes when the key is statable — PLI class count for a
	// single column, capped dictionary-cardinality product for composite
	// bare-column keys, 0 when the key is a computed expression.
	rightLen int
	classes  int
	expected float64 // rightLen / classes (rightLen when classes == 0)

	// probeAt is the earliest stage (number of scans filled minus one) at
	// which the step's left key is computable. When probeAt precedes the
	// step's own stage, the executor probes the index there and kills
	// doomed prefixes early; otherwise probeAt equals the step's own stage.
	probeAt int
}

// selectPlan is a fully compiled SELECT: scans, join steps, stage filters,
// the greedy probe schedule and the result sink, with the per-table pinned
// versions captured at plan (pin) time.
type selectPlan struct {
	st     *SelectStmt
	cat    catalog
	hidden []bool
	scans  []*scanNode
	steps  []*joinStep
	// stages[d] holds the WHERE conjuncts that become evaluable once scans
	// 0..d are filled, in original WHERE order.
	stages [][]filterPred
	// probesAt[d] lists indexes of steps probed right after stage d's
	// filters pass, most selective first (ascending expected matches).
	probesAt [][]int
	versions map[string]int64
	sink     *streamSink
	posScan  []int32    // row-buffer position -> owning scan
	xlats    []*xlatTab // the plan's code translation tables (codepred.go)
	// The driver-signature memo (planMemo): its columns D, the number of
	// value vectors over them, and why the plan has none.
	memoCols  []int32
	memoSpace int
	memoOff   string
	// ops points at the owning engine's executor operation counters; a run
	// adds what it probed and built when it ends (planExec.flushOps).
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
// aggregate calls, skipping those in dst or skip already. References that
// do not resolve (an ORDER BY output alias) read no column.
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
	p.fillInPipe(c)
	return filterPred{fn: f, src: c}, nil
}

// fillInPipe registers the columns a value-level pipeline expression reads
// with their scans' fill lists.
func (p *selectPlan) fillInPipe(e Expr) {
	for _, pos := range p.colsOf(nil, nil, e) {
		if sc := p.scans[p.scanOf(int(pos))]; !slices.Contains(sc.fill, pos) {
			sc.fill = append(sc.fill, pos)
		}
	}
}

// buildSelectPlan compiles st against the engine's store and pins. Every
// error a SELECT can return, short of cancellation, surfaces here: running
// the plan cannot fail.
func (e *Engine) buildSelectPlan(st *SelectStmt) (*selectPlan, error) {
	qp := e.newQueryPins()
	if err := validateRefs(st, qp); err != nil {
		return nil, err
	}
	pending := splitConjuncts(st.Where)
	p := &selectPlan{st: st, ops: &e.ops}

	type fromSpec struct {
		fi    FromItem
		on    []Expr
		outer bool
	}
	var specs []fromSpec
	for _, fi := range st.From {
		specs = append(specs, fromSpec{fi: fi})
	}
	for _, jc := range st.Joins {
		specs = append(specs, fromSpec{fi: jc.Item, on: splitConjuncts(jc.On), outer: jc.Left})
	}

	for _, spec := range specs {
		snap, ok := qp.snapshot(spec.fi.Table)
		if !ok {
			return nil, fmt.Errorf("sql: no table %q", spec.fi.Table)
		}
		sc := &scanNode{
			alias: spec.fi.Alias,
			table: spec.fi.Table,
			snap:  snap,
			cnr:   snap.Columnar(),
			start: len(p.cat),
		}
		sc.cat = append(sc.cat, colInfo{qual: spec.fi.Alias, name: TIDColumn})
		p.cat = append(p.cat, colInfo{qual: spec.fi.Alias, name: TIDColumn})
		p.hidden = append(p.hidden, true)
		for _, a := range snap.Schema().Attrs {
			sc.cat = append(sc.cat, colInfo{qual: spec.fi.Alias, name: a.Name})
			p.cat = append(p.cat, colInfo{qual: spec.fi.Alias, name: a.Name})
			p.hidden = append(p.hidden, false)
		}
		sc.arity = len(sc.cat)
		for range sc.cat {
			p.posScan = append(p.posScan, int32(len(p.scans)))
		}
		p.scans = append(p.scans, sc)
	}
	p.stages = make([][]filterPred, len(p.scans))
	p.versions = qp.versions()

	// Every predicate compiles against the full row layout p.cat: a
	// reference that resolves in a prefix (or one scan's) catalog resolves
	// to the same position in the full one, validateRefs having rejected
	// the ambiguous ones. The per-stage catalogs only decide placement.

	// Driver scan: claim the WHERE conjuncts resolvable on the first table.
	pending, err := p.claimStage(0, pending)
	if err != nil {
		return nil, err
	}

	// Join steps, in written order (the enumeration order is part of the
	// result for queries without ORDER BY, so it is never reordered; the
	// greedy statistics reorder probes, not output).
	for i, spec := range specs[1:] {
		right := p.scans[i+1]
		step := &joinStep{right: right, rightIdx: i + 1, outer: spec.outer, rightLen: right.cnr.Len()}

		// An ON conjunct reads only the tables joined so far. One resolvable
		// on the right side alone is pushed into the right scan, for both
		// join kinds: it decides which right rows can match.
		var onRest []Expr
		for _, c := range spec.on {
			if _, err := compileExpr(c, p.prefixCat(i+1)); err != nil {
				return nil, err
			}
			if resolvable(c, right.cat) {
				f, err := p.pred(c)
				if err != nil {
					return nil, err
				}
				right.filters = append(right.filters, f)
				continue
			}
			onRest = append(onRest, c)
		}

		leftCat := p.prefixCat(i)
		var onResidual []Expr
		for _, c := range onRest {
			if !p.takeKey(step, c, leftCat, right.cat) {
				onResidual = append(onResidual, c)
			}
		}
		if !spec.outer {
			var rest []Expr
			for _, c := range pending {
				if !p.takeKey(step, c, leftCat, right.cat) {
					rest = append(rest, c)
				}
			}
			pending = rest
		}

		for _, c := range onResidual {
			f, err := p.pred(c)
			if err != nil {
				return nil, err
			}
			step.residuals = append(step.residuals, f)
		}
		p.steps = append(p.steps, step)

		// WHERE conjuncts that become resolvable on the widened prefix run
		// as stage i+1 filters.
		pending, err = p.claimStage(i+1, pending)
		if err != nil {
			return nil, err
		}
	}

	// Leftover WHERE conjuncts must now compile against the full catalog;
	// since every resolvable aggregate-free conjunct was claimed above, a
	// leftover is an unknown column or a misplaced aggregate, and compiling
	// it returns that error.
	for _, c := range pending {
		f, err := p.pred(c)
		if err != nil {
			return nil, err
		}
		last := len(p.scans) - 1
		p.stages[last] = append(p.stages[last], f)
	}

	p.finalizeSteps()
	p.optimize()

	p.planMemo()
	p.sink, err = newStreamSink(p)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// planMemo decides whether the driver-signature memo (iterator.go) serves
// the plan. D is every driver column WHERE and ON read: what the stage
// filters, join keys and residuals below the driver scan see of its row. The
// memo is on when D holds no _tid and the product of D's
// distinct counts is at most half the driver's row count, so that at least
// every other row is a replay (on a key the memo is all cost) — exact
// statistics, like finalizeSteps' choices, so a patched snapshot plans like
// a rebuilt one.
func (p *selectPlan) planMemo() {
	drv, rows := p.scans[0], p.scans[0].cnr.Len()
	p.memoSpace = 1
	for _, pos := range p.colsOf(nil, nil, p.conds()...) {
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
// scan d (aggregate-free, in WHERE order) as a stage-d filter, returning
// the survivors.
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
		p.stages[d] = append(p.stages[d], f)
	}
	return rest, nil
}

// takeKey harvests one equi-join key from conjunct c if it has the key
// shape: a bare `=` (or IS NOT DISTINCT FROM) whose sides resolve
// exclusively on the left prefix and the right scan. A side that does not
// compile makes c no key: it then falls to the residual compile, which
// returns the error.
func (p *selectPlan) takeKey(step *joinStep, c Expr, leftCat, rightCat catalog) bool {
	b, ok := c.(*BinaryExpr)
	if !ok || (b.Op != "=" && b.Op != opNullSafeEq) || hasAggregate(c) {
		return false
	}
	k := joinKey{nullSafe: b.Op == opNullSafeEq}
	switch {
	case resolvable(b.L, leftCat) && resolvable(b.R, rightCat) &&
		!resolvable(b.L, rightCat) && !resolvable(b.R, leftCat):
		k.lsrc, k.rsrc = b.L, b.R
	case resolvable(b.R, leftCat) && resolvable(b.L, rightCat) &&
		!resolvable(b.R, rightCat) && !resolvable(b.L, leftCat):
		k.lsrc, k.rsrc = b.R, b.L
	default:
		return false
	}
	// Each side references a column, so a recognised term is never a literal.
	k.rt, _, _ = p.termOf(k.rsrc, k.nullSafe)
	if lt, _, ok := p.termOf(k.lsrc, k.nullSafe); ok && k.rt != nil {
		k.lt, k.tab = lt, p.xlat(lt, k.rt)
	}
	var err1, err2 error
	if k.tab == nil {
		k.lfn, err1 = compileExpr(k.lsrc, p.cat)
	}
	if k.rt == nil {
		k.rfn, err2 = compileExpr(k.rsrc, p.cat)
	}
	if err1 != nil || err2 != nil {
		return false
	}
	if k.lfn != nil {
		p.fillInPipe(k.lsrc)
	}
	if k.rfn != nil {
		p.fillInPipe(k.rsrc)
	}
	step.keys = append(step.keys, k)
	return true
}

// finalizeSteps picks each step's algorithm and fills in the exact
// statistics that justify it.
func (p *selectPlan) finalizeSteps() {
	for _, step := range p.steps {
		step.probeAt = step.rightIdx - 1 // own stage by default
		step.expected = float64(step.rightLen)
		if len(step.keys) == 0 {
			step.kind = stepNested
			continue
		}
		// Single bare right column: join through its PLI classes. The class
		// count is the exact number of distinct Equal-classes, so
		// rightLen/classes is the exact mean class size.
		if len(step.keys) == 1 {
			if col, ok := bareScanCol(step.keys[0].rsrc, step.right); ok {
				step.kind = stepPLI
				step.keyRCol = col
				step.classes = step.right.snap.ColClassCount(col)
				if step.classes > 0 {
					step.expected = float64(step.rightLen) / float64(step.classes)
				}
				continue
			}
		}
		step.kind = stepHash
		// Composite bare-column keys: the dictionary-cardinality product
		// bounds the class count exactly from below per column; cap it at
		// the row count (there cannot be more occupied classes than rows).
		classes := 1
		statable := true
		for _, k := range step.keys {
			col, ok := bareScanCol(k.rsrc, step.right)
			if !ok {
				statable = false
				break
			}
			classes *= step.right.snap.ColClassCount(col)
			if classes > step.rightLen {
				classes = step.rightLen
				break
			}
		}
		if statable && classes > 0 {
			step.classes = classes
			step.expected = float64(step.rightLen) / float64(classes)
		}
	}
}

// bareScanCol reports whether e is a bare column reference resolving to a
// real (non-_tid) column of the scan, returning its snapshot column index.
func bareScanCol(e Expr, sc *scanNode) (int, bool) {
	ref, ok := e.(*ColumnRef)
	if !ok {
		return 0, false
	}
	idx, err := sc.cat.resolve(ref)
	if err != nil || idx == 0 {
		return 0, false
	}
	return idx - 1, true
}

// conds lists WHERE and every ON: between them, all that the pipeline's
// filters, join keys and residuals evaluate.
func (p *selectPlan) conds() []Expr {
	out := []Expr{p.st.Where}
	for _, jc := range p.st.Joins {
		out = append(out, jc.On)
	}
	return out
}

// optimize applies the result-preserving rewrites: pushing right-only
// stage filters into inner join builds, and scheduling index probes
// greedily at the earliest stage their left key is computable, most
// selective first by exact expected matches.
func (p *selectPlan) optimize() {
	p.probesAt = make([][]int, len(p.scans))
	// Right pushdown: a stage-d filter whose references all live in scan d
	// filters the same rows whether applied to the joined row or to the
	// right side before the (inner) join.
	for d := 1; d < len(p.scans); d++ {
		step := p.steps[d-1]
		if step.outer {
			// Never pre-filter an outer join's right side with WHERE
			// conjuncts: they must see the null-extended rows.
			continue
		}
		kept := p.stages[d][:0]
		for _, f := range p.stages[d] {
			if p.refsOnlyScan(f.src, d) {
				p.scans[d].filters = append(p.scans[d].filters, f)
				continue
			}
			kept = append(kept, f)
		}
		p.stages[d] = kept
	}
	// Probe hoisting: an indexed inner step whose left key only reads
	// scans 0..s with s before its own stage is probed at stage s — a
	// prefix with no partner cannot contribute any output row, so killing
	// it early is sound.
	for i, step := range p.steps {
		if step.outer || step.kind == stepNested {
			continue
		}
		pd := p.keyDepth(step, i)
		step.probeAt = pd
		if pd < i {
			p.probesAt[pd] = append(p.probesAt[pd], i)
		}
	}
	// Greedy exact-statistics ordering: at each stage, probe the most
	// selective pending join first (fewest expected matches per class).
	for _, probes := range p.probesAt {
		for a := 1; a < len(probes); a++ {
			for b := a; b > 0 && p.steps[probes[b]].expected < p.steps[probes[b-1]].expected; b-- {
				probes[b], probes[b-1] = probes[b-1], probes[b]
			}
		}
	}
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

// keyDepth returns the earliest stage at which step i's left key is fully
// computable: the maximum owning scan over its column references (the key
// bridges the sides, so it references at least one prefix column).
func (p *selectPlan) keyDepth(step *joinStep, i int) int {
	depth := 0
	cat := p.prefixCat(i)
	for _, k := range step.keys {
		var refs []*ColumnRef
		columnRefs(k.lsrc, true, &refs)
		for _, r := range refs {
			pos, err := cat.resolve(r)
			if err != nil {
				return i // should not happen (it compiled); stay at own stage
			}
			if s := p.scanOf(pos); s > depth {
				depth = s
			}
		}
	}
	return depth
}

// describe renders the plan for EXPLAIN: one line per scan, join step and
// probe, quoting the pushed-down predicates and the exact cardinalities
// that justified each ordering choice, which predicates run on codes
// (code-pred), the translation tables they read (xlat) and which columns
// are materialised where.
func (p *selectPlan) describe() []string {
	var out []string
	add := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...))
	}
	name := func(sc *scanNode) string {
		if strings.EqualFold(sc.alias, sc.table) {
			return sc.table
		}
		return sc.table + " AS " + sc.alias
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
		role := "scan"
		if i == 0 {
			role = "drive"
		}
		add("%s %s rows=%d distinct[%s]", role, name(sc), sc.cnr.Len(), scanStats(sc))
		preds("filter", sc.filters)
		if len(sc.fill) > 0 {
			add("  materialise %s per row", p.colNames(sc.fill))
		}
		if i > 0 {
			step := p.steps[i-1]
			kindTag := step.kind.String()
			if step.outer {
				kindTag = "left " + kindTag
			} else {
				kindTag = "inner " + kindTag
			}
			var keys []string
			for _, k := range step.keys {
				op := " = "
				if k.nullSafe {
					op = " " + opNullSafeEq + " "
				}
				keys = append(keys, exprString(k.lsrc)+op+exprString(k.rsrc))
			}
			line := fmt.Sprintf("  join %s", kindTag)
			if len(keys) > 0 {
				line += " on " + strings.Join(keys, ", ")
			}
			if step.classes > 0 {
				line += fmt.Sprintf(" classes=%d expect=%.3g", step.classes, step.expected)
			} else {
				line += fmt.Sprintf(" expect=%.3g", step.expected)
			}
			if step.probeAt < i-1 {
				line += fmt.Sprintf(" probe@%d", step.probeAt)
			}
			add("%s", line)
			preds("residual", step.residuals)
		}
		preds("stage-filter", p.stages[i])
		for _, si := range p.probesAt[i] {
			st := p.steps[si]
			add("  probe join#%d (%s, expect=%.3g)", si+1, st.kind, st.expected)
		}
	}
	for _, x := range p.xlats {
		add("xlat %s (%d codes)", x.label, x.a.col.Card()+1)
	}
	if p.memoOff != "" {
		add("driver memo off: %s", p.memoOff)
	} else {
		add("driver memo on %s space=%d rows=%d", p.colNames(p.memoCols), p.memoSpace, p.scans[0].cnr.Len())
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
// statistics the greedy ordering reads.
func scanStats(sc *scanNode) string {
	attrs := sc.snap.Schema().Attrs
	parts := make([]string, len(attrs))
	for j, a := range attrs {
		parts[j] = fmt.Sprintf("%s:%d", a.Name, sc.snap.ColClassCount(j))
	}
	return strings.Join(parts, " ")
}
