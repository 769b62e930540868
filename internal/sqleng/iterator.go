// The streaming executor: runs a selectPlan as a push-style pipeline over
// the pinned columnar snapshots. What flows through it is a cursor — one
// snapshot row index per scan — not a row of Values: code-compiled
// predicates, join keys, GROUP BY keys and COUNT operands (codepred.go) read
// dictionary codes at the cursor; a PLI step looks partners up in the right
// column's position list index; the sink groups on codes and keeps a group's
// representative as a cursor. One row buffer exists beside the cursor for
// value-level expressions (ordering compares, _tid): a scan fills just the
// columns such an expression reads as its cursor moves, and the sink fills
// projected columns for the rows that survived. No intermediate relation is
// ever materialized.
//
// Rows are enumerated in the nested-loop order: driver scan in snapshot
// order, each join step's matches in right-side snapshot order.
//
// All hot loops share one monotonic counter and check the context every
// cancelStride rows, preserving the engine's cancellation contract.
package sqleng

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

// rightIndex is the build side of one join step: which right rows survive
// the pushed-down filters.
type rightIndex struct {
	surv     []bool  // stepPLI: nil when every row survives (no right-side filters)
	survRows []int32 // stepNested: surviving rows in snapshot order
}

// planExec is one execution of a selectPlan.
type planExec struct {
	p    *selectPlan
	ctx  context.Context
	cur  []int32       // the cursor: one snapshot row per scan
	buf  []types.Value // the lazily filled row, plus the sink's aggregate slots
	idx  []rightIndex  // per step
	memo *driverMemo   // nil when the plan does not qualify (selectPlan.planMemo)
	ops  OpCounters    // local counters, flushed to the engine once per run
	n    int           // shared row counter for stride context checks
	stop bool
}

// stride ticks the shared row counter and returns ctx.Err() every
// cancelStride-th row across all of the execution's loops.
func (px *planExec) stride() error {
	if px.n++; px.n%cancelStride == 0 {
		return px.ctx.Err()
	}
	return nil
}

// OpCounters profiles the executor's work. Counters accumulate across
// queries on one engine, atomically (concurrent queries on a shared engine
// each add their work); read a consistent copy via OpStats. The
// late-materialisation, class-walk and probe gates read them.
type OpCounters struct {
	// PLIProbes counts PLI class lookups.
	PLIProbes int64
	// HashProbes and HashBuildRows are always 0: the engine has no hash
	// join. They stay while the benchmark's trace reads them.
	HashProbes    int64
	HashBuildRows int64
	// ValuesMaterialized counts the Values fetched from dictionaries (and
	// tuple ids boxed) into the row buffer. A query whose predicates, keys
	// and aggregates all compile to codes fetches output rows x projected
	// columns and nothing else.
	ValuesMaterialized int64
	// DriverClasses counts the driver-row classes the class walk decided and
	// kept, ClassRows the rows past their first that those decisions served.
	DriverClasses int64
	ClassRows     int64
}

// fields lists the counters, for the whole-struct atomic operations.
func (o *OpCounters) fields() []*int64 {
	return []*int64{&o.PLIProbes, &o.HashProbes, &o.HashBuildRows,
		&o.ValuesMaterialized, &o.DriverClasses, &o.ClassRows}
}

// flushOps folds the execution's locally accumulated counters into the
// engine's, one atomic add per field — the hot loops count on plain ints.
func (px *planExec) flushOps() {
	local := px.ops.fields()
	for i, f := range px.p.ops.fields() {
		atomic.AddInt64(f, *local[i])
	}
}

// OpStats returns a copy of the accumulated executor operation counters.
func (e *Engine) OpStats() OpCounters {
	var out OpCounters
	dst := out.fields()
	for i, f := range e.ops.fields() {
		*dst[i] = atomic.LoadInt64(f)
	}
	return out
}

// ResetOpStats zeroes the executor operation counters.
func (e *Engine) ResetOpStats() {
	for _, f := range e.ops.fields() {
		atomic.StoreInt64(f, 0)
	}
}

// run drives the pipeline to completion (or until a streaming consumer
// stops) into the plan's sink. It may be called once per plan.
func (p *selectPlan) run(ctx context.Context) error {
	px := &planExec{
		p:    p,
		ctx:  ctx,
		cur:  make([]int32, len(p.scans)),
		buf:  make([]types.Value, len(p.cat)+len(p.sink.calls)),
		idx:  make([]rightIndex, len(p.steps)),
		memo: p.newMemo(),
	}
	p.sink.px = px
	defer px.flushOps()
	for si := range p.steps {
		if err := px.buildIndex(si); err != nil {
			return err
		}
	}
	if px.memo != nil {
		return px.walkClasses()
	}
	return px.feedRows()
}

// materialise fetches the row-buffer positions cols at cursor cur: the
// tuple id for a scan's hidden _tid, else the value straight from the exact
// dictionary (bit-identical to the stored tuple), NULL at row -1 (the
// representative of a global COUNT over no rows).
func (px *planExec) materialise(cols, cur []int32) {
	for _, pos := range cols {
		sc := px.p.scans[px.p.posScan[pos]]
		switch r, j := cur[px.p.posScan[pos]], int(pos)-sc.start; {
		case r < 0:
			px.buf[pos] = types.Null
		case j == 0:
			px.buf[pos] = types.NewInt(int64(sc.cnr.IDs()[r]))
		default:
			col := sc.cnr.Col(j - 1)
			px.buf[pos] = col.Value(col.Code(int(r)))
		}
	}
	px.ops.ValuesMaterialized += int64(len(cols))
}

// setCur moves scan s's cursor to snapshot row r and fills the columns the
// pipeline's value-level expressions read there.
func (px *planExec) setCur(s int, r int32) {
	px.cur[s] = r
	if fill := px.p.scans[s].fill; len(fill) > 0 {
		px.materialise(fill, px.cur)
	}
}

// pass decides one predicate at the cursor.
func (px *planExec) pass(f *filterPred) bool {
	if f.code != nil {
		return f.code(px.cur) == 1
	}
	return truthy(f.fn(px.buf))
}

// buildIndex builds step si's right-side index: applies the pushed-down
// filters row by row at the right scan's cursor, keeping the survivors —
// as a row set for a PLI step, in snapshot order for a nested one.
func (px *planExec) buildIndex(si int) error {
	step := px.p.steps[si]
	sc := step.right
	n := sc.cnr.Len()
	idx := &px.idx[si]
	if len(sc.filters) == 0 && step.kind == stepPLI {
		// Candidates come straight from the cached partition: with no
		// filters there is nothing to precompute.
		return nil
	}
	if step.kind == stepPLI {
		idx.surv = make([]bool, n)
	}
rows:
	for r := 0; r < n; r++ {
		if err := px.stride(); err != nil {
			return err
		}
		px.setCur(step.rightIdx, int32(r))
		for i := range sc.filters {
			if !px.pass(&sc.filters[i]) {
				continue rows
			}
		}
		if idx.surv != nil {
			idx.surv[r] = true
		} else {
			idx.survRows = append(idx.survRows, int32(r))
		}
	}
	return nil
}

// driverMemo is the class walk's state for one run. Below the driver scan
// the pipeline reads a driver row only on D, the columns WHERE reads
// (planMemo), and a code-compiled predicate reads their Equal-class codes
// (codeTerm.own), so the pipeline runs once per class of D's Equal-class
// partition, at the class's first row, recording the cursor suffixes
// cur[1:] that reach the sink, the class's tails: the sink gets ⋃ class ×
// tails. A value-level expression tells some Equal values apart (a < sees
// INT 1 and FLOAT 1.0 as two values): a class whose rows differ in exact
// codes on a column one reads is given up, and its rows run the pipeline
// one by one.
type driverMemo struct {
	cls      *relstore.EqClasses // D's classes
	classes  []memoClass         // per class of cls, its decision
	exact    []*relstore.Column  // the columns of D a value-level expression reads
	split    bool                // a class was given up on exact codes
	tails    []int32             // every class's tails, a cursor per non-driver scan each
	budget   int                 // tails that may still be recorded, of one per driver row in total
	deciding int                 // the class being decided, -1: none (the pipeline emits)
}

// memoClass is the decision on one class of driver rows.
type memoClass struct {
	off, tails int32 // its tails' offset in driverMemo.tails and their count; tails -1: given up
	mixed, fed bool  // its rows differ on a column of streamSink.pureCols; feedRows feeds them
}

// newMemo takes D's classes from the memo pinned with the driver table, or
// builds them for this run.
func (p *selectPlan) newMemo() *driverMemo {
	if p.memoOff != "" {
		return nil
	}
	drv, pos := p.scans[0], make([]int, len(p.memoCols))
	for i, c := range p.memoCols {
		pos[i] = int(c) - 1
	}
	slices.Sort(pos)
	m := &driverMemo{budget: drv.cnr.Len(), deciding: -1}
	if p.classes != nil {
		m.cls = p.classes.Get(pos)
	} else {
		m.cls = drv.cnr.EqClasses(pos)
	}
	m.classes = make([]memoClass, m.cls.NumClasses())
	m.tails = make([]int32, 0, len(m.classes)*(len(p.scans)-1))
	for _, pos := range drv.fill {
		m.exact = append(m.exact, drv.cnr.Col(int(pos)-1))
	}
	return m
}

// appendDoubling is append for the vectors that grow with the classes and
// groups met: it doubles a full slice, where append's 1.25x steps past 256
// elements allocate some five times the final size along the way.
func appendDoubling[T any](s []T, v ...T) []T {
	if len(s)+len(v) > cap(s) {
		s = slices.Grow(s, cap(s)+len(v))
	}
	return append(s, v...)
}

// record notes that tail reached the sink from the class being decided. A
// class past the budget is given up — its rows run the pipeline when fed,
// so a fan-out join cannot blow memory — keeping the first tail, where its
// group opens; record then reports false, to cut the descent short.
func (m *driverMemo) record(tail []int32) bool {
	c := &m.classes[m.deciding]
	if m.budget == 0 {
		m.budget += int(c.tails)
		m.tails, c.tails = append(m.tails, tail...)[:int(c.off)+len(tail)], -1
		return false
	}
	m.tails, c.tails, m.budget = appendDoubling(m.tails, tail...), c.tails+1, m.budget-1
	return true
}

// walkClasses decides each class of driver rows at its first row, then
// feeds a sink that counts per class each class whole, in class order so
// that groups open in row order; other rows go through feedRows. A class
// given up on exact codes opens its group only where feedRows brings its
// first row to the sink, so then every class goes through feedRows.
func (px *planExec) walkClasses() error {
	m, s, groups := px.memo, px.p.sink, 0
	for ci := range m.classes {
		if err := px.stride(); err != nil {
			return err
		}
		c, rows := &m.classes[ci], m.cls.Class(ci)
		c.off = int32(len(m.tails))
		if differ(m.exact, rows) {
			c.tails, m.split = -1, true
			continue
		}
		if px.setCur(0, rows[0]); px.stageGate(0) {
			m.deciding = ci
			if err := px.descend(0); err != nil {
				return err
			}
			px.stop, m.deciding = false, -1 // a given-up class cut its descent short
		}
		if c.tails != 0 {
			groups++ // a class lies in one group of a sink that counts per class
			c.mixed = c.tails > 0 && differ(s.pureCols, rows)
		}
	}
	whole := s.perClass && !m.split
	if whole {
		s.reps, s.counts = slices.Grow(s.reps, groups*s.nscans), slices.Grow(s.counts, groups*len(s.calls))
		if len(s.levels) > 0 && !s.byClass {
			s.levels[len(s.levels)-1] = make(map[uint64]int32, groups)
		}
	}
	for ci := range m.classes {
		c, size := &m.classes[ci], len(m.cls.Class(ci))
		if c.tails >= 0 {
			px.ops.DriverClasses++
			px.ops.ClassRows += int64(size - 1)
		}
		if c.tails == 0 {
			continue
		}
		if err := px.stride(); err != nil {
			return err
		}
		if whole {
			px.cur[0] = m.cls.Class(ci)[0]
			if c.tails > 0 && !c.mixed {
				if s.byClass { // the class is a group of its own, opened at its first tail
					copy(px.cur[1:], m.tails[c.off:])
					s.newGroup(px.cur)
				}
				gid := int32(len(s.reps)/s.nscans - 1)
				for i := range int(c.tails) { // the class's rows joined with a tail agree on every operand
					copy(px.cur[1:], m.tails[int(c.off)+i*(len(px.cur)-1):])
					if !s.byClass {
						gid = s.group()
					}
					s.count(gid, int64(size))
				}
				continue
			}
			copy(px.cur[1:], m.tails[c.off:])
			s.group() // opened in class order; its rows come in feedRows
		}
		c.fed = true
	}
	return px.feedRows()
}

// differ reports whether rows differ in exact codes on a column of cols.
func differ(cols []*relstore.Column, rows []int32) bool {
	for _, col := range cols {
		first := col.Code(int(rows[0]))
		for _, r := range rows[1:] {
			if col.Code(int(r)) != first {
				return true
			}
		}
	}
	return false
}

// feedRows feeds the sink, in driver order, the rows of the fed classes
// (without a memo, every driver row): a row of a given-up class runs the
// pipeline, another replays its class's tails, polling once per tail.
func (px *planExec) feedRows() error {
	m, w, all, n := px.memo, len(px.cur)-1, &memoClass{tails: -1}, px.p.scans[0].cnr.Len()
	var fed []uint64 // with a memo, a bit per driver row of a fed class
	if m != nil {
		fed = make([]uint64, (n+63)/64)
		for ci := range m.classes {
			if m.classes[ci].fed {
				for _, r := range m.cls.Class(ci) {
					fed[r/64] |= 1 << (r % 64)
				}
			}
		}
	}
	for r := 0; r < n && !px.stop; r++ {
		c := all // without a memo, every row runs the pipeline
		if m != nil {
			if fed[r/64] == 0 {
				r |= 63 // no row of this word is fed
				continue
			}
			if fed[r/64]&(1<<(r%64)) == 0 {
				continue
			}
			c = &m.classes[m.cls.ClassOf(r)]
		}
		if err := px.stride(); err != nil {
			return err
		}
		if px.setCur(0, int32(r)); c.tails < 0 && px.stageGate(0) { // else it has no tails to replay
			if err := px.descend(0); err != nil {
				return err
			}
			continue
		}
		for i := 0; i < int(c.tails) && !px.stop; i++ {
			if err := px.stride(); err != nil {
				return err
			}
			for j := 1; j <= w; j++ {
				px.setCur(j, m.tails[int(c.off)+i*w+j-1])
			}
			px.stop = px.p.sink.add()
		}
	}
	return nil
}

// stageGate runs stage d's filters over the current prefix, reporting
// whether the prefix survives.
func (px *planExec) stageGate(d int) bool {
	stage := px.p.stages[d]
	for i := range stage {
		if !px.pass(&stage[i]) {
			return false
		}
	}
	return true
}

// descend runs the pipeline below stage d: the next join step, or the sink
// when every scan's cursor is set.
func (px *planExec) descend(d int) error {
	if d == len(px.p.scans)-1 {
		if m := px.memo; m != nil && m.deciding >= 0 {
			px.stop = !m.record(px.cur[1:])
		} else {
			px.stop = px.p.sink.add() || px.stop
		}
		return nil
	}
	step, idx := px.p.steps[d], &px.idx[d]
	cands := idx.survRows // a nested step pairs with every surviving row
	if step.kind == stepPLI {
		// The left side's code in the key column's Equal-class space;
		// negative: NULL, or a value the column lacks — no partner.
		eq := step.key.tab.get()[step.key.lt.exact(px.cur)]
		if eq < 0 {
			return nil
		}
		px.ops.PLIProbes++
		cands = step.key.rt.col.ClassRows(uint32(eq))
	}
	for _, r := range cands {
		if px.stop {
			return nil
		}
		if idx.surv != nil && !idx.surv[r] {
			continue
		}
		if err := px.stride(); err != nil {
			return err
		}
		px.setCur(d+1, r)
		if px.stageGate(d + 1) {
			if err := px.descend(d + 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// collect runs the plan and materializes the eager Result the engine API
// returns, stamped with the versions pinned at plan time.
func (p *selectPlan) collect(ctx context.Context) (*Result, error) {
	if err := p.run(ctx); err != nil {
		return nil, err
	}
	return p.sink.finish(ctx, p.versions)
}

// sinkProj is one compiled output column.
type sinkProj struct {
	name string
	fn   evalFn
}

// streamSink terminates the pipeline: grouping and counting, HAVING and
// the projection. It is compiled at plan time and consumes the pipeline row
// by row: a non-grouped query projects each arriving row, a group retains a
// cursor (its first member) and its counts.
type streamSink struct {
	st         *SelectStmt
	px         *planExec // the running execution: cursor, row buffer, counters
	width      int       // width of the pipeline row
	nscans     int
	needsGroup bool
	calls      []aggCall
	// GROUP BY keys: keyTerms[i] when key i is a code term, else keyFns[i]
	// evaluates it and intern[i] gives its value a code. Either way a group
	// is a vector of uint32s, resolved to its index one key at a time
	// through levels[i]: (index so far, next code) -> index.
	keyTerms []*codeTerm
	keyFns   []evalFn
	// perClass: every key is a code term on D, so a class of driver rows lies
	// in one group, and every COUNT operand is * or a code term: the walk
	// counts a class at once unless its rows differ on pureCols, the driver
	// columns outside D that operands read.
	perClass bool
	pureCols []*relstore.Column
	// byClass: every column of D is a bare key, so a class of driver rows
	// is a group of its own, which the walk opens without the key maps.
	byClass bool
	// HAVING: on the group's counts alone when its shape allows
	// (compileCounts), else value-level.
	havingCounts countFn
	having       evalFn
	projs        []sinkProj
	// Late materialisation: the row-buffer positions the sink's value-level
	// expressions read, by when they are fetched. rowCols per arriving
	// pipeline row (value-level group keys and COUNT operands; when not
	// grouping, the projection); havingCols per group from its
	// representative cursor; outCols per group that passed HAVING.
	rowCols, havingCols, outCols []int32

	// Runtime state.
	levels []map[uint64]int32
	intern []map[string]uint32
	reps   []int32    // per group: its first member's cursor, nscans wide
	counts []aggCount // per group: one per call
	zero   []aggCount // a new group's counts
	rows   [][]types.Value
	vals   []types.Value // the projected row a streaming consumer is handed
	keyBuf []byte
	yield  func(row []types.Value) bool
}

// newStreamSink compiles the sink for p's statement over the pipeline
// catalog.
func newStreamSink(p *selectPlan) (*streamSink, error) {
	st, cat, hidden := p.st, p.cat, p.hidden
	s := &streamSink{st: st, width: len(cat), nscans: len(p.scans)}

	var outExprs []Expr
	for _, it := range st.Items {
		if !it.Star {
			outExprs = append(outExprs, it.Expr)
		}
	}
	s.needsGroup = len(st.GroupBy) > 0 || st.Having != nil || slices.ContainsFunc(outExprs, hasAggregate)

	var aggEnv map[string]int
	gcat := cat // the grouped row: the pipeline row, then one slot per COUNT
	if s.needsGroup {
		env, calls, err := collectAggs(cat, append(slices.Clone(outExprs), st.Having)...)
		if err != nil {
			return nil, err
		}
		aggEnv = env
		s.calls, s.zero = calls, make([]aggCount, len(calls))
		for i := range s.calls {
			c := &s.calls[i]
			if c.fn.Star {
				continue
			}
			// COUNT only asks whether the operand is NULL and, under
			// DISTINCT, which class it is in: codes answer both.
			if c.term, _, _ = p.termOf(c.fn.Args[0], false); c.term == nil {
				s.rowCols = p.colsOf(s.rowCols, nil, c.fn.Args[0])
			}
			if c.fn.Distinct {
				c.dseen, c.intern = map[uint64]struct{}{}, map[string]uint32{}
			}
		}
		for _, g := range st.GroupBy {
			f, err := compileExpr(g, cat)
			if err != nil {
				return nil, err
			}
			t, _, _ := p.termOf(g, false)
			if t == nil {
				s.rowCols = p.colsOf(s.rowCols, nil, g)
			}
			s.keyTerms = append(s.keyTerms, t)
			s.keyFns = append(s.keyFns, f)
			s.levels = append(s.levels, map[uint64]int32{})
			s.intern = append(s.intern, map[string]uint32{})
		}
		gcat = append(append(catalog{}, cat...), make(catalog, len(calls))...)
		if st.Having != nil {
			f, err := compileExprAgg(st.Having, gcat, aggEnv)
			if err != nil {
				return nil, err
			}
			s.having = f
			s.havingCols = p.colsOf(nil, nil, st.Having)
			if s.havingCounts = s.compileCounts(st.Having, aggEnv); s.havingCounts != nil {
				s.having = nil
			}
		}
		onD := func(t *codeTerm) bool {
			return t != nil && t.scan == 0 && slices.ContainsFunc(p.memoCols, func(pos int32) bool {
				return p.scans[0].cnr.Col(int(pos)-1) == t.col
			})
		}
		s.perClass = p.memoOff == "" && !slices.ContainsFunc(s.keyTerms, func(t *codeTerm) bool { return !onD(t) }) &&
			!slices.ContainsFunc(s.calls, func(c aggCall) bool { return !c.fn.Star && c.term == nil })
		for _, c := range s.calls {
			if t := c.term; s.perClass && t != nil && t.scan == 0 && !onD(t) && !slices.Contains(s.pureCols, t.col) {
				s.pureCols = append(s.pureCols, t.col)
			}
		}
		s.byClass = s.perClass && !slices.ContainsFunc(p.memoCols, func(pos int32) bool {
			return !slices.ContainsFunc(s.keyTerms, func(t *codeTerm) bool {
				return t.col == p.scans[0].cnr.Col(int(pos)-1) && t.dflt.IsNull()
			})
		})
	}

	for _, it := range st.Items {
		if it.Star {
			for i, ci := range cat {
				if hidden[i] || (it.StarTable != "" && !strings.EqualFold(ci.qual, it.StarTable)) {
					continue
				}
				idx := i
				s.projs = append(s.projs, sinkProj{name: ci.name,
					fn: func(row []types.Value) types.Value { return row[idx] }})
				if !slices.Contains(s.outCols, int32(i)) {
					s.outCols = append(s.outCols, int32(i))
				}
			}
			continue
		}
		f, err := compileExprAgg(it.Expr, gcat, aggEnv)
		if err != nil {
			return nil, err
		}
		s.projs = append(s.projs, sinkProj{name: itemName(it), fn: f})
	}
	if len(s.projs) == 0 {
		return nil, fmt.Errorf("sql: empty select list")
	}

	// What the output expressions read is fetched per surviving group, or,
	// when not grouping, per arriving row beside what the scans filled.
	s.outCols = p.colsOf(s.outCols, s.havingCols, outExprs...)
	if !s.needsGroup {
		s.rowCols, s.outCols = s.outCols, nil
	}
	for _, sc := range p.scans {
		s.rowCols = slices.DeleteFunc(s.rowCols, func(pos int32) bool { return slices.Contains(sc.fill, pos) })
	}
	s.vals = make([]types.Value, len(s.projs))
	return s, nil
}

// columns returns the output column names.
func (s *streamSink) columns() []string {
	cols := make([]string, len(s.projs))
	for i, pr := range s.projs {
		cols[i] = pr.name
	}
	return cols
}

// describe renders the sink stage for EXPLAIN output.
func (s *streamSink) describe() string {
	var parts []string
	if s.needsGroup && !slices.Contains(s.keyTerms, nil) {
		parts = append(parts, fmt.Sprintf("group on codes(%d) aggs=%d", len(s.keyTerms), len(s.calls)))
	} else if s.needsGroup {
		parts = append(parts, fmt.Sprintf("group(keys=%d aggs=%d)", len(s.keyFns), len(s.calls)))
	}
	if s.perClass {
		parts = append(parts, "counts per class")
	}
	if s.byClass {
		parts = append(parts, "a group per class")
	}
	if s.havingCounts != nil {
		parts = append(parts, "having on counts")
	} else if s.having != nil {
		parts = append(parts, "having")
	}
	parts = append(parts, fmt.Sprintf("project %d cols", len(s.projs)))
	return strings.Join(parts, ", ")
}

// add consumes the pipeline row under the cursor. It reports whether a
// streaming consumer declined more rows.
func (s *streamSink) add() bool {
	px := s.px
	px.materialise(s.rowCols, px.cur)
	if !s.needsGroup {
		return s.emit(px.buf)
	}
	s.count(s.group(), 1)
	return false
}

// count adds the pipeline row under the cursor to its group's counts, times
// over: for a class of times driver rows that agree on every operand.
func (s *streamSink) count(g int32, times int64) {
	gid := uint64(g)
	for ci := range s.calls {
		c, n := &s.calls[ci], &s.counts[int(gid)*len(s.calls)+ci]
		switch {
		case c.fn.Star:
			n.n += times
		case c.term != nil:
			switch x := c.term.own(s.px.cur); {
			case x == codeNull:
			case !c.fn.Distinct:
				n.n += times
			case n.firstSeen(c, gid, uint32(x)):
				n.n++
			}
		default: // COUNT skips NULLs, and a DISTINCT one repeats
			if v := c.arg(s.px.buf); !v.IsNull() && (!c.fn.Distinct || n.firstSeen(c, gid, s.internValue(c.intern, v))) {
				n.n++
			}
		}
	}
}

// group resolves the group of the pipeline row under the cursor: its keys'
// codes, interned level by level. Indexes are handed out in first-appearance
// order, so a fresh index opens a new group, represented by the cursor.
func (s *streamSink) group() int32 {
	gid := uint64(0)
	for i, t := range s.keyTerms {
		var c uint32
		if t != nil {
			c = uint32(t.own(s.px.cur) + 2) // NULL (-2) groups as a value of its own
		} else {
			c = s.internValue(s.intern[i], s.keyFns[i](s.px.buf))
		}
		id, ok := s.levels[i][gid<<32|uint64(c)]
		if !ok {
			id = int32(len(s.levels[i]))
			if i == len(s.keyTerms)-1 {
				id = int32(len(s.reps) / s.nscans) // the last level numbers the groups, some opened without it (byClass)
			}
			s.levels[i][gid<<32|uint64(c)] = id
		}
		gid = uint64(id)
	}
	if int(gid) == len(s.reps)/s.nscans {
		s.newGroup(s.px.cur)
	}
	return int32(gid)
}

// aggCount is a group's pointer-free state for one COUNT: the count and,
// under DISTINCT, the first operand code the group saw.
type aggCount struct {
	n    int64
	d0   uint32
	has0 bool
}

// newGroup opens a group represented by the cursor cur.
func (s *streamSink) newGroup(cur []int32) {
	s.reps = appendDoubling(s.reps, cur...)
	s.counts = appendDoubling(s.counts, s.zero...)
}

// internValue gives v's Equal-class a dense code, by its group-key bytes.
func (s *streamSink) internValue(m map[string]uint32, v types.Value) uint32 {
	s.keyBuf = v.AppendGroupKey(s.keyBuf[:0])
	c, ok := m[string(s.keyBuf)]
	if !ok {
		c = uint32(len(m))
		m[string(s.keyBuf)] = c
	}
	return c
}

// firstSeen records call's operand code c under DISTINCT for group gid,
// reporting whether the group had not seen it. A group's first code lives
// inline — most groups never see a second — and later ones in the call's
// shared set.
func (st *aggCount) firstSeen(call *aggCall, gid uint64, c uint32) bool {
	if !st.has0 {
		st.d0, st.has0 = c, true
		return true
	}
	if c == st.d0 {
		return false
	}
	k := gid<<32 | uint64(c)
	_, dup := call.dseen[k]
	call.dseen[k] = struct{}{}
	return !dup
}

// emit projects one (grouped) row and hands it to the streaming consumer,
// reporting whether it declined more, or else keeps it for the Result.
func (s *streamSink) emit(row []types.Value) (stop bool) {
	vals := s.vals
	if s.yield == nil {
		vals = make([]types.Value, len(s.projs))
	}
	for i, pr := range s.projs {
		vals[i] = pr.fn(row)
	}
	if s.yield != nil {
		return !s.yield(vals)
	}
	s.rows = append(s.rows, vals)
	return false
}

// finish completes grouping and HAVING and builds the eager Result, stamped
// with the plan-time pinned versions.
func (s *streamSink) finish(ctx context.Context, versions map[string]int64) (*Result, error) {
	if s.needsGroup {
		if err := s.finishGroups(ctx); err != nil {
			return nil, err
		}
	}
	return &Result{Columns: s.columns(), Rows: s.rows, Versions: versions}, nil
}

// finishGroups turns the accumulated groups into output rows: one row per
// group in first-appearance order (the representative's columns that HAVING
// and the projection read, fetched at its cursor, plus the counts),
// filtered by HAVING, projected like the non-grouped path. A group HAVING
// rejects materialises nothing the projection alone reads.
func (s *streamSink) finishGroups(ctx context.Context) error {
	// A global COUNT over an empty input still yields one group, with an
	// all-NULL representative row.
	if len(s.reps) == 0 && len(s.st.GroupBy) == 0 {
		for i := range s.px.cur {
			s.px.cur[i] = -1
		}
		s.newGroup(s.px.cur)
	}
	row := s.px.buf
	for gi := 0; gi*s.nscans < len(s.reps); gi++ {
		if err := strideCheck(ctx, gi); err != nil {
			return err
		}
		counts := s.counts[gi*len(s.calls):]
		if s.havingCounts != nil && !s.havingCounts(counts) {
			continue // decided on the counts: nothing fetched, nothing boxed
		}
		rep := s.reps[gi*s.nscans : (gi+1)*s.nscans]
		s.px.materialise(s.havingCols, rep)
		for ci := range s.calls {
			row[s.width+ci] = types.NewInt(counts[ci].n)
		}
		if s.having != nil && !truthy(s.having(row)) {
			continue
		}
		s.px.materialise(s.outCols, rep)
		if s.emit(row) {
			return nil
		}
	}
	return nil
}

// SelectStream is a lazily evaluated SELECT: the plan is built and the
// base-table snapshots pinned at creation time (Versions records them —
// mutations between creation and iteration are invisible), but rows are
// produced on demand by Each.
type SelectStream struct {
	// Columns names the output columns.
	Columns []string
	// Versions is the per-base-table pinned version map, captured when the
	// stream was created (pin time), not when rows are consumed.
	Versions map[string]int64

	plan *selectPlan
}

// Stream plans a SELECT for incremental consumption: rows flow straight
// from the pipeline, a grouped statement's group by group once the input
// is consumed. A stream is single-use: Each may be called once.
func (e *Engine) Stream(_ context.Context, sql string) (*SelectStream, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: Stream requires a SELECT statement")
	}
	p, err := e.buildSelectPlan(sel)
	if err != nil {
		return nil, err
	}
	return &SelectStream{Columns: p.sink.columns(), Versions: p.versions, plan: p}, nil
}

// Each runs the query, calling yield once per output row in result order.
// The row is valid only during the call — the pipeline reuses it for the
// next one — so a consumer that keeps a row copies it. A false return from
// yield stops iteration early (no error). Each may be called once.
func (s *SelectStream) Each(ctx context.Context, yield func(row []types.Value) bool) error {
	s.plan.sink.yield = yield
	if err := s.plan.run(ctx); err != nil {
		return err
	}
	if s.plan.sink.needsGroup {
		return s.plan.sink.finishGroups(ctx)
	}
	return nil
}
