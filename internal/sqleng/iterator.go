// The streaming executor: runs a selectPlan as a push-style pipeline over
// the pinned columnar snapshots. What flows through it is a cursor — one
// snapshot row index per scan — not a row of Values: WHERE comparisons,
// GROUP BY keys and COUNT operands (codepred.go) read dictionary codes at
// the cursor, and the sink groups on codes and keeps a group's
// representative as a cursor. Values are fetched only for the projected
// columns, at the sink: per arriving row when the statement does not
// group, per group that passed HAVING when it does. No intermediate
// relation is ever materialized.
//
// Rows are enumerated in the nested-loop order: driver scan in snapshot
// order, each joined scan's surviving rows in snapshot order.
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

// planExec is one execution of a selectPlan.
type planExec struct {
	p    *selectPlan
	ctx  context.Context
	cur  []int32       // the cursor: one snapshot row per scan
	buf  []types.Value // the sink's row: the fetched columns
	surv [][]int32     // per joined scan: its rows that pass its filters, in snapshot order
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
// materialisation and class-walk gates read them.
type OpCounters struct {
	// PLIProbes, HashProbes and HashBuildRows are always 0: every join is a
	// nested loop over the joined scan's surviving rows. They stay while the
	// benchmark's trace reads them.
	PLIProbes     int64
	HashProbes    int64
	HashBuildRows int64
	// ValuesMaterialized counts the Values fetched from dictionaries (and
	// tuple ids boxed) for the output: output rows x projected columns.
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

// run drives the pipeline to completion (or until a streaming consumer
// stops) into the plan's sink. It may be called once per plan.
func (p *selectPlan) run(ctx context.Context) error {
	px := &planExec{
		p:    p,
		ctx:  ctx,
		cur:  make([]int32, len(p.scans)),
		buf:  make([]types.Value, len(p.cat)),
		surv: make([][]int32, len(p.scans)),
		memo: p.newMemo(),
	}
	p.sink.px = px
	defer px.flushOps()
	for s := 1; s < len(p.scans); s++ {
		if err := px.filterScan(s); err != nil {
			return err
		}
	}
	if px.memo != nil {
		return px.walkClasses()
	}
	return px.feedRows()
}

// materialise fetches the row-buffer positions cols at cursor cur: the
// tuple id for a scan's _tid, else the value straight from the exact
// dictionary (bit-identical to the stored tuple).
func (px *planExec) materialise(cols, cur []int32) {
	for _, pos := range cols {
		sc := px.p.scans[px.p.posScan[pos]]
		switch r, j := cur[px.p.posScan[pos]], int(pos)-sc.start; {
		case j == 0:
			px.buf[pos] = types.NewInt(int64(sc.cnr.IDs()[r]))
		default:
			col := sc.cnr.Col(j - 1)
			px.buf[pos] = col.Value(col.Code(int(r)))
		}
	}
	px.ops.ValuesMaterialized += int64(len(cols))
}

// filterScan lists joined scan s's rows that pass its pushed-down filters,
// in snapshot order.
func (px *planExec) filterScan(s int) error {
	sc := px.p.scans[s]
rows:
	for r := range int32(sc.cnr.Len()) {
		if err := px.stride(); err != nil {
			return err
		}
		px.cur[s] = r
		for _, f := range sc.filters {
			if !f.code(px.cur) {
				continue rows
			}
		}
		px.surv[s] = append(px.surv[s], r)
	}
	return nil
}

// driverMemo is the class walk's state for one run. Below the driver scan
// the pipeline reads a driver row only on D, the columns WHERE reads
// (planMemo), and only their Equal-class codes (codeTerm.own), so the
// pipeline runs once per class of D's Equal-class partition, at the class's
// first row, recording the cursor suffixes cur[1:] that reach the sink, the
// class's tails: the sink gets ⋃ class × tails.
type driverMemo struct {
	cls      *relstore.EqClasses // D's classes
	classes  []memoClass         // per class of cls, its decision
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
// that groups open in row order; other rows go through feedRows.
func (px *planExec) walkClasses() error {
	m, s, groups := px.memo, px.p.sink, 0
	for ci := range m.classes {
		if err := px.stride(); err != nil {
			return err
		}
		c, rows := &m.classes[ci], m.cls.Class(ci)
		c.off = int32(len(m.tails))
		if px.cur[0] = rows[0]; px.stageGate(0) {
			m.deciding = ci
			if err := px.descend(0); err != nil {
				return err
			}
			px.stop, m.deciding = false, -1 // a given-up class cut its descent short
		}
		if c.tails != 0 {
			groups++ // a class lies in one group of a sink that counts per class
			c.mixed = c.tails > 0 && s.mixed(rows)
		}
	}
	if s.perClass {
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
		if s.perClass {
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
		if px.cur[0] = int32(r); c.tails < 0 && px.stageGate(0) { // else it has no tails to replay
			if err := px.descend(0); err != nil {
				return err
			}
			continue
		}
		for i := 0; i < int(c.tails) && !px.stop; i++ {
			if err := px.stride(); err != nil {
				return err
			}
			copy(px.cur[1:], m.tails[int(c.off)+i*w:])
			px.stop = px.p.sink.add()
		}
	}
	return nil
}

// stageGate runs stage d's filters over the current prefix, reporting
// whether the prefix survives.
func (px *planExec) stageGate(d int) bool {
	for _, f := range px.p.stages[d] {
		if !f.code(px.cur) {
			return false
		}
	}
	return true
}

// descend runs the pipeline below stage d: a nested loop over the next
// scan's surviving rows, or the sink when every scan's cursor is set.
func (px *planExec) descend(d int) error {
	if d == len(px.p.scans)-1 {
		if m := px.memo; m != nil && m.deciding >= 0 {
			px.stop = !m.record(px.cur[1:])
		} else {
			px.stop = px.p.sink.add() || px.stop
		}
		return nil
	}
	for _, r := range px.surv[d+1] {
		if px.stop {
			return nil
		}
		if err := px.stride(); err != nil {
			return err
		}
		if px.cur[d+1] = r; px.stageGate(d + 1) {
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
	if p.sink.needsGroup {
		if err := p.sink.finishGroups(ctx); err != nil {
			return nil, err
		}
	}
	return &Result{Columns: p.sink.columns(), Rows: p.sink.rows, Versions: p.versions}, nil
}

// aggCall is one distinct COUNT call of a grouped statement, counted on
// its operand's codes (term; nil for COUNT(*)). Under DISTINCT, dseen holds
// every (group, code) pair past a group's first code.
type aggCall struct {
	fn    *CountExpr
	term  *codeTerm
	dseen map[uint64]struct{}
}

// sinkProj is one output column: its name and its position in the
// pipeline row.
type sinkProj struct {
	name string
	pos  int
}

// streamSink terminates the pipeline: grouping and counting, HAVING and
// the projection. It is compiled at plan time and consumes the pipeline row
// by row: a non-grouped query projects each arriving row, a group retains a
// cursor (its first member) and its counts.
type streamSink struct {
	st         *SelectStmt
	px         *planExec // the running execution: cursor, row buffer, counters
	nscans     int
	needsGroup bool
	calls      []aggCall
	// GROUP BY keys. A group is a vector of their codes, resolved to its
	// index one key at a time through levels[i]: (index so far, next code)
	// -> index.
	keyTerms []*codeTerm
	// perClass: every key is on D, so a class of driver rows lies in one
	// group: the walk counts a class at once unless its rows differ on
	// pureCols, the driver columns outside D that COUNT operands read.
	perClass bool
	pureCols []*relstore.Column
	// byClass: every column of D is a key, so a class of driver rows is a
	// group of its own, which the walk opens without the key maps.
	byClass bool
	having  countFn // nil without HAVING
	projs   []sinkProj
	// The columns the projection reads, fetched per arriving pipeline row
	// when not grouping (rowCols), per group that passed HAVING from its
	// representative cursor when grouping (outCols).
	rowCols, outCols []int32

	// Runtime state.
	levels []map[uint64]int32
	reps   []int32    // per group: its first member's cursor, nscans wide
	counts []aggCount // per group: one per call
	zero   []aggCount // a new group's counts
	rows   [][]types.Value
	vals   []types.Value // the projected row a streaming consumer is handed
	yield  func(row []types.Value) bool
}

// newStreamSink compiles the sink for p's statement over the pipeline
// catalog.
func newStreamSink(p *selectPlan) (*streamSink, error) {
	st, cat := p.st, p.cat
	s := &streamSink{st: st, nscans: len(p.scans)}
	slot := map[string]int{} // a COUNT's text -> its call index
	var addCalls func(e Expr) error
	addCalls = func(e Expr) error {
		switch n := e.(type) {
		case *BinaryExpr:
			if err := addCalls(n.L); err != nil {
				return err
			}
			return addCalls(n.R)
		case *CountExpr:
			if _, seen := slot[exprString(n)]; seen {
				return nil
			}
			c := aggCall{fn: n}
			if n.Arg != nil {
				var err error
				if c.term, err = p.termOf(n.Arg); err != nil {
					return err
				}
			}
			if n.Distinct {
				c.dseen = map[uint64]struct{}{}
			}
			slot[exprString(n)] = len(s.calls)
			s.calls = append(s.calls, c)
		}
		return nil
	}
	if err := addCalls(st.Having); err != nil {
		return nil, err
	}
	s.needsGroup = len(st.GroupBy) > 0
	for _, g := range st.GroupBy {
		t, err := p.termOf(g)
		if err != nil {
			return nil, err
		}
		s.keyTerms = append(s.keyTerms, t)
		s.levels = append(s.levels, map[uint64]int32{})
	}
	if st.Having != nil {
		s.having = compileCounts(st.Having, slot)
	}
	if s.needsGroup {
		s.zero = make([]aggCount, len(s.calls))
		colOf := func(pos int32) *relstore.Column { return p.scans[0].cnr.Col(int(pos) - 1) }
		onD := func(t *codeTerm) bool {
			return t.scan == 0 && slices.ContainsFunc(p.memoCols, func(pos int32) bool { return colOf(pos) == t.col })
		}
		s.perClass = p.memoOff == "" && !slices.ContainsFunc(s.keyTerms, func(t *codeTerm) bool { return !onD(t) })
		for _, c := range s.calls {
			if t := c.term; s.perClass && t != nil && t.scan == 0 && !onD(t) && !slices.Contains(s.pureCols, t.col) {
				s.pureCols = append(s.pureCols, t.col)
			}
		}
		s.byClass = s.perClass && !slices.ContainsFunc(p.memoCols, func(pos int32) bool {
			return !slices.ContainsFunc(s.keyTerms, func(t *codeTerm) bool { return t.col == colOf(pos) })
		})
	}

	// What the projection reads is fetched per surviving group, or, when not
	// grouping, per arriving row.
	for _, it := range st.Items {
		pos, err := cat.resolve(it)
		if err != nil {
			return nil, err
		}
		s.projs = append(s.projs, sinkProj{it.Column, pos})
		if !slices.Contains(s.outCols, int32(pos)) {
			s.outCols = append(s.outCols, int32(pos))
		}
	}
	if !s.needsGroup {
		s.rowCols, s.outCols = s.outCols, nil
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

// describe renders the sink stage for the plan's description.
func (s *streamSink) describe() string {
	var parts []string
	if s.needsGroup {
		parts = append(parts, fmt.Sprintf("group on codes(%d) aggs=%d", len(s.keyTerms), len(s.calls)))
	}
	if s.perClass {
		parts = append(parts, "counts per class")
	}
	if s.byClass {
		parts = append(parts, "a group per class")
	}
	if s.having != nil {
		parts = append(parts, "having on counts")
	}
	parts = append(parts, fmt.Sprintf("project %d cols", len(s.projs)))
	return strings.Join(parts, ", ")
}

// mixed reports whether rows differ in Equal-class code on a column of
// pureCols.
func (s *streamSink) mixed(rows []int32) bool {
	for _, col := range s.pureCols {
		first := col.EqCode(int(rows[0]))
		for _, r := range rows[1:] {
			if col.EqCode(int(r)) != first {
				return true
			}
		}
	}
	return false
}

// add consumes the pipeline row under the cursor. It reports whether a
// streaming consumer declined more rows.
func (s *streamSink) add() bool {
	if !s.needsGroup {
		s.px.materialise(s.rowCols, s.px.cur)
		return s.emit()
	}
	s.count(s.group(), 1)
	return false
}

// count adds the pipeline row under the cursor to its group's counts, times
// over: for a class of times driver rows that agree on every operand.
func (s *streamSink) count(g int32, times int64) {
	for ci := range s.calls {
		c, n := &s.calls[ci], &s.counts[int(g)*len(s.calls)+ci]
		if c.term == nil {
			n.n += times
			continue
		}
		switch x := c.term.own(s.px.cur); { // COUNT skips NULLs, and a DISTINCT one repeats
		case x == codeNull:
		case !c.fn.Distinct:
			n.n += times
		case n.firstSeen(c, uint64(g), uint32(x)):
			n.n++
		}
	}
}

// group resolves the group of the pipeline row under the cursor: its keys'
// codes, interned level by level. Indexes are handed out in first-appearance
// order, so a fresh index opens a new group, represented by the cursor.
func (s *streamSink) group() int32 {
	gid := uint64(0)
	for i, t := range s.keyTerms {
		c := uint32(t.own(s.px.cur) + 2) // NULL (-2) groups as a value of its own
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

// emit projects the sink's row and hands it to the streaming consumer,
// reporting whether it declined more, or else keeps it for the Result.
func (s *streamSink) emit() (stop bool) {
	vals := s.vals
	if s.yield == nil {
		vals = make([]types.Value, len(s.projs))
	}
	for i, pr := range s.projs {
		vals[i] = s.px.buf[pr.pos]
	}
	if s.yield != nil {
		return !s.yield(vals)
	}
	s.rows = append(s.rows, vals)
	return false
}

// finishGroups turns the accumulated groups into output rows: one row per
// group in first-appearance order (the representative's projected columns,
// fetched at its cursor), filtered by HAVING on the counts before anything
// is fetched.
func (s *streamSink) finishGroups(ctx context.Context) error {
	for gi := 0; gi*s.nscans < len(s.reps); gi++ {
		if err := strideCheck(ctx, gi); err != nil {
			return err
		}
		counts := s.counts[gi*len(s.calls):]
		if s.having != nil && !s.having(counts) {
			continue
		}
		s.px.materialise(s.outCols, s.reps[gi*s.nscans:(gi+1)*s.nscans])
		if s.emit() {
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
	p, err := e.buildSelectPlan(st)
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
