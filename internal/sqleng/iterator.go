// The streaming executor: runs a selectPlan as a push-style pipeline over
// the pinned columnar snapshots. What flows through it is a cursor — one
// snapshot row index per scan — not a row of Values: code-compiled
// predicates, join keys, GROUP BY keys and COUNT operands (codepred.go) read
// dictionary codes at the cursor; join steps look partners up through PLI
// classes or hash indexes keyed by packed codes; the sink groups on codes
// and keeps a group's representative as a cursor. One row buffer exists
// beside the cursor for value-level expressions (arithmetic, LIKE, SUBSTR,
// ordering compares): a scan fills just the columns such an expression
// reads as its cursor moves, and the sink fills projected columns for the
// rows that survived. No intermediate relation is ever materialized.
//
// Rows are enumerated in the nested-loop order: driver scan in snapshot
// order, each join step's matches in right-side snapshot order, unmatched
// outer rows null-extended in place.
//
// All hot loops share one monotonic counter and check the context every
// cancelStride rows, preserving the engine's cancellation contract.
package sqleng

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

// rightIndex is the build side of one join step: which right rows survive
// the pushed-down filters, plus the lookup structure of the step's kind.
type rightIndex struct {
	surv     []bool  // nil: every row survives (no right-side filters)
	survRows []int32 // stepNested: surviving rows in snapshot order
	buckets  map[string][]int32
	pliCol   *relstore.Column
}

// planExec is one execution of a selectPlan.
type planExec struct {
	p      *selectPlan
	ctx    context.Context
	cur    []int32       // the cursor: one snapshot row per scan, -1 null-extended
	buf    []types.Value // the lazily filled row, plus the sink's aggregate slots
	idx    []*rightIndex // per step
	cached [][]int32     // per step: candidates from a hoisted probe
	memo   *driverMemo   // nil when the plan does not qualify (selectPlan.planMemo)
	keyBuf []byte
	ops    OpCounters // local counters, flushed to the engine once per run
	n      int        // shared row counter for stride context checks
	stop   bool
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
// late-materialisation, memo and probe gates read them.
type OpCounters struct {
	// PLIProbes counts single-column PLI class lookups.
	PLIProbes int64
	// HashProbes counts hash-bucket lookups, HashBuildRows the right-side
	// rows scanned to build hash indexes.
	HashProbes    int64
	HashBuildRows int64
	// ValuesMaterialized counts the Values fetched from dictionaries (and
	// tuple ids boxed) into the row buffer. A query whose predicates, keys
	// and aggregates all compile to codes fetches output rows x projected
	// columns and nothing else.
	ValuesMaterialized int64
	// MemoClasses counts the driver-row classes whose tails the
	// driver-signature memo recorded, MemoReplays the driver rows it served
	// from a recording instead of running the pipeline.
	MemoClasses int64
	MemoReplays int64
}

// fields lists the counters, for the whole-struct atomic operations.
func (o *OpCounters) fields() []*int64 {
	return []*int64{&o.PLIProbes, &o.HashProbes, &o.HashBuildRows,
		&o.ValuesMaterialized, &o.MemoClasses, &o.MemoReplays}
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

// run drives the pipeline to completion (or early stop) into the plan's
// sink. It may be called once per plan.
func (p *selectPlan) run(ctx context.Context) error {
	px := &planExec{
		p:      p,
		ctx:    ctx,
		cur:    make([]int32, len(p.scans)),
		buf:    make([]types.Value, len(p.cat)+len(p.sink.calls)),
		idx:    make([]*rightIndex, len(p.steps)),
		cached: make([][]int32, len(p.steps)),
		memo:   p.newMemo(),
	}
	p.sink.px = px
	defer px.flushOps()
	for si := range p.steps {
		if err := px.buildIndex(si); err != nil {
			return err
		}
	}
	return px.scanDriver()
}

// materialise fetches the row-buffer positions cols at cursor cur: the
// tuple id for a scan's hidden _tid, else the value straight from the exact
// dictionary (bit-identical to the stored tuple), NULL on a null-extended
// scan.
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

// setCur moves scan s's cursor to snapshot row r (-1: null-extended) and
// fills the columns the pipeline's value-level expressions read there.
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

// appendCode packs one non-negative code into a byte key.
func appendCode(key []byte, c int32) []byte {
	return append(key, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
}

// buildIndex builds step si's right-side index: applies the pushed-down
// filters row by row at the right scan's cursor, then indexes the
// survivors according to the step's kind.
func (px *planExec) buildIndex(si int) error {
	step := px.p.steps[si]
	sc := step.right
	n := sc.cnr.Len()
	idx := &rightIndex{}
	px.idx[si] = idx
	if step.kind == stepPLI {
		idx.pliCol = sc.cnr.Col(step.keyRCol)
	}
	if len(sc.filters) == 0 && step.kind == stepPLI {
		// Candidates come straight from the cached partition: with no
		// filters there is nothing to precompute.
		return nil
	}
	if len(sc.filters) > 0 {
		idx.surv = make([]bool, n)
	}
	if step.kind == stepHash {
		idx.buckets = make(map[string][]int32, n)
		px.ops.HashBuildRows += int64(n)
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
		}
		switch step.kind {
		case stepHash:
			key := px.keyBuf[:0]
			for k := range step.keys {
				jk := &step.keys[k]
				if jk.rt != nil {
					c := jk.rt.own(px.cur)
					if c == codeNull {
						px.keyBuf = key
						continue rows // NULL never equi-joins
					}
					key = appendCode(key, c)
					continue
				}
				v := jk.rfn(px.buf)
				if v.IsNull() && !jk.nullSafe {
					px.keyBuf = key
					continue rows
				}
				key = v.AppendGroupKey(key)
			}
			px.keyBuf = key
			idx.buckets[string(key)] = append(idx.buckets[string(key)], int32(r))
		case stepNested:
			idx.survRows = append(idx.survRows, int32(r))
		}
	}
	return nil
}

// driverMemo decides the join once per class of driver rows. Below the driver
// scan the pipeline is a function of the row's exact values on the columns D
// that WHERE and ON read (selectPlan.planMemo), so a class's first row runs
// it and records the cursor suffixes cur[1:] that reach the sink (the tails,
// null-extended -1s included) and every later row replays them. Rows are
// served in driver order and tails in recorded order: enumeration order,
// group numbering and early stops are the unmemoised loop's, and total
// evaluation makes skipping the repeated evaluations unobservable.
type driverMemo struct {
	cols    []*relstore.Column // D
	dense   [][]int32          // per column left with dead codes (patch.go): code -> index among the live ones
	classOf []int32            // value vector -> 1 + its class's entry in tails; 0: not seen yet
	// tails holds per class its tail count (-1: given up), the group its rows
	// fall in (-1: the sink resolves it) and the tails, a cursor per
	// non-driver scan each. Every class's header fits without growing it.
	tails  []int32
	budget int // tails that may still be recorded, of one per driver row in total
	rec    int // the entry being recorded, -1: none
}

func (p *selectPlan) newMemo() *driverMemo {
	if p.memoOff != "" {
		return nil
	}
	m := &driverMemo{classOf: make([]int32, p.memoSpace), tails: make([]int32, 0, 2*p.memoSpace),
		budget: p.scans[0].cnr.Len(), rec: -1}
	for _, pos := range p.memoCols {
		col, dense := p.scans[0].cnr.Col(int(pos)-1), []int32(nil)
		if col.CodeSpace() > col.Card() { // keep the table the size the plan admitted
			dense = make([]int32, col.CodeSpace())
			for r := 0; r < col.Len(); r++ {
				dense[col.Code(r)] = 1
			}
			next := int32(0)
			for c, live := range dense {
				dense[c], next = next, next+live
			}
		}
		m.cols, m.dense = append(m.cols, col), append(m.dense, dense)
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

// record notes that the cursor suffix tail reached the sink as a row of
// group gid. A class that outruns the budget is given up — it runs the
// pipeline for each of its rows — so a fan-out join cannot blow memory.
func (m *driverMemo) record(tail []int32, gid int32) {
	if m.budget == 0 {
		m.budget += int(m.tails[m.rec])
		m.tails = m.tails[:m.rec+2]
		m.tails[m.rec], m.rec = -1, -1
		return
	}
	m.tails = appendDoubling(m.tails, tail...)
	m.tails[m.rec]++
	m.tails[m.rec+1] = gid
	m.budget--
}

// scanDriver iterates the driver scan: each row — with a memo, each class's
// first — through the stage-0 filters and probes, then down the join steps.
func (px *planExec) scanDriver() error {
	n, m := px.p.scans[0].cnr.Len(), px.memo
	for r := 0; r < n && !px.stop; r++ {
		if err := px.stride(); err != nil {
			return err
		}
		px.setCur(0, int32(r))
		if m != nil {
			sig := 0
			for i, c := range m.cols {
				code := int32(c.Code(r))
				if m.dense[i] != nil {
					code = m.dense[i][code]
				}
				sig = sig*c.Card() + int(code)
			}
			if e := int(m.classOf[sig]) - 1; e < 0 {
				m.classOf[sig], m.rec = int32(len(m.tails))+1, len(m.tails)
				m.tails = appendDoubling(m.tails, 0, -1)
			} else if m.tails[e] >= 0 {
				if err := px.replay(m.tails[e:]); err != nil {
					return err
				}
				continue
			}
		}
		if px.stageGate(0) {
			if err := px.descend(0); err != nil {
				return err
			}
		}
		if m != nil && m.rec >= 0 {
			m.rec = -1
			px.ops.MemoClasses++
		}
	}
	return nil
}

// replay feeds a recorded class entry's tails to the sink for the driver row
// under the cursor, polling the context as the join steps would have.
func (px *planExec) replay(e []int32) error {
	px.ops.MemoReplays++
	for i, w := 0, len(px.cur)-1; i < int(e[0]) && !px.stop; i++ {
		if err := px.stride(); err != nil {
			return err
		}
		for s := 1; s <= w; s++ {
			px.setCur(s, e[1+i*w+s])
		}
		px.stop = px.p.sink.add(e[1])
	}
	return nil
}

// stageGate runs stage d's filters and hoisted probes over the current
// prefix, reporting whether the prefix survives.
func (px *planExec) stageGate(d int) bool {
	stage := px.p.stages[d]
	for i := range stage {
		if !px.pass(&stage[i]) {
			return false
		}
	}
	for _, si := range px.p.probesAt[d] {
		if !px.probe(si) {
			return false
		}
	}
	return true
}

// keyCode returns the current prefix's value of a code-keyed join key in
// the right term's code space: through the translation table when the left
// side is a term (one array load), else by looking the evaluated value up.
// Negative: NULL, or a value the right column lacks — no partner.
func (px *planExec) keyCode(jk *joinKey) int32 {
	if jk.tab != nil {
		return jk.tab.get()[jk.lt.exact(px.cur)]
	}
	return jk.rt.codeOf(jk.lfn(px.buf))
}

// lookup finds step si's candidate right rows for the current prefix key,
// nil when the key is NULL or has no partner.
func (px *planExec) lookup(si int) []int32 {
	step := px.p.steps[si]
	idx := px.idx[si]
	if step.kind == stepPLI {
		eq := px.keyCode(&step.keys[0])
		if eq < 0 {
			return nil
		}
		px.ops.PLIProbes++
		return idx.pliCol.ClassRows(uint32(eq))
	}
	key := px.keyBuf[:0]
	for k := range step.keys {
		jk := &step.keys[k]
		if jk.rt != nil {
			c := px.keyCode(jk)
			if c < 0 {
				px.keyBuf = key
				return nil
			}
			key = appendCode(key, c)
			continue
		}
		v := jk.lfn(px.buf)
		if v.IsNull() && !jk.nullSafe {
			px.keyBuf = key
			return nil
		}
		key = v.AppendGroupKey(key)
	}
	px.keyBuf = key
	px.ops.HashProbes++
	return idx.buckets[string(key)]
}

// probe runs step si's index lookup early, at a stage before the step's
// own, and caches the candidates for the step to consume. A prefix with no
// surviving partner is killed on the spot.
func (px *planExec) probe(si int) bool {
	cands := px.lookup(si)
	idx := px.idx[si]
	if idx.surv != nil {
		any := false
		for _, r := range cands {
			if idx.surv[r] {
				any = true
				break
			}
		}
		if !any {
			cands = nil
		}
	}
	px.cached[si] = cands
	return len(cands) > 0
}

// descend runs the pipeline below stage d: the next join step, or the sink
// when every scan's cursor is set.
func (px *planExec) descend(d int) error {
	if d == len(px.p.scans)-1 {
		px.stop = px.p.sink.add(-1) || px.stop
		if m := px.memo; m != nil && m.rec >= 0 {
			m.record(px.cur[1:], px.p.sink.gid)
		}
		return nil
	}
	step := px.p.steps[d]
	idx := px.idx[d]

	cands := idx.survRows // a nested step pairs with every surviving row
	switch {
	case step.kind == stepNested:
	case step.probeAt < d:
		cands = px.cached[d] // the hoisted probe already looked it up
	default:
		cands = px.lookup(d)
	}

	matched := false
	tryRight := func(r int32) error {
		if err := px.stride(); err != nil {
			return err
		}
		px.setCur(d+1, r)
		for i := range step.residuals {
			if !px.pass(&step.residuals[i]) {
				return nil
			}
		}
		// A pair is matched once the whole ON holds, before the later WHERE
		// conjuncts run: the distinction decides null-extension.
		matched = true
		if !px.stageGate(d + 1) {
			return nil
		}
		return px.descend(d + 1)
	}

	for _, r := range cands {
		if px.stop {
			return nil
		}
		if idx.surv != nil && !idx.surv[r] {
			continue
		}
		if err := tryRight(r); err != nil {
			return err
		}
	}
	if px.stop {
		return nil
	}

	if step.outer && !matched {
		// Null-extend: a cursor of -1 reads as NULL in every column of the
		// right scan; the later-stage WHERE conjuncts see it as such.
		px.setCur(d+1, -1)
		if !px.stageGate(d + 1) {
			return nil
		}
		return px.descend(d + 1)
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

// sinkOrderKey is one compiled ORDER BY key: an expression over the
// (grouped) relation row, or a reference to an output column by alias.
type sinkOrderKey struct {
	fn    evalFn // nil when byOut >= 0
	byOut int
	desc  bool
}

// sinkOutRow pairs an output row with its materialized order keys. seq is
// the arrival index, used by the bounded-heap path to replicate the
// stable sort's tie-break (earlier arrival wins); the unbounded path
// leaves it zero and sorts stably instead.
type sinkOutRow struct {
	vals []types.Value
	keys []types.Value
	seq  int
}

// streamSink terminates the pipeline: grouping/aggregation, HAVING,
// projection, DISTINCT, ORDER BY, OFFSET/LIMIT. It is fully compiled at
// plan time and consumes the pipeline incrementally — for non-grouped queries
// only the projected output rows are retained; a group retains a cursor
// (its first member) and its aggregate states.
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
	// memoGroups: every key is a code term over a column of the memo's D, so
	// a class lies in one group and a replayed row arrives with its index.
	memoGroups bool
	// HAVING: on the group's counts alone when its shape allows
	// (compileCounts), else value-level.
	havingCounts countFn
	having       evalFn
	projs        []sinkProj
	orderKeys    []sinkOrderKey
	// Late materialisation: the row-buffer positions the sink's value-level
	// expressions read, by when they are fetched. rowCols per arriving
	// pipeline row (value-level group keys and aggregate operands; when not
	// grouping, the projection); havingCols per group from its
	// representative cursor; outCols per group that passed HAVING.
	rowCols, havingCols, outCols []int32
	// earlyStop: with a LIMIT, no ORDER BY and no grouping, the pipeline
	// can stop as soon as OFFSET+LIMIT output rows exist — no later row
	// could change the result.
	earlyStop bool
	target    int // earlyStop: rows to accumulate before stopping
	// heapK: with ORDER BY and a LIMIT, only the OFFSET+LIMIT best rows
	// can reach the output, so the sink retains exactly that many in a
	// bounded max-heap (s.out is the heap storage) instead of the full
	// sorted set; rows that cannot make the cut are rejected before any
	// copy is allocated. -1 disables (no LIMIT, or no ORDER BY).
	heapK int

	// Runtime state.
	levels   []map[uint64]int32
	intern   []map[string]uint32
	reps     []int32    // per group: its first member's cursor, nscans wide
	gid      int32      // memoGroups: the group add last resolved, else -1
	counts   []aggCount // per group: one per call
	vals     []aggState // per group: one per value-level call (aggCall.vslot)
	zero     []aggCount // a new group's counts
	fresh    []aggState // a new group's vals
	out      []sinkOutRow
	seen     map[string]bool
	keyBuf   []byte
	seq      int           // arrival counter for heap tie-breaks
	valBuf   []types.Value // heap path: projected row before acceptance
	ordBuf   []types.Value // order keys before acceptance
	streamed int           // rows already passed to yield
	yield    func(row []types.Value) bool
}

// newStreamSink compiles the sink for p's statement over the pipeline
// catalog.
func newStreamSink(p *selectPlan) (*streamSink, error) {
	st, cat, hidden := p.st, p.cat, p.hidden
	s := &streamSink{st: st, width: len(cat), nscans: len(p.scans), heapK: -1, gid: -1}

	var outExprs []Expr // the select items, then the ORDER BY keys
	for _, it := range st.Items {
		if !it.Star {
			outExprs = append(outExprs, it.Expr)
		}
	}
	for _, oi := range st.OrderBy {
		outExprs = append(outExprs, oi.Expr)
	}
	s.needsGroup = len(st.GroupBy) > 0 || st.Having != nil || slices.ContainsFunc(outExprs, hasAggregate)

	var aggEnv map[string]int
	gcat := cat // the grouped row: the pipeline row, then one slot per aggregate
	if s.needsGroup {
		all := outExprs
		if st.Having != nil {
			all = append(append([]Expr{}, outExprs...), st.Having)
		}
		env, calls, err := collectAggs(cat, all...)
		if err != nil {
			return nil, err
		}
		aggEnv = env
		s.calls, s.zero = calls, make([]aggCount, len(calls))
		for i := range s.calls {
			c := &s.calls[i]
			c.vslot = -1
			if c.fn.Star {
				continue
			}
			// COUNT only asks whether the operand is NULL and, under
			// DISTINCT, which class it is in: codes answer both.
			if t, _, _ := p.termOf(c.fn.Args[0], false); t != nil && c.fn.Name == "COUNT" {
				c.term = t
			} else {
				c.vslot = len(s.fresh)
				s.fresh = append(s.fresh, aggState{call: c, allInt: true})
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
		s.memoGroups = p.memoOff == "" && !slices.ContainsFunc(s.keyTerms, func(t *codeTerm) bool {
			return t == nil || t.scan != 0 || !slices.ContainsFunc(p.memoCols, func(pos int32) bool {
				return p.scans[0].cnr.Col(int(pos)-1) == t.col
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

	for _, oi := range st.OrderBy {
		ok := sinkOrderKey{byOut: -1, desc: oi.Desc}
		if f, err := compileExprAgg(oi.Expr, gcat, aggEnv); err == nil {
			ok.fn = f
		} else if cr, isRef := oi.Expr.(*ColumnRef); isRef && cr.Table == "" {
			ok.byOut = slices.IndexFunc(s.projs, func(pr sinkProj) bool { return strings.EqualFold(pr.name, cr.Column) })
			if ok.byOut < 0 {
				return nil, err
			}
		} else {
			return nil, err
		}
		s.orderKeys = append(s.orderKeys, ok)
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

	if st.Distinct {
		s.seen = map[string]bool{}
	}
	if len(s.orderKeys) > 0 && st.Limit >= 0 {
		s.heapK = st.Offset + st.Limit
	}
	s.valBuf = make([]types.Value, len(s.projs))
	s.earlyStop = !s.needsGroup && len(s.orderKeys) == 0 && st.Limit >= 0
	s.target = st.Offset + st.Limit
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

// canYield reports whether a streaming consumer can receive output rows
// without the sink ever materializing them: directly from the pipeline, or
// group by group out of finishGroups — only an ORDER BY forces the full
// output to exist at once.
func (s *streamSink) canYield() bool {
	return len(s.orderKeys) == 0
}

// describe renders the sink stage for EXPLAIN output.
func (s *streamSink) describe() string {
	var parts []string
	if s.needsGroup && !slices.Contains(s.keyTerms, nil) {
		parts = append(parts, fmt.Sprintf("group on codes(%d) aggs=%d", len(s.keyTerms), len(s.calls)))
	} else if s.needsGroup {
		parts = append(parts, fmt.Sprintf("group(keys=%d aggs=%d)", len(s.keyFns), len(s.calls)))
	}
	if s.memoGroups {
		parts = append(parts, "group index from memo")
	}
	if s.havingCounts != nil {
		parts = append(parts, "having on counts")
	} else if s.having != nil {
		parts = append(parts, "having")
	}
	parts = append(parts, fmt.Sprintf("project %d cols", len(s.projs)))
	if s.st.Distinct {
		parts = append(parts, "distinct")
	}
	if len(s.orderKeys) > 0 {
		parts = append(parts, fmt.Sprintf("order by %d keys", len(s.orderKeys)))
	}
	if s.heapK >= 0 {
		parts = append(parts, fmt.Sprintf("top-k heap k=%d", s.heapK))
	}
	if s.st.Offset > 0 {
		parts = append(parts, fmt.Sprintf("offset %d", s.st.Offset))
	}
	if s.st.Limit >= 0 {
		parts = append(parts, fmt.Sprintf("limit %d", s.st.Limit))
	}
	if s.earlyStop {
		parts = append(parts, "early-stop")
	}
	return strings.Join(parts, ", ")
}

// add consumes the pipeline row under the cursor, a row of group known when
// the memo replays it (else -1). Returns true when the pipeline may
// terminate early (LIMIT satisfied, or a streaming consumer declined more
// rows).
func (s *streamSink) add(known int32) bool {
	px := s.px
	px.materialise(s.rowCols, px.cur)
	if !s.needsGroup {
		return s.emit(px.buf)
	}
	// Resolve the group: its keys' codes, interned level by level. Indexes
	// are handed out in first-appearance order, so a fresh index is a new
	// group.
	gid, keys := uint64(0), s.keyTerms
	if known >= 0 {
		gid, keys = uint64(known), nil
	}
	for i, t := range keys {
		var c uint32
		if t != nil {
			c = uint32(t.own(px.cur) + 2) // NULL (-2) groups as a value of its own
		} else {
			c = s.internValue(s.intern[i], s.keyFns[i](px.buf))
		}
		id, ok := s.levels[i][gid<<32|uint64(c)]
		if !ok {
			id = int32(len(s.levels[i]))
			s.levels[i][gid<<32|uint64(c)] = id
		}
		gid = uint64(id)
	}
	if int(gid) == len(s.reps)/s.nscans {
		s.newGroup(px.cur)
	}
	if s.memoGroups {
		s.gid = int32(gid)
	}
	for ci := range s.calls {
		c, n := &s.calls[ci], &s.counts[int(gid)*len(s.calls)+ci]
		switch {
		case c.fn.Star:
			n.n++
		case c.term != nil:
			if x := c.term.own(px.cur); x != codeNull && (!c.fn.Distinct || n.firstSeen(c, gid, uint32(x))) {
				n.n++
			}
		default:
			v := c.arg(px.buf)
			if v.IsNull() || (c.fn.Distinct && !n.firstSeen(c, gid, s.internValue(c.intern, v))) {
				continue // aggregates skip NULLs, DISTINCT ones repeats
			}
			s.vals[int(gid)*len(s.fresh)+c.vslot].accumulate(v)
		}
	}
	return false
}

// aggCount is a group's pointer-free state for one call: the count a
// code-level COUNT reports and, under DISTINCT, the first operand code the
// group saw.
type aggCount struct {
	n    int64
	d0   uint32
	has0 bool
}

// newGroup opens a group represented by the cursor cur.
func (s *streamSink) newGroup(cur []int32) {
	s.reps = appendDoubling(s.reps, cur...)
	s.counts = appendDoubling(s.counts, s.zero...)
	s.vals = appendDoubling(s.vals, s.fresh...)
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

// emit projects one (grouped) row and routes it: through DISTINCT, then to
// the streaming consumer, the bounded heap or the output set. Only the
// retention differs between the routes: a row the heap rejects or a
// consumer takes allocates nothing.
func (s *streamSink) emit(row []types.Value) (stop bool) {
	bounded := s.heapK >= 0 && s.yield == nil
	vals := s.valBuf
	if !bounded && s.yield == nil {
		vals = make([]types.Value, len(s.projs))
	}
	for i, pr := range s.projs {
		vals[i] = pr.fn(row)
	}
	if s.seen != nil {
		key := s.keyBuf[:0]
		for _, v := range vals {
			key = v.AppendGroupKey(key)
		}
		s.keyBuf = key
		if s.seen[string(key)] {
			return false
		}
		s.seen[string(key)] = true
	}
	keys := s.ordBuf[:0]
	for _, okey := range s.orderKeys {
		if okey.byOut >= 0 {
			keys = append(keys, vals[okey.byOut])
		} else {
			keys = append(keys, okey.fn(row))
		}
	}
	s.ordBuf = keys

	switch {
	case s.yield != nil:
		// Streaming consumer: apply OFFSET/LIMIT inline and hand the row
		// over instead of retaining it.
		s.streamed++
		if s.streamed <= s.st.Offset {
			return false
		}
		if s.st.Limit >= 0 && s.streamed > s.st.Offset+s.st.Limit {
			return true
		}
		if !s.yield(vals) {
			return true // the consumer stopped
		}
		return s.st.Limit >= 0 && s.streamed == s.st.Offset+s.st.Limit
	case bounded:
		cand := sinkOutRow{vals: vals, keys: keys, seq: s.seq}
		s.seq++
		if s.heapK == 0 || (len(s.out) == s.heapK && !s.outLess(&cand, &s.out[0])) {
			return false // cannot enter the top k: rejected without a copy
		}
		cand.vals = append([]types.Value(nil), vals...)
		cand.keys = append([]types.Value(nil), keys...)
		s.boundedInsert(cand)
		return false
	}
	s.out = append(s.out, sinkOutRow{vals: vals, keys: append([]types.Value(nil), keys...)})
	return s.earlyStop && len(s.out) >= s.target
}

// outLess is the total order the heap maintains: ORDER BY keys first, then
// arrival sequence — the first k rows under this order are exactly the
// first k rows of a stable sort by the keys alone, which is what the
// unbounded path produces.
func (s *streamSink) outLess(a, b *sinkOutRow) bool {
	for k, okey := range s.orderKeys {
		c := a.keys[k].Compare(b.keys[k])
		if c == 0 {
			continue
		}
		if okey.desc {
			return c > 0
		}
		return c < 0
	}
	return a.seq < b.seq
}

// boundedInsert places or into the max-heap rooted at s.out[0] (the worst
// retained row), evicting the root when the heap is at capacity. The
// caller has already established that or beats the root in that case.
func (s *streamSink) boundedInsert(or sinkOutRow) {
	if len(s.out) < s.heapK {
		s.out = append(s.out, or)
		i := len(s.out) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !s.outLess(&s.out[p], &s.out[i]) {
				break
			}
			s.out[p], s.out[i] = s.out[i], s.out[p]
			i = p
		}
		return
	}
	s.out[0] = or
	i, n := 0, len(s.out)
	for {
		big, l, r := i, 2*i+1, 2*i+2
		if l < n && s.outLess(&s.out[big], &s.out[l]) {
			big = l
		}
		if r < n && s.outLess(&s.out[big], &s.out[r]) {
			big = r
		}
		if big == i {
			return
		}
		s.out[i], s.out[big] = s.out[big], s.out[i]
		i = big
	}
}

// finish completes grouping/having, sorts, applies OFFSET/LIMIT and builds
// the eager Result, stamped with the plan-time pinned versions.
func (s *streamSink) finish(ctx context.Context, versions map[string]int64) (*Result, error) {
	if s.needsGroup {
		if err := s.finishGroups(ctx); err != nil {
			return nil, err
		}
	}
	res := &Result{Columns: s.columns(), Versions: versions}
	out := s.out
	if len(s.orderKeys) > 0 {
		// outLess breaks key ties by arrival sequence; on the unbounded
		// path every seq is zero and SliceStable supplies the stability, on
		// the heap path the recorded seqs reproduce it under sort.Slice.
		if s.heapK >= 0 {
			sort.Slice(out, func(i, j int) bool { return s.outLess(&out[i], &out[j]) })
		} else {
			sort.SliceStable(out, func(i, j int) bool { return s.outLess(&out[i], &out[j]) })
		}
	}
	if s.st.Offset > 0 {
		if s.st.Offset >= len(out) {
			out = nil
		} else {
			out = out[s.st.Offset:]
		}
	}
	if s.st.Limit >= 0 && s.st.Limit < len(out) {
		out = out[:s.st.Limit]
	}
	for _, or := range out {
		res.Rows = append(res.Rows, or.vals)
	}
	return res, nil
}

// finishGroups turns the accumulated groups into output rows: one row per
// group in first-appearance order (the representative's columns that HAVING
// and the projection read, fetched at its cursor, plus the aggregate
// results), filtered by HAVING, projected like the non-grouped path. A
// group HAVING rejects materialises nothing the projection alone reads.
func (s *streamSink) finishGroups(ctx context.Context) error {
	// A global aggregate over an empty input still yields one group, with
	// an all-NULL representative row.
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
		if s.havingCounts != nil && !s.havingCounts(s.counts[gi*len(s.calls):]) {
			continue // decided on the counts: nothing fetched, nothing boxed
		}
		rep := s.reps[gi*s.nscans : (gi+1)*s.nscans]
		s.px.materialise(s.havingCols, rep)
		for ci, c := range s.calls {
			if c.vslot < 0 {
				row[s.width+ci] = types.NewInt(s.counts[gi*len(s.calls)+ci].n)
			} else {
				row[s.width+ci] = s.vals[gi*len(s.fresh)+c.vslot].result()
			}
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

	plan  *selectPlan
	eager *Result // a SELECT without FROM: its one row
}

// Stream plans a SELECT for incremental consumption. For plans with an
// ordering barrier the result is materialized on the first Each call;
// otherwise rows flow straight from the pipeline. A stream is single-use:
// Each may be called once.
func (e *Engine) Stream(ctx context.Context, sql string) (*SelectStream, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: Stream requires a SELECT statement")
	}
	if len(sel.From) == 0 {
		res, err := e.RunContext(ctx, sel)
		if err != nil {
			return nil, err
		}
		return &SelectStream{Columns: res.Columns, Versions: res.Versions, eager: res}, nil
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
	res := s.eager
	if res == nil && s.plan.sink.canYield() {
		s.plan.sink.yield = yield
		if err := s.plan.run(ctx); err != nil {
			return err
		}
		if s.plan.sink.needsGroup {
			// Grouped but unordered: the pipeline has accumulated the
			// groups; hand each finished group row straight to the
			// consumer, never building the output set.
			return s.plan.sink.finishGroups(ctx)
		}
		return nil
	}
	if res == nil {
		var err error
		if res, err = s.plan.collect(ctx); err != nil {
			return err
		}
	}
	for i, row := range res.Rows {
		if err := strideCheck(ctx, i); err != nil {
			return err
		}
		if !yield(row) {
			return nil
		}
	}
	return nil
}
