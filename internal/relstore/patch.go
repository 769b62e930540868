// Delta patching of version-cached read artifacts: when a table mutates a
// little and is then read, the new Snapshot — and, transitively, its
// columnar dictionaries, code vectors and per-column PLI partitions — is
// derived from the previous version's caches by applying the delta, instead
// of re-interning every cell of every column.
//
// Every delta patches; there is no case the patcher hands back. Exact
// dictionary codes are stable along a column's lineage (columnar.go): a
// row leaving a value decrements its count, a row taking one looks it up
// and increments, a novel value takes the next code, a dead code is
// revived by its value. So a patched column equals a batch build of the
// same rows up to a renaming of codes, and the contract is on what a
// consumer can observe — rows, ids, stored values, the Equal-class
// partition, the PLI (classes by first row, rows ascending: history-free,
// so patched to the very bytes a batch build emits), class representatives
// and statistics are exactly the batch build's. Dead codes are bounded:
// past compactDead below the column is re-interned from its rows, which
// starts a fresh lineage.
//
// The oracle (oracle.go, the fuzz targets and the cross-check tests) holds
// the patcher to the contract at every intermediate version, comparing
// against Table.RebuildSnapshot under the code bijection the rows induce.
package relstore

import (
	"slices"
	"sort"
	"sync/atomic"
)

const (
	// maxPatchOps caps how many logged cell/row ops a retained predecessor
	// snapshot may bridge before patching is abandoned: past that, the
	// batch rebuild is no slower and the op bookkeeping stops paying.
	maxPatchOps = 4096
	// compactDead is the dead-code allowance: a patched column whose dead
	// codes outnumber compactDead plus an eighth of its live ones (see
	// deadLimit) is compacted — re-interned from its rows — so churn
	// cannot grow a dictionary past 1.125 x live + compactDead entries.
	// The flat part keeps a low-cardinality column from paying an O(rows)
	// compaction for every value that dies.
	compactDead = 64
	// maxChangeLog bounds the ChangesSince log; on overflow the oldest
	// half is evicted and the floor advances.
	maxChangeLog = 4096
)

// deadLimit is how many dead codes a column with live distinct values may
// carry before it is compacted.
func deadLimit(live int) int { return live/8 + compactDead }

// structuralChange marks a change-log record (and mutation note) that adds
// or removes a row, as opposed to editing one column's cell in place.
const structuralChange = int32(-1)

// chRec is one change-log record: at version ver, column col changed
// (structuralChange for a row insert/delete).
type chRec struct {
	ver int64
	col int32
}

// noteMutationLocked is the single mutation epilogue: it advances the
// version, drops the cached snapshot (retaining it as the patch base),
// counts the delta, and logs which columns changed. cols holds one entry
// per changed cell's schema position, or structuralChange per row added or
// removed; a representation-preserving mutation passes none (version still
// advances, nothing is logged — no cache content depends on it). Caller
// holds t.mu.
//
// A snapshot that was only read by rows still holds its patch link. It hands
// the link's base on instead of becoming one itself: the rows are diffed by
// pointer, so any earlier snapshot is a valid base, and this one has no
// columns to patch from.
func (t *Table) noteMutationLocked(cols ...int32) {
	if t.snap != nil {
		t.prev, t.npending = t.snap, 0
		if p := t.snap.patch.Swap(nil); p != nil {
			t.prev, t.npending = p.prev, p.nops
		}
	}
	t.version++
	t.snap = nil
	if t.prev != nil {
		t.npending += len(cols)
		if t.npending > maxPatchOps {
			t.prev = nil
			t.npending = 0
		}
	}
	for _, col := range cols {
		t.chlog = append(t.chlog, chRec{ver: t.version, col: col})
	}
	if len(t.chlog) > maxChangeLog {
		half := len(t.chlog) / 2
		t.chfloor = t.chlog[half-1].ver
		t.chlog = append(t.chlog[:0], t.chlog[half:]...)
	}
}

// ChangesSince reports, for each schema position, whether any cell of that
// column has changed after version since, and whether the row set
// (membership and order) is unchanged. ok is false when the change log no
// longer covers the interval — the caller must then assume everything
// changed. Incremental discovery uses this to re-verify only lattice nodes
// whose attribute partitions could have moved.
func (t *Table) ChangesSince(since int64) (changed []bool, rowsStable bool, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if since > t.version || since < t.chfloor {
		return nil, false, false
	}
	changed = make([]bool, t.schema.Arity())
	rowsStable = true
	for i := len(t.chlog) - 1; i >= 0; i-- {
		rec := t.chlog[i]
		if rec.ver <= since {
			break
		}
		if rec.col == structuralChange {
			rowsStable = false
		} else {
			changed[rec.col] = true
		}
	}
	return changed, rowsStable, true
}

// snapPatch links a patched Snapshot to its predecessor plus the delta
// separating them, in the coordinates the columnar patcher consumes: drops
// are ascending predecessor row positions that were removed, nAppend rows
// were appended at the tail, edits[j] are the in-place cell changes of
// column j at surviving rows (ascending), and remap — present iff rows were
// dropped — maps every predecessor position to its final position, -1 for
// dropped rows. nops is the table's logged op count across the delta, for a
// successor that inherits prev as its base.
type snapPatch struct {
	prev    *Snapshot
	nops    int
	drops   []int32
	nAppend int
	edits   [][]cellEdit
	remap   []int32
}

// cellEdit is one surviving row whose cell in some column changed its exact
// stored representation, addressed in both coordinate systems.
type cellEdit struct {
	prevPos int32 // row position in the predecessor snapshot
	newPos  int32 // row position in the patched snapshot
}

// sameRow reports whether two stored tuples are the same allocation.
// Stored rows are copy-on-write — a mutation always swaps in a fresh clone
// — so pointer identity is exactly "this row was not touched".
func sameRow(a, b Tuple) bool {
	if len(a) == 0 {
		return true
	}
	return &a[0] == &b[0]
}

// patchSnapshotLocked derives the current version's snapshot from t.prev by
// diffing the retained view against the live rows: O(prev rows) pointer
// comparisons and copies — the same row-vector cost a batch build pays —
// plus a recorded delta that lets the expensive artifacts (dictionaries,
// PLIs) be patched in O(delta) later. Returns nil if the diff violates the
// append-only id assumptions (the caller then batch-builds). Caller holds
// t.mu for writing.
func (t *Table) patchSnapshotLocked() *Snapshot {
	prev := t.prev
	arity := t.schema.Arity()
	n := len(t.rows)
	snap := &Snapshot{
		schema:  t.schema,
		version: t.version,
		ids:     make([]TupleID, 0, n),
		rows:    make([]Tuple, 0, n),
	}
	p := &snapPatch{prev: prev, nops: t.npending, edits: make([][]cellEdit, arity)}
	for i, id := range prev.ids {
		cur, live := t.rows[id]
		if !live {
			p.drops = append(p.drops, int32(i))
			continue
		}
		if old := prev.rows[i]; !sameRow(old, cur) {
			newPos := int32(len(snap.ids))
			for j := 0; j < arity; j++ {
				if !exactEqual(old[j], cur[j]) {
					p.edits[j] = append(p.edits[j], cellEdit{prevPos: int32(i), newPos: newPos})
				}
			}
		}
		snap.ids = append(snap.ids, id)
		snap.rows = append(snap.rows, cur)
	}
	// Appended rows: ids above the predecessor's range. IDs are assigned
	// monotonically and t.order only ever appends (compaction preserves
	// order), so the tail of t.order past the predecessor's last id is
	// exactly the insertions, in insertion order.
	floor := TupleID(-1)
	if len(prev.ids) > 0 {
		floor = prev.ids[len(prev.ids)-1]
	}
	start := sort.Search(len(t.order), func(i int) bool { return t.order[i] > floor })
	for _, id := range t.order[start:] {
		if cur, ok := t.rows[id]; ok {
			snap.ids = append(snap.ids, id)
			snap.rows = append(snap.rows, cur)
			p.nAppend++
		}
	}
	if len(snap.ids) != n {
		return nil
	}
	if len(p.drops) > 0 {
		remap := make([]int32, len(prev.ids))
		d := 0
		for i := range remap {
			if d < len(p.drops) && p.drops[d] == int32(i) {
				remap[i] = -1
				d++
			} else {
				remap[i] = int32(i - d)
			}
		}
		p.remap = remap
	}
	// prev holds no link of its own (noteMutationLocked took it before prev
	// could become a base), so snapshots never chain.
	snap.patch.Store(p)
	buildOps.patchedSnapshots.Add(1)
	return snap
}

// buildColumn interns column j from the snapshot's rows: the batch build of
// one column, heading a fresh lineage with its lazy artifacts unbuilt.
func (s *Snapshot) buildColumn(j int) *Column {
	c := newColumn(len(s.rows))
	for _, row := range s.rows {
		c.codes = append(c.codes, c.acquire(row[j]))
	}
	return c
}

// patchColumn derives column j of the patched snapshot from its
// predecessor pcol. Untouched columns are shared wholesale (lazy caches
// included — identical rows build identical artifacts); touched columns
// take the delta in O(delta) hashing: the code vector is spliced, the
// counts are copied, and the dictionary grows in place — pcol has this one
// in-place successor and never reads past its own lengths. Every other
// derivation is a fork (pcol is borrowed from the table a Clone forked,
// whose own next patch is that successor): it first clips the dictionary,
// Equal-class and key tables, so growing reallocates them, and copies the
// lookups pcol can see — O(distinct values) of the touched column, once.
// The predecessor's built lazy artifacts are carried over, so a warm
// serving path stays warm across mutations; those it never built stay lazy
// here too.
func (s *Snapshot) patchColumn(p *snapPatch, pcol *Column, j int, fork bool) *Column {
	edits := p.edits[j]
	if len(p.drops) == 0 && p.nAppend == 0 && len(edits) == 0 {
		buildOps.sharedColumns.Add(1)
		return pcol
	}
	dict, eq, in := pcol.dict, pcol.eq, pcol.in
	if fork {
		dict, eq, in = slices.Clip(dict), slices.Clip(eq), in.fork(len(dict))
	}
	grow := len(edits) + p.nAppend
	out := &Column{
		codes:     spliceU32(pcol.codes, p.drops, p.nAppend),
		dict:      dict,
		eq:        eq,
		counts:    append(make([]int32, 0, len(pcol.counts)+grow), pcol.counts...),
		clsCounts: append(make([]int32, 0, len(pcol.counts)+grow), pcol.clsCounts...),
		live:      pcol.live,
		in:        in,
		nullCode:  pcol.nullCode,
		trueCode:  pcol.trueCode,
		flsCode:   pcol.flsCode,
		nanCode:   pcol.nanCode,
	}
	out.in.mu.Lock()
	for _, d := range p.drops {
		out.release(pcol.codes[d])
	}
	for _, e := range edits {
		out.release(pcol.codes[e.prevPos])
		out.codes[e.newPos] = out.acquire(s.rows[e.newPos][j])
	}
	for _, row := range s.rows[len(s.rows)-p.nAppend:] {
		out.codes = append(out.codes, out.acquire(row[j]))
	}
	out.in.mu.Unlock()
	if len(out.dict)-out.live > deadLimit(out.live) {
		// Compaction: too many dead codes, re-intern the column.
		buildOps.internedCells.Add(int64(len(s.rows)))
		buildOps.rebuiltColumns.Add(1)
		return s.buildColumn(j)
	}
	buildOps.internedCells.Add(int64(p.nAppend))
	buildOps.patchedCells.Add(int64(len(p.drops) + len(edits) + p.nAppend))
	buildOps.patchedColumns.Add(1)

	sameClasses := false
	if pcol.pliReady.Load() {
		sameClasses = s.patchPLI(p, pcol, out, edits)
	}
	if pcol.probeReady.Load() {
		out.EqProbe()
	}
	if pcol.keysReady.Load() {
		out.keysOnce.Do(func() {
			// Like dict, the key table grows in place past pcol's length.
			keys := pcol.keys
			if fork {
				keys = slices.Clip(keys)
			}
			for _, v := range out.dict[len(keys):] {
				keys = append(keys, v.Key())
			}
			out.keys = keys
			out.keysReady.Store(true)
		})
	}
	if pcol.orderReady.Load() && sameClasses {
		// Same classes at the same indices: the key-sorted class
		// enumeration is unchanged and can be shared.
		out.orderOnce.Do(func() {
			out.classOrder = pcol.classOrder
			out.orderReady.Store(true)
		})
	}
	return out
}

// patchPLI derives out's PLI from pcol's. Classes are listed by first row,
// so the classes the delta leaves alone keep their relative order and only
// the touched ones — rows moved in or out, a member dropped, a novel or
// revived Equal-class — are re-formed and merged back in by their new
// first row; a class left without rows disappears. It reports whether
// every class kept its index, i.e. the class list is pcol's.
func (s *Snapshot) patchPLI(p *snapPatch, pcol, out *Column, edits []cellEdit) bool {
	n, oldP := len(s.rows), pcol.pli
	newPos := func(pos int32) int32 {
		if p.remap == nil {
			return pos
		}
		return p.remap[pos]
	}
	oldClass := func(canon uint32) int32 {
		if int(canon) >= len(pcol.pliClassOf) {
			return -1
		}
		return pcol.pliClassOf[canon]
	}
	// The touched Equal-classes, by canonical code, each with the new
	// positions joining it (ascending: edits precede the appended tail).
	touched := map[uint32][]int32{}
	touch := func(canon uint32, joining ...int32) { touched[canon] = append(touched[canon], joining...) }
	for _, d := range p.drops {
		touch(pcol.eq[pcol.codes[d]])
	}
	for _, e := range edits {
		oldEq, newEq := pcol.eq[pcol.codes[e.prevPos]], out.eq[out.codes[e.newPos]]
		if oldEq != newEq { // else same Equal-class: membership unchanged
			touch(oldEq)
			touch(newEq, e.newPos)
		}
	}
	for pos := n - p.nAppend; pos < n; pos++ {
		touch(out.eq[out.codes[pos]], int32(pos))
	}
	// Re-form them — the members that stayed, merged with the joiners —
	// and mark them in classOf so the emit loop skips their old selves.
	const touchedMark = -2
	classOf := make([]int32, len(out.dict))
	for i := range classOf {
		classOf[i] = -1
	}
	type class struct {
		canon uint32
		rows  []int32
	}
	var formed []class
	for canon, add := range touched {
		classOf[canon] = touchedMark
		var old []int32
		if cl := oldClass(canon); cl >= 0 {
			old = oldP.Class(int(cl))
		}
		rows := make([]int32, 0, len(old)+len(add))
		for _, pos := range old {
			if pos = newPos(pos); pos < 0 || out.eq[out.codes[pos]] != canon {
				continue // dropped, or edited out of the class
			}
			for ; len(add) > 0 && add[0] < pos; add = add[1:] {
				rows = append(rows, add[0])
			}
			rows = append(rows, pos)
		}
		if rows = append(rows, add...); len(rows) > 0 {
			formed = append(formed, class{canon, rows})
		}
	}
	slices.SortFunc(formed, func(a, b class) int { return int(a.rows[0] - b.rows[0]) })

	// Emit: untouched classes in their old order, each preceded by the
	// re-formed classes that now start before it.
	elems := make([]int32, 0, n)
	offsets := make([]int32, 1, oldP.NumClasses()+len(formed)+1)
	same := true
	emit := func(canon uint32, rows []int32) {
		cl := int32(len(offsets) - 1)
		same = same && oldClass(canon) == cl
		classOf[canon] = cl
		elems = append(elems, rows...)
		offsets = append(offsets, int32(len(elems)))
	}
	for c := 0; c < oldP.NumClasses(); c++ {
		rows := oldP.Class(c)
		canon := pcol.eq[pcol.codes[rows[0]]]
		if classOf[canon] != -1 {
			continue // touched: emitted from formed, or emptied
		}
		for ; len(formed) > 0 && formed[0].rows[0] < newPos(rows[0]); formed = formed[1:] {
			emit(formed[0].canon, formed[0].rows)
		}
		at := len(elems)
		emit(canon, rows)
		if p.remap != nil {
			for i, pos := range elems[at:] {
				elems[at+i] = p.remap[pos]
			}
		}
	}
	for _, f := range formed {
		emit(f.canon, f.rows)
	}
	for canon := range touched {
		if classOf[canon] == touchedMark {
			classOf[canon] = -1 // the class emptied
		}
	}
	out.pliOnce.Do(func() {
		out.pli = &Partition{n: n, elems: elems, offsets: offsets}
		out.pliClassOf = classOf
		out.pliReady.Store(true)
	})
	buildOps.pliPatches.Add(1)
	return same && len(offsets) == len(oldP.offsets)
}

// spliceU32 copies src with the (ascending) drop positions removed, leaving
// extra capacity for appends.
func spliceU32(src []uint32, drops []int32, extra int) []uint32 {
	out := make([]uint32, 0, len(src)-len(drops)+extra)
	prev := 0
	for _, d := range drops {
		out = append(out, src[prev:d]...)
		prev = int(d) + 1
	}
	return append(out, src[prev:]...)
}

// Build-operation counters: the machine-checkable face of the O(delta)
// claim. Wall-clock comparisons are forbidden by the 1-CPU rule, so the
// unit tests assert on these instead — a warm serving path that patches
// 100 edits must intern ~100 cells, not 7M.
var buildOps struct {
	internedCells    atomic.Int64
	patchedCells     atomic.Int64
	batchSnapshots   atomic.Int64
	patchedSnapshots atomic.Int64
	sharedColumns    atomic.Int64
	patchedColumns   atomic.Int64
	rebuiltColumns   atomic.Int64
	batchColumns     atomic.Int64
	pliBuilds        atomic.Int64
	pliPatches       atomic.Int64
}

// BuildOps is a monotone snapshot of the package's artifact-build counters.
// Subtract two snapshots to cost an operation.
type BuildOps struct {
	// InternedCells counts cells run through the dictionary interner — the
	// hash-and-allocate unit of a batch column build.
	InternedCells int64 `json:"interned_cells"`
	// PatchedCells counts delta ops applied by the column patcher (drops,
	// pokes and tail appends).
	PatchedCells     int64 `json:"patched_cells"`
	BatchSnapshots   int64 `json:"batch_snapshots"`
	PatchedSnapshots int64 `json:"patched_snapshots"`
	SharedColumns    int64 `json:"shared_columns"`
	PatchedColumns   int64 `json:"patched_columns"`
	RebuiltColumns   int64 `json:"rebuilt_columns"`
	BatchColumns     int64 `json:"batch_columns"`
	PLIBuilds        int64 `json:"pli_builds"`
	PLIPatches       int64 `json:"pli_patches"`
}

// ReadBuildOps returns the current counter values.
func ReadBuildOps() BuildOps {
	return BuildOps{
		InternedCells:    buildOps.internedCells.Load(),
		PatchedCells:     buildOps.patchedCells.Load(),
		BatchSnapshots:   buildOps.batchSnapshots.Load(),
		PatchedSnapshots: buildOps.patchedSnapshots.Load(),
		SharedColumns:    buildOps.sharedColumns.Load(),
		PatchedColumns:   buildOps.patchedColumns.Load(),
		RebuiltColumns:   buildOps.rebuiltColumns.Load(),
		BatchColumns:     buildOps.batchColumns.Load(),
		PLIBuilds:        buildOps.pliBuilds.Load(),
		PLIPatches:       buildOps.pliPatches.Load(),
	}
}

// Sub returns the element-wise difference o - prev.
func (o BuildOps) Sub(prev BuildOps) BuildOps {
	return BuildOps{
		InternedCells:    o.InternedCells - prev.InternedCells,
		PatchedCells:     o.PatchedCells - prev.PatchedCells,
		BatchSnapshots:   o.BatchSnapshots - prev.BatchSnapshots,
		PatchedSnapshots: o.PatchedSnapshots - prev.PatchedSnapshots,
		SharedColumns:    o.SharedColumns - prev.SharedColumns,
		PatchedColumns:   o.PatchedColumns - prev.PatchedColumns,
		RebuiltColumns:   o.RebuiltColumns - prev.RebuiltColumns,
		BatchColumns:     o.BatchColumns - prev.BatchColumns,
		PLIBuilds:        o.PLIBuilds - prev.PLIBuilds,
		PLIPatches:       o.PLIPatches - prev.PLIPatches,
	}
}
