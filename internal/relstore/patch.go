// Delta patching of version-cached read artifacts: when a table mutates a
// little and is then read, the new Snapshot — and, transitively, its
// columnar dictionaries, code vectors and per-column PLI partitions — is
// derived from the previous version's caches by applying the delta, instead
// of re-interning every cell of every column.
//
// The contract is byte-identity: a patched artifact must be
// indistinguishable (DeepEqual on every observable field, including
// occurrence bookkeeping and class order) from what the batch builders in
// snapshot.go / columnar.go / pli.go would produce for the same version.
// The patcher therefore only patches when it can prove identity cheaply and
// falls back — per column — to a rebuild otherwise:
//
//   - dictionary codes are assigned in first-occurrence order, so any
//     removal of a value's first occurrence, or an edit that would move a
//     first occurrence earlier, forces a column rebuild (the whole dict
//     numbering could shift);
//   - appended rows are interned normally at the tail, which is exactly
//     where the batch build would discover novel values, so appends always
//     patch;
//   - PLI classes are listed in first-occurrence order of the Equal-class
//     and the dictionary guards keep every class's first occurrence alive,
//     so class order survives patching and touched classes are edited by
//     member splicing.
//
// The oracle (oracle.go, the fuzz targets and the cross-check tests) holds
// the patcher to the contract: patched state is compared field-by-field
// against Table.RebuildSnapshot at every intermediate version.
package relstore

import (
	"maps"
	"sort"
	"sync"
	"sync/atomic"
)

const (
	// maxPatchOps caps how many logged cell/row ops a retained predecessor
	// snapshot may bridge before patching is abandoned: past that, the
	// batch rebuild is no slower and the op bookkeeping stops paying.
	maxPatchOps = 4096
	// maxChangeLog bounds the ChangesSince log; on overflow the oldest
	// half is evicted and the floor advances.
	maxChangeLog = 4096
)

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
func (t *Table) noteMutationLocked(cols ...int32) {
	if t.snap != nil {
		t.prev = t.snap
		t.npending = 0
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
// dropped rows.
type snapPatch struct {
	prev    *Snapshot
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
	p := &snapPatch{prev: prev, edits: make([][]cellEdit, arity)}
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
	// Sever the predecessor's own patch link: at most one link is ever
	// live, so superseded snapshots (and their retained predecessors)
	// become collectable as soon as readers let go.
	prev.patch.Store(nil)
	snap.patch.Store(p)
	buildOps.patchedSnapshots.Add(1)
	return snap
}

// patchedColumnar derives the columnar view from the predecessor's by
// patching each column independently (same fan-out as the batch build).
func (s *Snapshot) patchedColumnar(p *snapPatch, pc *Columnar) *Columnar {
	col := &Columnar{
		schema:  s.schema,
		version: s.version,
		ids:     s.ids,
		cols:    make([]*Column, len(pc.cols)),
	}
	var wg sync.WaitGroup
	for j := range col.cols {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			col.cols[j] = s.patchColumn(p, pc.cols[j], j)
		}(j)
	}
	wg.Wait()
	return col
}

// rebuildColumn is the per-column fallback: a fresh intern pass over the
// new snapshot's rows, exactly the batch build of this one column.
func (s *Snapshot) rebuildColumn(j int) *Column {
	c := newColumn(len(s.rows))
	for _, row := range s.rows {
		c.intern(row[j])
	}
	buildOps.internedCells.Add(int64(len(s.rows)))
	buildOps.rebuiltColumns.Add(1)
	return c
}

// patchColumn derives column j of the patched snapshot from its
// predecessor pcol. Untouched columns are shared wholesale (lazy caches
// included — identical rows build identical artifacts); touched columns
// are patched when the guards prove the batch build would produce the same
// dictionary numbering, and rebuilt otherwise.
func (s *Snapshot) patchColumn(p *snapPatch, pcol *Column, j int) *Column {
	edits := p.edits[j]
	if len(p.drops) == 0 && p.nAppend == 0 && len(edits) == 0 {
		buildOps.sharedColumns.Add(1)
		return pcol
	}
	oldCard := len(pcol.dict)

	// Guard pass. Dictionary codes are first-occurrence ordered, so the
	// patch is provably identical to a rebuild only if no first occurrence
	// is removed or moved earlier, no touched code's occurrence count can
	// reach zero, and no edit introduces a value absent from the dictionary
	// (its batch code would depend on its position). Any violation —
	// including the subtle ones — takes the per-column rebuild.
	var removals map[uint32]int32
	countRemoval := func(code uint32) {
		if removals == nil {
			removals = make(map[uint32]int32, len(p.drops)+len(edits))
		}
		removals[code]++
	}
	for _, d := range p.drops {
		code := pcol.codes[d]
		if pcol.first[code] == d {
			return s.rebuildColumn(j)
		}
		countRemoval(code)
	}
	type colEdit struct {
		prevPos, newPos  int32
		oldCode, newCode uint32
	}
	ces := make([]colEdit, len(edits))
	for i, e := range edits {
		oldCode := pcol.codes[e.prevPos]
		if pcol.first[oldCode] == e.prevPos {
			return s.rebuildColumn(j)
		}
		nc, ok := pcol.exactCode(s.rows[e.newPos][j])
		if !ok || e.prevPos < pcol.first[nc] {
			return s.rebuildColumn(j)
		}
		countRemoval(oldCode)
		ces[i] = colEdit{e.prevPos, e.newPos, oldCode, nc}
	}
	for code, rem := range removals {
		if pcol.counts[code] <= rem {
			// Unreachable while the first-occurrence guards hold (removing
			// every occurrence removes the first), kept as belt and braces:
			// an empty dict entry must not survive.
			return s.rebuildColumn(j)
		}
	}

	// Build: spliced code vector, shared dictionary (full slice
	// expressions, so tail growth reallocates instead of clobbering the
	// predecessor), cloned occurrence bookkeeping.
	n := len(s.rows)
	out := &Column{
		codes:      spliceU32(pcol.codes, p.drops, p.nAppend),
		dict:       pcol.dict[:oldCard:oldCard],
		eq:         pcol.eq[:oldCard:oldCard],
		counts:     append(make([]int32, 0, oldCard+4), pcol.counts...),
		first:      pcol.first[:oldCard:oldCard],
		byInt:      pcol.byInt,
		byFlt:      pcol.byFlt,
		byStr:      pcol.byStr,
		byNumClass: pcol.byNumClass,
		nullCode:   pcol.nullCode,
		trueCode:   pcol.trueCode,
		flsCode:    pcol.flsCode,
		nanCode:    pcol.nanCode,
	}
	if p.remap != nil {
		// Drops shift later positions down; first occurrences all survive
		// (guarded above), so the remap is total on them.
		first := make([]int32, oldCard)
		for c := range first {
			first[c] = p.remap[pcol.first[c]]
		}
		out.first = first
	}
	for _, d := range p.drops {
		out.counts[pcol.codes[d]]--
	}
	for _, e := range ces {
		out.codes[e.newPos] = e.newCode
		out.counts[e.oldCode]--
		out.counts[e.newCode]++
	}
	// Tail rows intern normally — exactly where the batch build would
	// discover novel values, so dictionary growth order matches. The
	// interner mutates the lookup maps, which are shared with the
	// predecessor: clone them first iff any tail value is novel.
	tail := s.rows[n-p.nAppend:]
	for _, row := range tail {
		if _, ok := pcol.exactCode(row[j]); !ok {
			out.byInt = maps.Clone(pcol.byInt)
			out.byFlt = maps.Clone(pcol.byFlt)
			out.byStr = maps.Clone(pcol.byStr)
			out.byNumClass = maps.Clone(pcol.byNumClass)
			break
		}
	}
	for _, row := range tail {
		out.intern(row[j])
	}
	buildOps.internedCells.Add(int64(p.nAppend))
	buildOps.patchedCells.Add(int64(len(p.drops) + len(ces) + p.nAppend))
	buildOps.patchedColumns.Add(1)

	s.patchColumnCaches(p, pcol, out, oldCard, func() [][2]int32 {
		moves := make([][2]int32, 0, len(ces))
		for _, e := range ces {
			moves = append(moves, [2]int32{e.prevPos, e.newPos})
		}
		return moves
	}())
	return out
}

// patchColumnCaches carries the predecessor's built lazy artifacts (PLI,
// probe vector, key table, class order) over to the patched column, so a
// warm serving path stays warm across mutations. Artifacts the predecessor
// never built stay lazy on the patched column too. moves lists the edited
// cells as (prevPos, newPos) pairs, both ascending.
func (s *Snapshot) patchColumnCaches(p *snapPatch, pcol, out *Column, oldCard int, moves [][2]int32) {
	n := len(s.rows)
	newEntries := len(out.dict) > oldCard

	var newCanon []uint32
	if pcol.pliReady.Load() {
		oldP := pcol.pli
		nOld := int32(oldP.NumClasses())

		// Route edited rows between classes. The dictionary guards ensure
		// class first occurrences survive and edits land after them, so
		// the class list keeps its first-occurrence order: surviving
		// classes in place, novel Equal-classes appended in tail order —
		// exactly the batch enumeration.
		classOf := make([]int32, len(out.dict))
		copy(classOf, pcol.pliClassOf)
		for i := oldCard; i < len(classOf); i++ {
			classOf[i] = -1
		}
		remOut := map[int32][]int32{}
		addIn := map[int32][]int32{}
		for _, mv := range moves {
			prevPos, newPos := mv[0], mv[1]
			oldEq := pcol.eq[pcol.codes[prevPos]]
			newEq := out.eq[out.codes[newPos]]
			if oldEq == newEq {
				continue // same Equal-class: membership unchanged
			}
			co, ci := pcol.pliClassOf[oldEq], pcol.pliClassOf[newEq]
			remOut[co] = append(remOut[co], prevPos)
			addIn[ci] = append(addIn[ci], newPos)
		}
		nClasses := nOld
		var newMembers [][]int32
		for pos := int32(n - p.nAppend); pos < int32(n); pos++ {
			eqc := out.eq[out.codes[pos]]
			switch cl := classOf[eqc]; {
			case cl < 0:
				classOf[eqc] = nClasses
				nClasses++
				newCanon = append(newCanon, eqc)
				newMembers = append(newMembers, []int32{pos})
			case cl < nOld:
				addIn[cl] = append(addIn[cl], pos)
			default:
				newMembers[cl-nOld] = append(newMembers[cl-nOld], pos)
			}
		}
		// Emit: splice each surviving class (skip removals, remap survivors,
		// merge additions — all position lists are ascending), then append
		// the novel classes.
		elems := make([]int32, 0, n)
		offsets := make([]int32, 1, nClasses+1)
		for c := int32(0); c < nOld; c++ {
			rem, add := remOut[c], addIn[c]
			ri, ai := 0, 0
			for _, pos := range oldP.Class(int(c)) {
				if ri < len(rem) && rem[ri] == pos {
					ri++
					continue
				}
				np := pos
				if p.remap != nil {
					if np = p.remap[pos]; np < 0 {
						continue
					}
				}
				for ai < len(add) && add[ai] < np {
					elems = append(elems, add[ai])
					ai++
				}
				elems = append(elems, np)
			}
			for ; ai < len(add); ai++ {
				elems = append(elems, add[ai])
			}
			offsets = append(offsets, int32(len(elems)))
		}
		for _, mem := range newMembers {
			elems = append(elems, mem...)
			offsets = append(offsets, int32(len(elems)))
		}
		out.pliOnce.Do(func() {
			out.pli = &Partition{n: n, elems: elems, offsets: offsets}
			out.pliClassCode = append(pcol.pliClassCode[:nOld:nOld], newCanon...)
			out.pliClassOf = classOf
			out.pliReady.Store(true)
		})
		buildOps.pliPatches.Add(1)
	}
	if pcol.probeReady.Load() {
		out.EqProbe()
	}
	if pcol.keysReady.Load() {
		out.keysOnce.Do(func() {
			keys := pcol.keys[:oldCard:oldCard]
			for _, v := range out.dict[oldCard:] {
				keys = append(keys, v.Key())
			}
			out.keys = keys
			out.keysReady.Store(true)
		})
	}
	if pcol.orderReady.Load() && !newEntries && len(newCanon) == 0 {
		// No new classes and no new dict entries: the key-sorted class
		// enumeration is unchanged and can be shared.
		out.orderOnce.Do(func() {
			out.classOrder = pcol.classOrder
			out.orderReady.Store(true)
		})
	}
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
