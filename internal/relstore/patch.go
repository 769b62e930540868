// Delta folding: a table stores its data once, as the column lineage of its
// latest snapshot plus a write overlay (store.go), and the first read after a
// mutation folds the overlay into the next lineage member — dictionaries,
// code vectors and counts patched in O(delta) hashing — instead of
// re-interning every cell of every column. No partition is patched: the
// fold keeps none, since every run builds the classes it reads (pli.go).
// The overlay's keys are the touched rows, so the fold never diffs the rows
// it did not touch.
//
// Every delta patches; there is no case the patcher hands back. Exact
// dictionary codes are stable along a column's lineage (columnar.go): a
// row leaving a value decrements its count, a row taking one looks it up
// and increments, a novel value takes the next code, a dead code is
// revived by its value. So a patched column equals a batch build of the
// same rows up to a renaming of codes, and the contract is on what a
// consumer can observe — rows, ids, stored values, the Equal-class
// partition, its one-column partitions (classes by first row, rows
// ascending: history-free, so built to the very bytes a batch build's
// give), class representatives and statistics are exactly the batch
// build's. Dead codes are bounded: past compactDead below the column is
// re-interned from its own values, which starts a fresh lineage.
//
// The oracle (oracle.go, the fuzz targets and the cross-check tests) holds
// the fold to the contract at every intermediate version, comparing against
// BuildSnapshot of a naive row model under the code bijection the rows
// induce.
package relstore

import (
	"slices"
	"sync/atomic"

	"semandaq/internal/types"
)

const (
	// compactDead is the dead-code allowance: a patched column whose dead
	// codes outnumber compactDead plus an eighth of its live ones (see
	// deadLimit) is compacted — re-interned from its values — so churn
	// cannot grow a dictionary past 1.125 x live + compactDead entries.
	// The flat part keeps a low-cardinality column from paying an O(rows)
	// compaction for every value that dies.
	compactDead = 64
)

// deadLimit is how many dead codes a column with live distinct values may
// carry before it is compacted.
func deadLimit(live int) int { return live/8 + compactDead }

// noteMutationLocked is the single mutation epilogue: it advances the
// version, so the next Snapshot() folds the overlay and every cache keyed
// by version invalidates. Caller holds t.mu.
func (t *Table) noteMutationLocked() {
	t.version++
}

// snapPatch is the overlay of one fold in the coordinates the column
// patcher consumes: drops are ascending predecessor row positions that were
// removed, edits[j] are the in-place cell changes of column j at surviving
// rows (ascending), and tail holds the nAppend rows appended at the end,
// arity cells each.
type snapPatch struct {
	drops   []int32
	edits   [][]cellEdit
	nAppend int
	tail    []types.Value
}

// cellEdit is one surviving row whose cell in some column changed its exact
// stored representation, addressed in both coordinate systems, with the
// value it takes.
type cellEdit struct {
	prevPos int32 // row position in the predecessor snapshot
	newPos  int32 // row position in the patched snapshot
	v       types.Value
}

// foldLocked folds the overlay into the next lineage member at the table's
// version and makes it the base. It reads only the overlay's rows: written
// and deleted ids are located by binary search in the base, inserted ones
// append. The fold moves data, it does not change it, so the version stays
// put. Caller holds t.mu for writing.
func (t *Table) foldLocked() {
	base, arity := &t.base.c, t.schema.Arity()
	p := &snapPatch{edits: make([][]cellEdit, arity)}
	var written []int32 // base positions of the rows the overlay holds
	for id := range t.over {
		if i, ok := t.base.pos(id); ok {
			written = append(written, int32(i))
		}
	}
	slices.Sort(written)
	for _, i := range written {
		k := t.over[base.ids[i]]
		if k < 0 {
			p.drops = append(p.drops, i)
			continue
		}
		newPos := i - int32(len(p.drops))
		for j, v := range t.vals[int(k)*arity : int(k+1)*arity] {
			if base.cols[j].cell(int(i)) != v {
				p.edits[j] = append(p.edits[j], cellEdit{prevPos: i, newPos: newPos, v: v})
			}
		}
	}
	ids := base.ids
	if len(p.drops) > 0 || len(t.order) > 0 {
		ids = splice(base.ids, p.drops, len(t.order))
		for _, id := range t.order {
			if k := t.over[id]; k >= 0 {
				ids = append(ids, id)
				p.tail = append(p.tail, t.vals[int(k)*arity:int(k+1)*arity]...)
			}
		}
		p.nAppend = len(ids) - (len(base.ids) - len(p.drops))
	}
	// Patch each column in turn: a patch is microseconds of work. A column
	// the base borrowed stays borrowed while it is shared.
	next := Columnar{schema: t.schema, version: t.version, ids: ids, cols: make([]*Column, arity)}
	if base.borrowed != nil {
		next.borrowed = make([]bool, arity)
	}
	for j, pcol := range base.cols {
		fork := base.borrowed != nil && base.borrowed[j]
		next.cols[j] = p.patchColumn(pcol, j, fork)
		if fork {
			next.borrowed[j] = next.cols[j] == pcol
		}
	}
	t.base = &Snapshot{c: next}
	t.over, t.vals, t.order = map[TupleID]int32{}, nil, nil
	buildOps.patchedSnapshots.Add(1)
}

// buildColumn interns n values into a fresh column heading a new lineage,
// with its lazy artifacts unbuilt: the batch build of one column.
func buildColumn(n int, at func(i int) types.Value) *Column {
	c := newColumn(n)
	for i := range n {
		c.codes = append(c.codes, c.acquire(at(i)))
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
func (p *snapPatch) patchColumn(pcol *Column, j int, fork bool) *Column {
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
		codes:     splice(pcol.codes, p.drops, p.nAppend),
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
		out.codes[e.newPos] = out.acquire(e.v)
	}
	for r := j; r < len(p.tail); r += len(p.edits) {
		out.codes = append(out.codes, out.acquire(p.tail[r]))
	}
	out.in.mu.Unlock()
	if len(out.dict)-out.live > deadLimit(out.live) {
		// Compaction: too many dead codes, re-intern the column.
		buildOps.internedCells.Add(int64(out.Len()))
		buildOps.rebuiltColumns.Add(1)
		return buildColumn(out.Len(), out.cell)
	}
	buildOps.internedCells.Add(int64(p.nAppend))
	buildOps.patchedCells.Add(int64(len(p.drops) + len(edits) + p.nAppend))
	buildOps.patchedColumns.Add(1)

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
	return out
}

// splice copies src with the (ascending) drop positions removed, leaving
// extra capacity for appends.
func splice[T any](src []T, drops []int32, extra int) []T {
	out := make([]T, 0, len(src)-len(drops)+extra)
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
	classBuilds      atomic.Int64
	intersects       atomic.Int64
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
	// PLIBuilds counts EqClasses built on one column, a run's one-column
	// partition. PLIPatches is always 0: the fold patches no partition. It
	// stays while the benchmark's trace reads it.
	PLIBuilds  int64 `json:"pli_builds"`
	PLIPatches int64 `json:"pli_patches"`
	// ClassBuilds counts the other EqClasses builds, Intersects calls of
	// Partition.Intersect.
	ClassBuilds int64 `json:"class_builds"`
	Intersects  int64 `json:"intersects"`
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
		ClassBuilds:      buildOps.classBuilds.Load(),
		Intersects:       buildOps.intersects.Load(),
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
		ClassBuilds:      o.ClassBuilds - prev.ClassBuilds,
		Intersects:       o.Intersects - prev.Intersects,
	}
}
