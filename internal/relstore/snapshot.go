// Versioned read snapshots: an immutable, pinned view of a Table that every
// read path (the detect engines, the streaming pipeline, audit, explore and
// the SQL engine's base-table loads) scans instead of the live row store.
//
// The design leans on two invariants:
//
//   - stored rows are copy-on-write: Insert, Update and SetCell never mutate
//     a Tuple that has ever been stored (SetCell clones the row and swaps
//     the clone in), so a snapshot only needs to copy the id order and the
//     row *references* — building one is O(n) pointer copies, not a deep
//     copy of the data;
//   - snapshots are version-cached on the table: every reader of an
//     unchanged table shares one Snapshot, and the Columnar view is built
//     lazily from it (same version, rows, insertion order) — or arrives
//     with it, when a bulk load interned the columns (tableFromColumns).
//
// A reader that works off one Snapshot is guaranteed a single table
// version end to end: concurrent writers keep mutating the live table, but
// they produce new row slices and a new version; the pinned view never
// changes. This is the read-optimized immutable-representation idea of the
// FDB storage engine literature applied to the paper's data monitor: live
// traffic updates the store while detection, audit and SQL queries run,
// and every produced report names the exact version it reflects.
package relstore

import (
	"sync"
	"sync/atomic"

	"semandaq/internal/schema"
)

// Snapshot is an immutable view of one table version. All methods are safe
// for concurrent use by any number of goroutines; none of them observe
// later mutations of the source table.
type Snapshot struct {
	schema  *schema.Relation
	version int64
	ids     []TupleID
	rows    []Tuple // parallel to ids; rows are COW-frozen, never mutated

	// byID is the id -> position index, built on first Get.
	byIDOnce sync.Once
	byID     map[TupleID]int

	// col is the columnar decomposition, built on first Columnar call and
	// shared by every columnar reader of this version.
	colOnce sync.Once
	col     *Columnar

	// patch, when non-nil, links this snapshot to a predecessor and the
	// delta separating them, so Columnar() can derive the columnar view by
	// patching the predecessor's instead of re-interning every cell
	// (patch.go). Whoever swaps the link out owns it, and with it the right
	// to grow the predecessor's columns in place: Columnar() when it builds
	// this snapshot's view, or the table's next mutation when nobody asked
	// for the view — the link's base then serves the next snapshot
	// (noteMutationLocked), and a late Columnar() here batch-builds.
	patch atomic.Pointer[snapPatch]
	// colReady mirrors colOnce: set (with release semantics) once col is
	// built, so the patcher can ask whether a predecessor's columnar view
	// exists without racing a concurrent builder.
	colReady atomic.Bool
}

// Schema returns the snapshot's relation schema.
func (s *Snapshot) Schema() *schema.Relation { return s.schema }

// Version returns the table version the snapshot pins.
func (s *Snapshot) Version() int64 { return s.version }

// Len returns the number of live tuples in the snapshot.
func (s *Snapshot) Len() int { return len(s.ids) }

// IDs returns the tuple IDs in insertion order. The slice is the snapshot's
// backing storage: callers must not mutate it.
func (s *Snapshot) IDs() []TupleID { return s.ids }

// Row returns the i-th tuple in insertion order. The returned Tuple is
// frozen (copy-on-write protected); callers must not mutate it.
func (s *Snapshot) Row(i int) Tuple { return s.rows[i] }

// Rows returns the snapshot's tuples in insertion order, parallel to
// IDs(). Unlike the old Table.Rows, this is O(1): the slice and the
// tuples are the snapshot's frozen backing storage, and callers must not
// mutate either.
func (s *Snapshot) Rows() []Tuple { return s.rows }

// Get returns the tuple with the given ID as of this snapshot's version.
// The returned Tuple is frozen; callers must not mutate it.
func (s *Snapshot) Get(id TupleID) (Tuple, bool) {
	s.byIDOnce.Do(func() {
		m := make(map[TupleID]int, len(s.ids))
		for i, tid := range s.ids {
			m[tid] = i
		}
		s.byID = m
	})
	i, ok := s.byID[id]
	if !ok {
		return nil, false
	}
	return s.rows[i], true
}

// Scan calls fn for every tuple in insertion order. The rows are frozen;
// they must not be mutated. Returning false stops the scan early.
func (s *Snapshot) Scan(fn func(id TupleID, row Tuple) bool) {
	for i, id := range s.ids {
		if !fn(id, s.rows[i]) {
			return
		}
	}
}

// Columnar returns the columnar decomposition of this snapshot, built on
// first use and shared by every caller. It carries the same version, rows
// and insertion order as the snapshot itself, so mixing row reads and
// columnar reads off one Snapshot stays single-version consistent.
//
// When the snapshot was derived from a predecessor by patching and the
// predecessor's columnar view was built, the view is patched too — the
// delta contract (docs/INCREMENTAL.md) guarantees no reader can tell the
// result from the batch build below.
func (s *Snapshot) Columnar() *Columnar {
	s.colOnce.Do(func() {
		col := &Columnar{
			schema:  s.schema,
			version: s.version,
			ids:     s.ids,
			cols:    make([]*Column, s.schema.Arity()),
		}
		var pc *Columnar
		p := s.patch.Swap(nil)
		if p != nil {
			pc = p.prev.builtColumnar()
		}
		if pc != nil {
			// Patch each column in turn: a patch is microseconds of work,
			// less than the goroutine the batch build gives each column.
			// A column pc borrowed stays borrowed while it is shared.
			if pc.borrowed != nil {
				col.borrowed = make([]bool, len(col.cols))
			}
			for j := range col.cols {
				fork := pc.borrowed != nil && pc.borrowed[j]
				col.cols[j] = s.patchColumn(p, pc.cols[j], j, fork)
				if fork {
					col.borrowed[j] = col.cols[j] == pc.cols[j]
				}
			}
		} else {
			// Columns intern independently, so the build fans out one goroutine
			// per attribute (the interleaved single-pass alternative defeats the
			// branch predictor and the per-column map locality).
			var wg sync.WaitGroup
			for j := range col.cols {
				wg.Add(1)
				go func(j int) {
					defer wg.Done()
					col.cols[j] = s.buildColumn(j)
				}(j)
			}
			wg.Wait()
			buildOps.internedCells.Add(int64(len(s.rows) * len(col.cols)))
			buildOps.batchColumns.Add(int64(len(col.cols)))
		}
		s.col = col
		s.colReady.Store(true)
	})
	return s.col
}

// setColumnar hands the snapshot a columnar view built elsewhere — by a bulk
// loader, or borrowed from the table a Clone forked — before it is published.
func (s *Snapshot) setColumnar(cols []*Column, borrowed []bool) {
	s.colOnce.Do(func() {
		s.col = &Columnar{schema: s.schema, version: s.version, ids: s.ids, cols: cols, borrowed: borrowed}
		s.colReady.Store(true)
	})
}

// builtColumnar returns the columnar view iff it has already been built,
// never triggering a build itself.
func (s *Snapshot) builtColumnar() *Columnar {
	if s.colReady.Load() {
		return s.col
	}
	return nil
}

// Snapshot returns the pinned read view of the table's current version,
// building it on first use and reusing the cached view until the table
// mutates. The result is immutable and safe to share across goroutines;
// building it costs O(n) pointer copies (rows are copy-on-write, never
// deep-copied).
func (t *Table) Snapshot() *Snapshot {
	t.mu.RLock()
	if snap := t.snap; snap != nil && snap.version == t.version {
		t.mu.RUnlock()
		return snap
	}
	t.mu.RUnlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snapshotLocked()
}

// snapshotLocked is Snapshot under t.mu held for writing.
func (t *Table) snapshotLocked() *Snapshot {
	if snap := t.snap; snap != nil && snap.version == t.version {
		return snap
	}
	var snap *Snapshot
	if t.prev != nil {
		snap = t.patchSnapshotLocked()
	}
	if snap == nil {
		snap = t.buildSnapshotLocked()
		buildOps.batchSnapshots.Add(1)
	}
	t.prev = nil
	t.npending = 0
	t.snap = snap
	return snap
}

// buildSnapshotLocked materializes the current version batch-wise. The
// caller holds t.mu (either mode; the build only reads).
func (t *Table) buildSnapshotLocked() *Snapshot {
	snap := &Snapshot{
		schema:  t.schema,
		version: t.version,
		ids:     make([]TupleID, 0, len(t.rows)),
		rows:    make([]Tuple, 0, len(t.rows)),
	}
	for _, id := range t.order {
		if row, ok := t.rows[id]; ok {
			snap.ids = append(snap.ids, id)
			snap.rows = append(snap.rows, row)
		}
	}
	return snap
}

// tableFromColumns returns the table whose rows a bulk loader has interned
// into cols (one per attribute, equal lengths), as n Inserts would leave it
// — ids 0..n-1, version n, where its change log starts — plus what the first
// read would build: the pinned Snapshot with cols as its columnar view. Rows
// are allocated one by one: a shared array would stay live for its last row.
func tableFromColumns(sc *schema.Relation, cols []*Column) *Table {
	n := cols[0].Len()
	t := NewTable(sc)
	snap := &Snapshot{schema: sc, version: int64(n), ids: make([]TupleID, n), rows: make([]Tuple, n)}
	t.rows, t.order, t.snap = make(map[TupleID]Tuple, n), make([]TupleID, n), snap
	t.nextID, t.version, t.chfloor = TupleID(n), snap.version, snap.version
	for i := range snap.rows {
		row := make(Tuple, len(cols))
		for j, c := range cols {
			row[j] = c.dict[c.codes[i]]
		}
		id := TupleID(i)
		t.rows[id], t.order[i], snap.ids[i], snap.rows[i] = row, id, id, row
	}
	snap.setColumnar(cols, nil)
	buildOps.internedCells.Add(int64(n * len(cols)))
	buildOps.batchColumns.Add(int64(len(cols)))
	buildOps.batchSnapshots.Add(1)
	return t
}

// RebuildSnapshot builds a fresh, batch-built snapshot of the current
// version, bypassing both the version cache and the delta patcher. It is
// the cold side of the snapshot oracle — every artifact a patched snapshot
// serves must equal what this one builds, dictionary codes up to renaming.
// Serving paths use Snapshot.
func (t *Table) RebuildSnapshot() *Snapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	buildOps.batchSnapshots.Add(1)
	return t.buildSnapshotLocked()
}

// Columnar returns the columnar snapshot of the table's current version. It
// is the columnar face of Snapshot(): same cache, same version, same rows.
func (t *Table) Columnar() *Columnar {
	return t.Snapshot().Columnar()
}
