// Versioned read snapshots: an immutable, pinned view of a Table that every
// read path (the detect engines, the streaming pipeline, audit, explore and
// the SQL engine's base-table loads) scans instead of the live table.
//
// A Snapshot is one member of the table's column lineage: ids plus the
// Columnar decomposition, which is the only copy of the data. Rows are a
// view over it, decoded from the dictionaries on demand. The design leans on
// two invariants:
//
//   - ids are strictly ascending: ids are assigned monotonically and a fold
//     only drops ids and appends new ones, so insertion order is id order
//     and Get finds a row by binary search;
//   - snapshots are version-cached on the table: every reader of an
//     unchanged table shares one Snapshot, and the next version's is folded
//     from it and the table's write overlay (Table.foldLocked) — or arrives
//     with the table, when a bulk load interned the columns.
//
// A reader that works off one Snapshot is guaranteed a single table
// version end to end: concurrent writers keep mutating the live table's
// overlay, and the next fold derives new columns instead of touching these.
// This is the read-optimized immutable-representation idea of the FDB
// storage engine literature applied to the paper's data monitor: live
// traffic updates the store while detection, audit and SQL queries run,
// and every produced report names the exact version it reflects.
package relstore

import (
	"slices"

	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// Snapshot is an immutable view of one table version. All methods are safe
// for concurrent use by any number of goroutines; none of them observe
// later mutations of the source table.
type Snapshot struct {
	c Columnar
}

// Schema returns the snapshot's relation schema.
func (s *Snapshot) Schema() *schema.Relation { return s.c.schema }

// Version returns the table version the snapshot pins.
func (s *Snapshot) Version() int64 { return s.c.version }

// Len returns the number of live tuples in the snapshot.
func (s *Snapshot) Len() int { return len(s.c.ids) }

// IDs returns the tuple IDs in insertion order (ascending). The slice is the
// snapshot's backing storage: callers must not mutate it.
func (s *Snapshot) IDs() []TupleID { return s.c.ids }

// Row returns the i-th tuple in insertion order, freshly decoded.
func (s *Snapshot) Row(i int) Tuple { return s.c.Row(i) }

// Rows returns the snapshot's tuples in insertion order, parallel to IDs(),
// freshly decoded into one backing array: a kept row keeps all of them.
func (s *Snapshot) Rows() []Tuple {
	a := len(s.c.cols)
	cells := make([]types.Value, 0, len(s.c.ids)*a)
	rows := make([]Tuple, len(s.c.ids))
	for i := range rows {
		cells = s.c.appendRow(cells, i)
		rows[i] = Tuple(cells[i*a : (i+1)*a : (i+1)*a])
	}
	return rows
}

// pos returns the position of id, by binary search over the ascending ids.
func (s *Snapshot) pos(id TupleID) (int, bool) { return slices.BinarySearch(s.c.ids, id) }

// Get returns a freshly decoded copy of the tuple with the given ID as of
// this snapshot's version.
func (s *Snapshot) Get(id TupleID) (Tuple, bool) {
	i, ok := s.pos(id)
	if !ok {
		return nil, false
	}
	return s.c.Row(i), true
}

// Scan calls fn for every tuple in insertion order; returning false stops
// the scan early. Each row is decoded into one buffer reused across the
// scan: it is valid only during the callback, which must copy what it keeps
// and must not mutate it.
func (s *Snapshot) Scan(fn func(id TupleID, row Tuple) bool) {
	row := make(Tuple, 0, len(s.c.cols))
	for i, id := range s.c.ids {
		if !fn(id, s.c.appendRow(row, i)) {
			return
		}
	}
}

// Columnar returns the columnar decomposition of this snapshot: the same
// version, ids and data, shared by every caller.
func (s *Snapshot) Columnar() *Columnar { return &s.c }

// Snapshot returns the pinned read view of the table's current version,
// folding the write overlay into it on the first read after a mutation and
// reusing it until the table mutates again. The result is immutable and
// safe to share across goroutines.
func (t *Table) Snapshot() *Snapshot {
	t.mu.RLock()
	if b := t.base; b.c.version == t.version {
		t.mu.RUnlock()
		return b
	}
	t.mu.RUnlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.base.c.version != t.version {
		t.foldLocked()
	}
	return t.base
}

// tableFromColumns returns the table whose rows a bulk loader has interned
// into cols (one per attribute, equal lengths), as n Inserts and a read
// would leave it — ids 0..n-1, version n, where its change log starts — with
// cols as its lineage.
func tableFromColumns(sc *schema.Relation, cols []*Column) *Table {
	n := cols[0].Len()
	ids := make([]TupleID, n)
	for i := range ids {
		ids[i] = TupleID(i)
	}
	buildOps.internedCells.Add(int64(n * len(cols)))
	buildOps.batchColumns.Add(int64(len(cols)))
	buildOps.batchSnapshots.Add(1)
	v := int64(n)
	return &Table{schema: sc, base: &Snapshot{c: Columnar{schema: sc, version: v, ids: ids, cols: cols}},
		over: map[TupleID]int32{}, live: n, nextID: TupleID(n), version: v, chfloor: v}
}
