// Package relstore implements the in-memory relational store that stands in
// for the RDBMS at the bottom of the Semandaq architecture (Fig. 1 of the
// paper). It provides tables with stable tuple IDs, insert/delete/update,
// full scans, CSV import/export and copy-on-read snapshots.
//
// Tuple identity matters throughout Semandaq: the error detector attributes
// violation counts vio(t) to tuples, the repair algorithm edits cells
// (tuple ID, attribute), and the monitor tracks deltas. IDs are assigned
// once at insert time and never reused.
package relstore

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// TupleID identifies a tuple within a table for its whole life.
type TupleID int64

// Tuple is one row: a value per schema attribute.
type Tuple []types.Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Equal reports component-wise equality.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// KeyOn returns the grouping key of the tuple projected on positions. Each
// component is length-prefixed (types.Value.WriteGroupKey) so a value whose
// Key() contains the byte used as a separator cannot alias distinct
// projections into one key.
func (t Tuple) KeyOn(pos []int) string {
	var b strings.Builder
	for _, p := range pos {
		t[p].WriteGroupKey(&b)
	}
	return b.String()
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Table is a mutable relation instance. All methods are safe for concurrent
// use by multiple goroutines. Stored rows are copy-on-write: no mutation
// ever changes a Tuple in place once it has been stored, so read snapshots
// (Snapshot, Columnar) stay stable while writers proceed.
type Table struct {
	mu      sync.RWMutex
	schema  *schema.Relation
	rows    map[TupleID]Tuple
	order   []TupleID // insertion order, compacted lazily
	deleted int       // count of tombstones in order
	nextID  TupleID
	version int64 // bumped on every mutation; lets caches invalidate
	// snap caches the pinned read view built by Snapshot() for the current
	// version; mutations drop it so the memory is reclaimable immediately.
	snap *Snapshot
	// prev retains the last materialized snapshot across mutations, and
	// npending counts the ops applied since it was taken, so the next
	// Snapshot() call can derive the new view (and, transitively, its
	// columnar dictionaries and PLIs) by patching prev instead of an O(n)
	// batch rebuild (patch.go). prev is dropped once the delta grows past
	// patch-worthiness or a new snapshot supersedes it.
	prev     *Snapshot
	npending int
	// chlog is a bounded, version-ascending log of (version, column)
	// change records backing ChangesSince; chfloor is the newest version
	// whose records may have been evicted, i.e. queries reach back to it
	// but no further.
	chlog   []chRec
	chfloor int64
}

// NewTable creates an empty table with the given schema.
func NewTable(s *schema.Relation) *Table {
	return &Table{schema: s, rows: make(map[TupleID]Tuple)}
}

// Schema returns the table schema.
func (t *Table) Schema() *schema.Relation { return t.schema }

// Len returns the number of live tuples.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Version returns a counter that changes with every mutation.
func (t *Table) Version() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// Insert appends a tuple and returns its new ID. The tuple is copied.
func (t *Table) Insert(row Tuple) (TupleID, error) {
	if len(row) != t.schema.Arity() {
		return 0, fmt.Errorf("relstore: insert into %s: got %d values, want %d",
			t.schema.Name, len(row), t.schema.Arity())
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextID
	t.nextID++
	r := row.Clone()
	t.rows[id] = r
	t.order = append(t.order, id)
	t.noteMutationLocked(structuralChange)
	return id, nil
}

// MustInsert inserts and panics on arity mismatch; for tests and generators
// that construct rows from the schema itself.
func (t *Table) MustInsert(row Tuple) TupleID {
	id, err := t.Insert(row)
	if err != nil {
		panic(err)
	}
	return id
}

// Get returns a copy of the tuple with the given ID.
func (t *Table) Get(id TupleID) (Tuple, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	row, ok := t.rows[id]
	if !ok {
		return nil, false
	}
	return row.Clone(), true
}

// Delete removes the tuple with the given ID. It reports whether the tuple
// existed.
func (t *Table) Delete(id TupleID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.rows[id]; !ok {
		return false
	}
	delete(t.rows, id)
	t.deleted++
	if t.deleted > len(t.rows) && t.deleted > 64 {
		t.compactLocked()
	}
	// The note is the last write of the critical section so the mutation —
	// including any compaction — is fully logged before the lock drops
	// (mutationlog enforces this ordering).
	t.noteMutationLocked(structuralChange)
	return true
}

// Update replaces the whole tuple with the given ID.
func (t *Table) Update(id TupleID, row Tuple) error {
	if len(row) != t.schema.Arity() {
		return fmt.Errorf("relstore: update %s: got %d values, want %d",
			t.schema.Name, len(row), t.schema.Arity())
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old, ok := t.rows[id]
	if !ok {
		return fmt.Errorf("relstore: update %s: no tuple %d", t.schema.Name, id)
	}
	r := row.Clone()
	t.rows[id] = r
	// Log the columns whose stored representation actually changed —
	// exactEqual, not Equal: replacing INT 1 with FLOAT 1.0 re-shapes the
	// columnar dictionary even though the values compare Equal.
	var cols []int32
	for j := range r {
		if !exactEqual(old[j], r[j]) {
			cols = append(cols, int32(j))
		}
	}
	t.noteMutationLocked(cols...)
	return nil
}

// SetCell updates a single attribute of a tuple (a "cell", in repair-model
// terms) and returns the old value.
func (t *Table) SetCell(id TupleID, pos int, v types.Value) (types.Value, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	row, ok := t.rows[id]
	if !ok {
		return types.Null, fmt.Errorf("relstore: set cell in %s: no tuple %d", t.schema.Name, id)
	}
	if pos < 0 || pos >= len(row) {
		return types.Null, fmt.Errorf("relstore: set cell in %s: position %d out of range", t.schema.Name, pos)
	}
	old := row[pos]
	if old.Equal(v) {
		return old, nil
	}
	// Copy-on-write: the stored row may be shared by a pinned Snapshot (and
	// by any Scan callback running off one), so the cell update goes into a
	// fresh tuple and the map entry is swapped — the old row is never
	// touched.
	nrow := row.Clone()
	nrow[pos] = v
	t.rows[id] = nrow
	t.noteMutationLocked(int32(pos))
	return old, nil
}

// compactLocked drops tombstones from the order slice. Caller holds mu and
// must call noteMutationLocked afterwards (Delete does): the compaction is
// representation-preserving — live ids keep their relative order and every
// row survives — but it rewrites t.order, and the version must advance
// before the lock drops so cached artifacts are never rebuilt against a
// silently reshaped order slice.
//
//semandaq:vet-ignore mutationlog the caller's epilogue logs the enclosing delete; see above
func (t *Table) compactLocked() {
	live := t.order[:0]
	for _, id := range t.order {
		if _, ok := t.rows[id]; ok {
			live = append(live, id)
		}
	}
	t.order = live
	t.deleted = 0
}

// Scan calls fn for every live tuple in insertion order. The whole scan
// observes one table version: it walks the pinned read view (Snapshot), so
// concurrent mutations neither tear the iteration nor change a row mid-
// callback. The rows are frozen (copy-on-write protected); the callback
// must not mutate them.
func (t *Table) Scan(fn func(id TupleID, row Tuple) bool) {
	t.Snapshot().Scan(fn)
}

// IDs returns the live tuple IDs in insertion order.
func (t *Table) IDs() []TupleID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ids := make([]TupleID, 0, len(t.rows))
	for _, id := range t.order {
		if _, ok := t.rows[id]; ok {
			ids = append(ids, id)
		}
	}
	return ids
}

// Rows returns copies of all live tuples in insertion order, paired with IDs.
func (t *Table) Rows() ([]TupleID, []Tuple) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ids := make([]TupleID, 0, len(t.rows))
	rows := make([]Tuple, 0, len(t.rows))
	for _, id := range t.order {
		if row, ok := t.rows[id]; ok {
			ids = append(ids, id)
			rows = append(rows, row.Clone())
		}
	}
	return ids, rows
}

// Clone returns an independent mutable table holding the source's current
// version (same schema object, ids, version and next id): a copy-on-write
// fork, not a deep copy. Stored rows are never mutated in place, so the clone
// shares the source's row references and its pinned snapshot's vectors, and
// it borrows the source's columnar view — dictionaries, code vectors, built
// PLIs — when that view exists or is one O(delta) patch away. A borrowed
// column still belongs to the source's lineage, whose one in-place successor
// is the source's next patch: the clone's first patch that touches it forks
// it (patchColumn), so neither table ever sees the other's edits. For a
// cheap immutable read view, use Snapshot instead.
func (t *Table) Clone() *Table {
	t.mu.Lock()
	src, nextID := t.snapshotLocked(), t.nextID
	t.mu.Unlock()
	c := &Table{
		schema:  t.schema,
		rows:    make(map[TupleID]Tuple, len(src.ids)),
		order:   slices.Clone(src.ids), // compactLocked rewrites order in place
		nextID:  nextID,
		version: src.version,
		chfloor: src.version,
		snap:    &Snapshot{schema: t.schema, version: src.version, ids: src.ids, rows: src.rows},
	}
	for i, id := range src.ids {
		c.rows[id] = src.rows[i]
	}
	// Outside the lock: if a mutation of t takes src's link between the check
	// and the call, Columnar batch-builds instead — slower, equally correct.
	col := src.builtColumnar()
	if p := src.patch.Load(); col == nil && p != nil && p.prev.builtColumnar() != nil {
		col = src.Columnar()
	}
	if col != nil {
		c.snap.setColumnar(col.cols, slices.Repeat([]bool{true}, len(col.cols)))
	}
	return c
}

// Store is a named collection of tables — the "database" a Semandaq
// instance connects to.
type Store struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{tables: make(map[string]*Table)}
}

// Create adds a new empty table with the given schema. It fails if a table
// with the same (case-insensitive) name exists.
func (s *Store) Create(sc *schema.Relation) (*Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToLower(sc.Name)
	if _, ok := s.tables[key]; ok {
		return nil, fmt.Errorf("relstore: table %q already exists", sc.Name)
	}
	t := NewTable(sc)
	s.tables[key] = t
	return t, nil
}

// Put registers an existing table (replacing any table of the same name).
func (s *Store) Put(t *Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tables[strings.ToLower(t.schema.Name)] = t
}

// Table returns the named table.
func (s *Store) Table(name string) (*Table, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[strings.ToLower(name)]
	return t, ok
}

// Drop removes the named table; it reports whether it existed.
func (s *Store) Drop(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := s.tables[key]; !ok {
		return false
	}
	delete(s.tables, key)
	return true
}

// Names returns the sorted table names.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for _, t := range s.tables {
		names = append(names, t.schema.Name)
	}
	sort.Strings(names)
	return names
}
