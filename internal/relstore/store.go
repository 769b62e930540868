// Package relstore implements the in-memory relational store that stands in
// for the RDBMS at the bottom of the Semandaq architecture (Fig. 1 of the
// paper). It provides tables with stable tuple IDs, insert/delete/update,
// full scans, CSV import/export and immutable versioned snapshots, all over
// one column-wise copy of the data.
//
// Tuple identity matters throughout Semandaq: the error detector attributes
// violation counts vio(t) to tuples, the repair algorithm edits cells
// (tuple ID, attribute), and the monitor tracks deltas. IDs are assigned
// once at insert time and never reused.
package relstore

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"semandaq/internal/lockcheck"
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

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Table is a mutable relation instance. All methods are safe for concurrent
// use by multiple goroutines. The data is stored once, column-wise: the
// table's state is its latest column lineage (base, a Snapshot) plus a small
// write overlay holding what changed since. Snapshot() folds the overlay into
// the next lineage member (foldLocked); point reads (Get) decode from the
// overlay or the base without folding.
type Table struct {
	mu     lockcheck.RWMutex[Table]
	schema *schema.Relation
	// base is the latest column lineage member: what the last fold produced,
	// or what a bulk load or a Clone handed over. Its version is the table's
	// iff the overlay is empty.
	base *Snapshot
	// The write overlay since base. over (never nil) maps every id inserted
	// or written since base to its row in vals — cells [k*arity,
	// (k+1)*arity) — or to -1 once deleted; order lists the ids inserted
	// since base, ascending (ids only grow, so that is insertion order, after
	// every id in base).
	over  map[TupleID]int32
	vals  []types.Value
	order []TupleID
	live  int // live tuples
	// nextID is the id the next Insert takes; version is bumped on every
	// mutation and lets caches invalidate.
	nextID  TupleID
	version int64
}

// NewTable creates an empty table with the given schema.
func NewTable(s *schema.Relation) *Table {
	cols := make([]*Column, s.Arity())
	for j := range cols {
		cols[j] = newColumn(0)
	}
	return &Table{schema: s, base: &Snapshot{c: Columnar{schema: s, cols: cols}}, over: map[TupleID]int32{}}
}

// Schema returns the table schema.
func (t *Table) Schema() *schema.Relation { return t.schema }

// Len returns the number of live tuples.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
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
	t.over[id] = int32(len(t.vals) / len(row))
	t.vals = append(t.vals, row...)
	t.order = append(t.order, id)
	t.live++
	t.noteMutationLocked()
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

// Get returns a fresh copy of the tuple with the given ID.
func (t *Table) Get(id TupleID) (Tuple, bool) { return t.AppendRow(nil, id) }

// AppendRow appends the cells of the tuple with the given ID to dst, or
// reports false and returns dst unchanged when id is not live.
func (t *Table) AppendRow(dst Tuple, id TupleID) (Tuple, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	k, i, live := t.locateLocked(id)
	if !live {
		return dst, false
	}
	a := t.schema.Arity()
	dst = slices.Grow(dst, a)
	if k < 0 {
		return t.base.c.appendRow(dst, i), true
	}
	return append(dst, t.vals[int(k)*a:int(k+1)*a]...), true
}

// Live reports whether the tuple with the given ID exists.
func (t *Table) Live(id TupleID) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, _, live := t.locateLocked(id)
	return live
}

// Delete removes the tuple with the given ID. It reports whether the tuple
// existed.
func (t *Table) Delete(id TupleID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, _, live := t.locateLocked(id); !live {
		return false
	}
	t.over[id] = -1
	t.live--
	t.noteMutationLocked()
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
	k, i, ok := t.locateLocked(id)
	if !ok {
		return fmt.Errorf("relstore: update %s: no tuple %d", t.schema.Name, id)
	}
	if k < 0 { // id's cells are in base: stage them as its overlay row
		k = int32(len(t.vals) / len(row))
		t.over[id] = k
		t.vals = t.base.c.appendRow(t.vals, i)
	}
	copy(t.vals[int(k)*len(row):], row)
	t.noteMutationLocked()
	return nil
}

// SetCell updates a single attribute of a tuple (a "cell", in repair-model
// terms) and returns the old value.
func (t *Table) SetCell(id TupleID, pos int, v types.Value) (types.Value, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.schema.Arity()
	if pos < 0 || pos >= a {
		return types.Null, fmt.Errorf("relstore: set cell in %s: position %d out of range", t.schema.Name, pos)
	}
	k, i, ok := t.locateLocked(id)
	if !ok {
		return types.Null, fmt.Errorf("relstore: set cell in %s: no tuple %d", t.schema.Name, id)
	}
	var old types.Value
	if k >= 0 {
		old = t.vals[int(k)*a+pos]
	} else {
		old = t.base.c.cols[pos].cell(i)
	}
	if old.Equal(v) {
		return old, nil
	}
	if k < 0 { // id's cells are in base: stage them as its overlay row
		k = int32(len(t.vals) / a)
		t.over[id] = k
		t.vals = t.base.c.appendRow(t.vals, i)
	}
	t.vals[int(k)*a+pos] = v
	t.noteMutationLocked()
	return old, nil
}

// locateLocked reports whether id is live and where its cells are: its
// overlay row k, or — k is -1 — position i of base. Caller holds mu.
func (t *Table) locateLocked(id TupleID) (k int32, i int, live bool) {
	if k, ok := t.over[id]; ok {
		return k, -1, k >= 0
	}
	i, live = t.base.pos(id)
	return -1, i, live
}

// Clone returns an independent mutable table holding the source's current
// version (same schema object, ids, version and next id): a copy-on-write
// fork, not a deep copy, in O(columns + overlay). The clone borrows the
// source's column lineage — dictionaries, code vectors, built probe vectors and key tables — and
// copies its overlay. A borrowed column still belongs to the source's
// lineage, whose one in-place successor is the source's next fold: the
// clone's first fold that touches it forks it (patchColumn), so neither
// table ever sees the other's edits. For a cheap immutable read view, use
// Snapshot instead.
func (t *Table) Clone() *Table {
	t.mu.RLock()
	defer t.mu.RUnlock()
	b := t.base.c
	b.borrowed = slices.Repeat([]bool{true}, len(b.cols))
	return &Table{
		schema:  t.schema,
		base:    &Snapshot{c: b},
		over:    maps.Clone(t.over), // non-nil: t.over is
		vals:    slices.Clone(t.vals),
		order:   slices.Clone(t.order),
		live:    t.live,
		nextID:  t.nextID,
		version: t.version,
	}
}

// Store is a named collection of tables — the "database" a Semandaq
// instance connects to.
type Store struct {
	mu     lockcheck.RWMutex[Store]
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
