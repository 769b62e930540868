// Package relstore is a fixture stand-in shaped like the real store: the
// analyzer keys on this import path, the Table type, its lineage and overlay
// fields (base, over, vals, order), the noteMutationLocked epilogue and the
// foldLocked fold.
package relstore

import "sync"

type TupleID int64

type Tuple []string

type Snapshot struct{ ver uint64 }

type Table struct {
	mu    sync.Mutex
	base  *Snapshot
	over  map[TupleID]int32
	vals  []string
	order []TupleID
	ver   uint64
}

func NewTable() *Table {
	return &Table{base: &Snapshot{}}
}

func (t *Table) noteMutationLocked(ids ...TupleID) {
	t.ver++
}

// slot stages id's overlay row; its caller owns the note.
func (t *Table) slot(id TupleID, tup Tuple) int32 {
	if t.over == nil {
		t.over = map[TupleID]int32{}
	}
	k := int32(len(t.vals) / len(tup))
	t.over[id] = k
	t.vals = append(t.vals, tup...)
	return k // want `slot returns with an unlogged Table mutation`
}

// goodInsert notes the write before returning: clean.
func (t *Table) goodInsert(id TupleID, tup Tuple) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.slot(id, tup)
	t.order = append(t.order, id)
	t.noteMutationLocked(id)
}

// goodDeferredNote notes through a defer, which covers every return path.
func (t *Table) goodDeferredNote(id TupleID, v string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	defer t.noteMutationLocked(id)
	t.vals[t.over[id]] = v
}

// goodBranches notes on each writing path.
func (t *Table) goodBranches(id TupleID, tup Tuple, drop bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if drop {
		t.over[id] = -1
		t.noteMutationLocked(id)
		return
	}
	copy(t.vals[t.over[id]:], tup)
	t.noteMutationLocked(id)
}

// goodClone populates a fresh local table: nothing observes it before
// publication, so there is no logging obligation.
func (t *Table) goodClone() *Table {
	c := NewTable()
	c.base = t.base
	c.vals = append(c.vals, t.vals...)
	return c
}

// foldLocked is the fold: it moves the overlay into a new base at the same
// version, so it writes storage without a note.
func (t *Table) foldLocked() {
	t.base = &Snapshot{ver: t.ver}
	t.over, t.vals, t.order = nil, nil, nil
}

// goodRead folds under the lock and notes nothing: a read.
func (t *Table) goodRead() *Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.base.ver != t.ver {
		t.foldLocked()
	}
	return t.base
}

// badReturn writes the overlay and returns without noting.
func (t *Table) badReturn(id TupleID, v string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.vals[t.over[id]] = v
	return nil // want `badReturn returns with an unlogged Table mutation`
}

// badFallOff deletes from the overlay and falls off the end.
func (t *Table) badFallOff(id TupleID) { // want `badFallOff writes Table storage but falls off the end without calling noteMutationLocked`
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.over, id)
}

// badCopy overwrites an overlay row with copy and never notes.
func (t *Table) badCopy(id TupleID, tup Tuple) { // want `badCopy writes Table storage but falls off the end without calling noteMutationLocked`
	t.mu.Lock()
	defer t.mu.Unlock()
	copy(t.vals[t.over[id]:], tup)
}

// badRebase swaps the lineage outside the fold: a new base is new content.
func (t *Table) badRebase(s *Snapshot) { // want `badRebase writes Table storage but falls off the end without calling noteMutationLocked`
	t.mu.Lock()
	defer t.mu.Unlock()
	t.base = s
}

// badBranch notes on one path but not the other.
func (t *Table) badBranch(id TupleID, v string, drop bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if drop {
		t.over[id] = -1
		return // want `badBranch returns with an unlogged Table mutation`
	}
	t.vals[t.over[id]] = v
	t.noteMutationLocked(id)
}

// badUnlock releases the table lock with the write still unlogged: a
// reader can observe the mutation before the version advances.
func (t *Table) badUnlock(id TupleID, tup Tuple) {
	t.mu.Lock()
	t.order = append(t.order, id)
	t.mu.Unlock() // want `badUnlock releases the table lock with an unlogged mutation`
	t.noteMutationLocked(id)
}

// badCaller inherits the helper's pending write and never notes.
func (t *Table) badCaller(id TupleID, tup Tuple) { // want `badCaller writes Table storage but falls off the end without calling noteMutationLocked`
	t.mu.Lock()
	defer t.mu.Unlock()
	t.slot(id, tup)
}

// suppressedCompact is a locked helper whose caller owns the note, with the
// contract stated at the directive.
//
//semandaq:vet-ignore mutationlog the caller's epilogue logs the write
func (t *Table) suppressedCompact() {
	t.order = t.order[:0]
}

// goodSuppressedCaller still notes after the suppressed helper — the
// suppression hides the helper's own finding, not the propagated summary.
func (t *Table) goodSuppressedCaller() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.suppressedCompact()
	t.noteMutationLocked()
}
