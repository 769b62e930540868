package relstore

import (
	"fmt"
	"slices"

	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// model is the naive row store the relstore oracles hold a table to: the
// live ids ascending, one Tuple each, and the version every op leaves. The
// table keeps its data only in columns, so a fold that wrote a wrong value
// would be faithfully re-interned by RebuildSnapshot; the model is where the
// right value survives.
type model struct {
	ids     []TupleID
	rows    []Tuple
	version int64
}

func (m *model) pos(id TupleID) (int, bool) { return slices.BinarySearch(m.ids, id) }

// snapshot is the cold side: a batch build of the model.
func (m *model) snapshot(sc *schema.Relation) *Snapshot {
	return BuildSnapshot(sc, m.version, m.ids, m.rows)
}

// twin is a table and its model, mutated in lockstep: every op goes to both,
// and they must agree on what it returns.
type twin struct {
	tab *Table
	m   *model
}

func newTwin(sc *schema.Relation) *twin { return &twin{NewTable(sc), &model{}} }

// twinOf models tab as it stands.
func twinOf(tab *Table) *twin {
	s := tab.Snapshot()
	return &twin{tab, &model{ids: slices.Clone(s.IDs()), rows: s.Rows(), version: s.Version()}}
}

func (w *twin) insert(row Tuple) TupleID {
	id := w.tab.MustInsert(row)
	if n := len(w.m.ids); n > 0 && id <= w.m.ids[n-1] {
		panic(fmt.Sprintf("insert took id %d after %d", id, w.m.ids[n-1]))
	}
	w.m.ids = append(w.m.ids, id)
	w.m.rows = append(w.m.rows, slices.Clone(row))
	w.m.version++
	return id
}

func (w *twin) delete(id TupleID) bool {
	i, live := w.m.pos(id)
	if got := w.tab.Delete(id); got != live {
		panic(fmt.Sprintf("Delete(%d) = %v, model holds it: %v", id, got, live))
	}
	if live {
		w.m.ids = slices.Delete(w.m.ids, i, i+1)
		w.m.rows = slices.Delete(w.m.rows, i, i+1)
		w.m.version++
	}
	return live
}

func (w *twin) setCell(id TupleID, pos int, v types.Value) types.Value {
	old, err := w.tab.SetCell(id, pos, v)
	if err != nil {
		panic(err)
	}
	i, _ := w.m.pos(id)
	if row := w.m.rows[i]; old != row[pos] {
		panic(fmt.Sprintf("SetCell(%d, %d) returned old %v, model holds %v", id, pos, old, row[pos]))
	} else if !old.Equal(v) {
		row[pos] = v
		w.m.version++
	}
	return old
}

func (w *twin) update(id TupleID, row Tuple) {
	if err := w.tab.Update(id, row); err != nil {
		panic(err)
	}
	i, _ := w.m.pos(id)
	w.m.rows[i] = slices.Clone(row)
	w.m.version++
}

// clone forks the table and the model with it.
func (w *twin) clone() *twin {
	m := &model{ids: slices.Clone(w.m.ids), rows: make([]Tuple, len(w.m.rows)), version: w.m.version}
	for i, row := range w.m.rows {
		m.rows[i] = slices.Clone(row)
	}
	return &twin{w.tab.Clone(), m}
}

// check holds the table to the model: the point reads that bypass the fold
// (Len, Get of every live and every dead id) first, then the served
// snapshot against a batch build of the model.
func (w *twin) check() error {
	if n := w.tab.Len(); n != len(w.m.ids) {
		return fmt.Errorf("Len = %d, model holds %d rows", n, len(w.m.ids))
	}
	last := TupleID(-1)
	if n := len(w.m.ids); n > 0 {
		last = w.m.ids[n-1]
	}
	for id := TupleID(0); id <= last+1; id++ {
		got, ok := w.tab.Get(id)
		i, live := w.m.pos(id)
		if ok != live || (ok && len(got) != len(w.m.rows[i])) {
			return fmt.Errorf("Get(%d) = %v, %v; model holds it: %v", id, got, ok, live)
		}
		for j := range got {
			if got[j] != w.m.rows[i][j] {
				return fmt.Errorf("Get(%d)[%d] = %v, model %v (exact)", id, j, got[j], w.m.rows[i][j])
			}
		}
	}
	return DiffSnapshots(w.tab.Snapshot(), w.m.snapshot(w.tab.Schema()))
}
