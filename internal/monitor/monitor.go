// Package monitor implements Semandaq's data monitor: it watches updates to
// a table and keeps its quality from degrading. Per the paper (§2), the
// monitor responds to updates by (1) incremental detection when the
// database has not been cleansed yet, or (2) incremental repair when it
// has — new errors are fixed as they arrive, aligning fresh tuples with the
// trusted cleaned data.
package monitor

import (
	"fmt"

	"semandaq/internal/cfd"
	"semandaq/internal/detect"
	"semandaq/internal/lockcheck"
	"semandaq/internal/relstore"
	"semandaq/internal/repair"
	"semandaq/internal/types"
)

// Op is the kind of one update.
type Op int

// The update kinds.
const (
	OpInsert Op = iota
	OpDelete
	OpSet
)

// Update is one element of an update batch.
type Update struct {
	Op Op
	// Row is the tuple to insert (OpInsert).
	Row relstore.Tuple
	// ID targets an existing tuple (OpDelete, OpSet).
	ID relstore.TupleID
	// Attr / Value are the cell update (OpSet).
	Attr  string
	Value types.Value
}

// BatchResult reports what one update batch did.
type BatchResult struct {
	// Inserted lists IDs assigned to OpInsert updates, in order.
	Inserted []relstore.TupleID
	// Repairs lists incremental repairs applied (cleansed mode only).
	Repairs []repair.Modification
	// Dirty is the table's dirty-tuple count after the batch.
	Dirty int
	// Version is the table version after the batch (including any
	// incremental repairs it triggered).
	Version int64
}

// Monitor watches one table under one CFD set. A Monitor is safe for
// concurrent use: Apply serializes update batches on an internal lock
// (batches from concurrent clients never interleave), while the read
// surface (Report, DirtyCount, Tracker reads) proceeds concurrently
// through the tracker's read lock.
type Monitor struct {
	mu       lockcheck.Mutex[Monitor] // serializes Apply batches
	tab      *relstore.Table
	cfds     []*cfd.CFD
	tracker  *detect.Tracker
	cleansed bool
	inc      *repair.IncRepairer
}

// New builds a monitor. cleansed declares whether the table has already
// been cleaned: if true, the monitor repairs incoming errors incrementally;
// if false, it only detects them. The mode is fixed for the monitor's
// life.
func New(tab *relstore.Table, cfds []*cfd.CFD, cleansed bool) (*Monitor, error) {
	tr, err := detect.NewTracker(tab, cfds)
	if err != nil {
		return nil, err
	}
	return &Monitor{
		tab:      tab,
		cfds:     cfds,
		tracker:  tr,
		cleansed: cleansed,
		inc:      repair.NewIncRepairer(),
	}, nil
}

// Tracker exposes the underlying violation index (read-only use).
func (m *Monitor) Tracker() *detect.Tracker { return m.tracker }

// CFDs returns the constraint set the monitor tracks (fixed at New). The
// serving layer compares it against a detection request's constraints to
// decide whether the tracker's incrementally maintained report can answer
// the request.
func (m *Monitor) CFDs() []*cfd.CFD {
	return append([]*cfd.CFD(nil), m.cfds...)
}

// DirtyCount returns the number of tuples with violations.
func (m *Monitor) DirtyCount() int { return m.tracker.DirtyCount() }

// Report returns the current full detection report.
func (m *Monitor) Report() *detect.Report { return m.tracker.Report() }

// FactorReport returns the factorised detection report over snap, or false
// when snap is not of the monitored table's current version.
func (m *Monitor) FactorReport(snap *relstore.Snapshot) (*detect.FactorReport, bool) {
	return m.tracker.FactorReport(snap)
}

// Apply runs one update batch through the monitor. All updates are applied
// through the violation tracker (incremental detection); in cleansed mode
// the monitor then incrementally repairs the tuples the batch touched.
// The whole batch is validated (Validate) before its first write, so a
// batch with a bad update changes nothing. Concurrent Apply calls
// serialize: one batch fully lands (including its repairs) before the next
// begins.
func (m *Monitor) Apply(batch []Update) (*BatchResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := Validate(m.tab, batch); err != nil {
		return nil, err
	}
	res := &BatchResult{}
	touched := make([]relstore.TupleID, 0, len(batch))
	for i, u := range batch {
		var err error
		var id relstore.TupleID
		switch u.Op {
		case OpInsert:
			id, err = m.tracker.Insert(u.Row)
			res.Inserted = append(res.Inserted, id)
			touched = append(touched, id)
		case OpDelete:
			err = m.tracker.Delete(u.ID)
		case OpSet:
			err = m.tracker.SetCell(u.ID, u.Attr, u.Value)
			touched = append(touched, u.ID)
		}
		if err != nil {
			return nil, fmt.Errorf("monitor: update %d: %w", i, err)
		}
	}
	if m.cleansed && len(touched) > 0 {
		mods, err := m.inc.RepairDelta(m.tracker, m.tab, m.cfds, touched)
		if err != nil {
			return nil, err
		}
		res.Repairs = mods
	}
	res.Dirty = m.tracker.DirtyCount()
	res.Version = m.tab.Version()
	return res, nil
}

// Validate rejects a batch for tab with an unknown op, an insert of the
// wrong arity, a set of an unknown attribute, or a set or delete of a tuple
// not live — deleted by an earlier update of the batch included. It is the
// one check of a write's input: Apply runs it, and so does a session
// writing a table that has no monitor. An error names the update's
// position only in a batch of more than one.
func Validate(tab *relstore.Table, batch []Update) error {
	sc := tab.Schema()
	deleted := map[relstore.TupleID]bool{}
	for i, u := range batch {
		var err error
		switch {
		case u.Op == OpInsert:
			if len(u.Row) != sc.Arity() {
				err = fmt.Errorf("insert into %s: got %d values, want %d", sc.Name, len(u.Row), sc.Arity())
			}
		case u.Op != OpDelete && u.Op != OpSet:
			err = fmt.Errorf("unknown op %d", u.Op)
		case !tab.Live(u.ID) || deleted[u.ID]:
			err = fmt.Errorf("no tuple %d in %s", u.ID, sc.Name)
		case u.Op == OpDelete:
			deleted[u.ID] = true
		case !sc.Has(u.Attr):
			err = fmt.Errorf("no attribute %q in %s", u.Attr, sc.Name)
		}
		if err != nil {
			if len(batch) > 1 {
				err = fmt.Errorf("update %d: %w", i, err)
			}
			return err
		}
	}
	return nil
}

// Version returns the monitored table's current version.
func (m *Monitor) Version() int64 { return m.tab.Version() }
