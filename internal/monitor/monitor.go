// Package monitor implements Semandaq's data monitor: it watches updates to
// a table and keeps its quality from degrading. Per the paper (§2), the
// monitor responds to updates by (1) incremental detection when the
// database has not been cleansed yet, or (2) incremental repair when it
// has — new errors are fixed as they arrive, aligning fresh tuples with the
// trusted cleaned data.
package monitor

import (
	"fmt"
	"sync"

	"semandaq/internal/cfd"
	"semandaq/internal/detect"
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
	// Changed maps tuples whose vio(t) changed to the new value
	// (post-repair when the monitor is in cleansed mode).
	Changed map[relstore.TupleID]int
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
	mu       sync.Mutex // serializes Apply batches and mode flips
	tab      *relstore.Table
	cfds     []*cfd.CFD
	tracker  *detect.Tracker
	cleansed bool
	inc      *repair.IncRepairer
}

// New builds a monitor. cleansed declares whether the table has already
// been cleaned: if true, the monitor repairs incoming errors incrementally;
// if false, it only detects them.
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

// Cleansed reports the monitor's mode.
func (m *Monitor) Cleansed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cleansed
}

// MarkCleansed switches the monitor into incremental-repair mode (call
// after running the data cleanser on the table).
func (m *Monitor) MarkCleansed() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cleansed = true
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
// Concurrent Apply calls serialize: one batch fully lands (including its
// repairs) before the next begins.
func (m *Monitor) Apply(batch []Update) (*BatchResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	res := &BatchResult{Changed: map[relstore.TupleID]int{}}
	var touched []relstore.TupleID
	for i, u := range batch {
		switch u.Op {
		case OpInsert:
			id, d, err := m.tracker.Insert(u.Row)
			if err != nil {
				return nil, fmt.Errorf("monitor: update %d: %w", i, err)
			}
			res.Inserted = append(res.Inserted, id)
			touched = append(touched, id)
			mergeDelta(res.Changed, d)
		case OpDelete:
			d, err := m.tracker.Delete(u.ID)
			if err != nil {
				return nil, fmt.Errorf("monitor: update %d: %w", i, err)
			}
			mergeDelta(res.Changed, d)
		case OpSet:
			d, err := m.tracker.SetCell(u.ID, u.Attr, u.Value)
			if err != nil {
				return nil, fmt.Errorf("monitor: update %d: %w", i, err)
			}
			touched = append(touched, u.ID)
			mergeDelta(res.Changed, d)
		default:
			return nil, fmt.Errorf("monitor: update %d: unknown op %d", i, u.Op)
		}
	}
	if m.cleansed && len(touched) > 0 {
		mods, err := m.inc.RepairDelta(m.tracker, m.tab, m.cfds, touched)
		if err != nil {
			return nil, err
		}
		res.Repairs = mods
		// Refresh the changed map with post-repair values.
		for id := range res.Changed {
			res.Changed[id] = m.tracker.Vio(id)
		}
		for _, mod := range mods {
			res.Changed[mod.TupleID] = m.tracker.Vio(mod.TupleID)
		}
	}
	res.Dirty = m.tracker.DirtyCount()
	res.Version = m.tab.Version()
	return res, nil
}

// Version returns the monitored table's current version.
func (m *Monitor) Version() int64 { return m.tab.Version() }

func mergeDelta(into map[relstore.TupleID]int, d *detect.Delta) {
	if d == nil {
		return
	}
	for id, v := range d.Changed {
		into[id] = v
	}
}
