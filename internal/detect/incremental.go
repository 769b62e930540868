package detect

import (
	"fmt"
	"slices"
	"sync"

	"semandaq/internal/cfd"
	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

// Tracker implements the incremental detection of the TODS paper, used by
// Semandaq's data monitor: instead of re-running batch detection after every
// update, it maintains the violation state (single-tuple hits and the
// multi-tuple group index) and updates it in time proportional to the size
// of the change, not the size of the data.
//
// vio(t) is NOT materialized per tuple: in large violating groups every
// member's count changes on every membership change, which would make
// updates O(|group|). Instead the tracker maintains a dirty-status
// reference count per tuple (transitions are O(1) amortized; a whole group
// flipping between clean and violating costs O(|group|) exactly once per
// flip) and computes vio(t) on demand in O(#CFDs).
//
// The Tracker owns mutations: route inserts, deletes and cell updates
// through it so the violation index stays in sync with the table.
//
// A Tracker is safe for concurrent use: mutations (Insert, Delete,
// SetCell) serialize on an internal write lock, while the read surface
// (Vio, VioMap, DirtyCount, FactorReport, Report) runs under a shared read
// lock, so any number of readers proceed concurrently between updates and
// always observe a fully applied update — never a half-indexed tuple.
type Tracker struct {
	mu    sync.RWMutex
	tab   *relstore.Table
	state []*cfdState
	// dirtyRef counts, per tuple, how many sources make it dirty: CFDs
	// with a single-tuple violation plus violating groups it belongs to.
	dirtyRef map[relstore.TupleID]int
}

// cfdState is the per-CFD violation index.
type cfdState struct {
	p prepared
	// constPatterns / varPatterns split the tableau by RHS kind.
	constPatterns []int
	varPatterns   []int
	// single counts violated constant patterns per tuple (absent = 0).
	single map[relstore.TupleID]int
	// groups indexes multi-tuple state by LHS key.
	groups map[string]*groupState
	// memberKey records which group each tuple belongs to.
	memberKey map[relstore.TupleID]string
}

// groupState is one LHS-value group of tuples matching a variable pattern.
type groupState struct {
	members   map[relstore.TupleID]string // tuple → RHS value key
	rhsCounts map[string]int
}

func (g *groupState) violating() bool { return len(g.rhsCounts) > 1 }

// contribution returns the vio(t) contribution of this group for member id.
func (g *groupState) contribution(id relstore.TupleID) int {
	if !g.violating() {
		return 0
	}
	rk, ok := g.members[id]
	if !ok {
		return 0
	}
	return len(g.members) - g.rhsCounts[rk]
}

// NewTracker builds a tracker over the table and CFD set, performing one
// initial full pass to seed the violation index.
func NewTracker(tab *relstore.Table, cfds []*cfd.CFD) (*Tracker, error) {
	preps, err := prepare(tab.Schema(), cfds)
	if err != nil {
		return nil, err
	}
	t := &Tracker{
		tab:      tab,
		dirtyRef: make(map[relstore.TupleID]int),
	}
	for _, p := range preps {
		cs := &cfdState{
			p:         p,
			single:    map[relstore.TupleID]int{},
			groups:    map[string]*groupState{},
			memberKey: map[relstore.TupleID]string{},
		}
		cs.constPatterns, cs.varPatterns = splitPatterns(p)
		t.state = append(t.state, cs)
	}
	// Seed from one pinned snapshot (addTuple keeps only key strings, never
	// the scan's borrowed row); the tracker is not shared yet, so no locking
	// either.
	tab.Snapshot().Scan(func(id relstore.TupleID, row relstore.Tuple) bool {
		t.addTuple(id, row, nil)
		return true
	})
	return t, nil
}

// Vio computes vio(t) for the given tuple on demand: one unit per CFD with
// a single-tuple violation plus the partner count per violating group.
func (t *Tracker) Vio(id relstore.TupleID) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.vioLocked(id)
}

// vioLocked is Vio under an already-held lock (any mode).
func (t *Tracker) vioLocked(id relstore.TupleID) int {
	if t.dirtyRef[id] == 0 {
		return 0
	}
	n := 0
	for _, cs := range t.state {
		if cs.single[id] > 0 {
			n++
		}
		if key, ok := cs.memberKey[id]; ok {
			n += cs.groups[key].contribution(id)
		}
	}
	return n
}

// VioMap returns the full vio(t) map (dirty tuples only).
func (t *Tracker) VioMap() map[relstore.TupleID]int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[relstore.TupleID]int, len(t.dirtyRef))
	for id := range t.dirtyRef {
		if v := t.vioLocked(id); v > 0 {
			out[id] = v
		}
	}
	return out
}

// DirtyCount returns the number of tuples with vio(t) > 0.
func (t *Tracker) DirtyCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.dirtyRef)
}

// Delta lists the tuples an operation touched or whose dirty status
// flipped, with their new vio(t) (0 = now clean). Members of a large
// violating group whose partner count merely shifted are not listed —
// tracking them would make updates O(|group|).
type Delta struct {
	Changed map[relstore.TupleID]int
}

func newDelta() *Delta { return &Delta{Changed: map[relstore.TupleID]int{}} }

// touch records id's current vio in the delta. Caller holds the lock.
func (t *Tracker) touch(d *Delta, id relstore.TupleID) {
	if d != nil {
		d.Changed[id] = t.vioLocked(id)
	}
}

// ref adjusts a tuple's dirty reference count, recording transitions.
func (t *Tracker) ref(d *Delta, id relstore.TupleID, diff int) {
	if diff == 0 {
		return
	}
	old := t.dirtyRef[id]
	n := old + diff
	switch {
	case n <= 0:
		delete(t.dirtyRef, id)
		if old > 0 && d != nil {
			d.Changed[id] = 0
		}
	default:
		t.dirtyRef[id] = n
		if old == 0 && d != nil {
			d.Changed[id] = -1 // placeholder; resolved in finishDelta
		}
	}
}

// finishDelta fills in the vio values for transition placeholders. Caller
// holds the lock.
func (t *Tracker) finishDelta(d *Delta) *Delta {
	if d == nil {
		return nil
	}
	for id, v := range d.Changed {
		if v < 0 {
			d.Changed[id] = t.vioLocked(id)
		}
	}
	return d
}

// Insert adds a tuple through the tracker.
func (t *Tracker) Insert(row relstore.Tuple) (relstore.TupleID, *Delta, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, err := t.tab.Insert(row)
	if err != nil {
		return 0, nil, err
	}
	d := newDelta()
	stored, _ := t.tab.Get(id)
	t.addTuple(id, stored, d)
	t.touch(d, id)
	return id, t.finishDelta(d), nil
}

// Delete removes a tuple through the tracker.
func (t *Tracker) Delete(id relstore.TupleID) (*Delta, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	row, ok := t.tab.Get(id)
	if !ok {
		return nil, fmt.Errorf("detect: tracker delete: no tuple %d", id)
	}
	d := newDelta()
	t.removeTuple(id, row, d)
	t.tab.Delete(id)
	delete(t.dirtyRef, id)
	d.Changed[id] = 0
	return t.finishDelta(d), nil
}

// SetCell updates one attribute through the tracker.
func (t *Tracker) SetCell(id relstore.TupleID, attr string, v types.Value) (*Delta, error) {
	pos, ok := t.tab.Schema().Pos(attr)
	if !ok {
		return nil, fmt.Errorf("detect: tracker set: no attribute %q", attr)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old, ok := t.tab.Get(id)
	if !ok {
		return nil, fmt.Errorf("detect: tracker set: no tuple %d", id)
	}
	d := newDelta()
	t.removeTuple(id, old, d)
	if _, err := t.tab.SetCell(id, pos, v); err != nil {
		// Re-index the unchanged row: the removal above must not leak.
		t.addTuple(id, old, nil)
		return nil, err
	}
	nrow, _ := t.tab.Get(id)
	t.addTuple(id, nrow, d)
	t.touch(d, id)
	return t.finishDelta(d), nil
}

// addTuple indexes a tuple into every CFD state.
func (t *Tracker) addTuple(id relstore.TupleID, row relstore.Tuple, d *Delta) {
	for _, cs := range t.state {
		// Single-tuple violations.
		n := 0
		for _, i := range cs.constPatterns {
			if !cs.p.c.MatchLHS(i, row, cs.p.lhsPos) {
				continue
			}
			got := row[cs.p.rhsPos]
			if got.IsNull() || got.Equal(cs.p.c.Tableau[i].RHS[0].Const) {
				continue
			}
			n++
		}
		if n > 0 {
			cs.single[id] = n
			t.ref(d, id, 1)
		}
		// Multi-tuple group membership.
		matched := false
		for _, i := range cs.varPatterns {
			if cs.p.c.MatchLHS(i, row, cs.p.lhsPos) {
				matched = true
				break
			}
		}
		if !matched {
			continue
		}
		key := row.KeyOn(cs.p.lhsPos)
		g, ok := cs.groups[key]
		if !ok {
			g = &groupState{
				members:   map[relstore.TupleID]string{},
				rhsCounts: map[string]int{},
			}
			cs.groups[key] = g
		}
		wasViolating := g.violating()
		rk := row[cs.p.rhsPos].Key()
		g.members[id] = rk
		g.rhsCounts[rk]++
		cs.memberKey[id] = key
		switch {
		case !wasViolating && g.violating():
			// The group flipped: every member becomes dirty.
			for mid := range g.members {
				t.ref(d, mid, 1)
			}
		case g.violating():
			t.ref(d, id, 1)
		}
	}
}

// removeTuple unindexes a tuple from every CFD state.
func (t *Tracker) removeTuple(id relstore.TupleID, row relstore.Tuple, d *Delta) {
	for _, cs := range t.state {
		if n, ok := cs.single[id]; ok && n > 0 {
			delete(cs.single, id)
			t.ref(d, id, -1)
		}
		key, ok := cs.memberKey[id]
		if !ok {
			continue
		}
		g := cs.groups[key]
		wasViolating := g.violating()
		rk := g.members[id]
		delete(g.members, id)
		if g.rhsCounts[rk] <= 1 {
			delete(g.rhsCounts, rk)
		} else {
			g.rhsCounts[rk]--
		}
		delete(cs.memberKey, id)
		if len(g.members) == 0 {
			delete(cs.groups, key)
		}
		switch {
		case wasViolating && !g.violating():
			// The group healed: the removed member plus all remaining
			// members lose this dirty source.
			t.ref(d, id, -1)
			for mid := range g.members {
				t.ref(d, mid, -1)
			}
		case wasViolating:
			t.ref(d, id, -1)
		}
	}
}

// FactorReport materializes the factorised detection report of the tracked
// state against snap, the pinned snapshot of the tracker's current version:
// the tracker says which tuples are single-tuple violations and which
// groups disagree, and the snapshot's columns supply row positions (by
// binary search over its ids), LHS values, RHS values and histograms — so
// the report equals the batch core's over the same snapshot. It reports
// false when snap is of another version or lacks a tracked tuple (one
// deleted around the tracker). It runs under the tracker's read lock, so
// it never observes a half-applied update.
func (t *Tracker) FactorReport(snap *relstore.Snapshot) (*FactorReport, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if snap.Version() != t.tab.Version() {
		return nil, false
	}
	if fr, complete := t.factorReportLocked(snap); complete {
		return fr, true
	}
	return nil, false
}

// factorReportLocked is FactorReport under an already-held lock; it skips
// tracked tuples missing from snap and reports whether there were none.
func (t *Tracker) factorReportLocked(snap *relstore.Snapshot) (fr *FactorReport, complete bool) {
	cols := snap.Columnar()
	ids := cols.IDs()
	cps := make([]colPrep, len(t.state))
	parts := make([]cfdPart, len(t.state))
	codeCounts := make(map[uint32]int, 8)
	complete = true
	for i, cs := range t.state {
		cp, pt := &cps[i], &parts[i]
		*cp = newColPrep(cs.p, cols)
		add := func(v Violation) bool { pt.viols = append(pt.viols, v); return true }
		for id := range cs.single {
			r, ok := slices.BinarySearch(ids, id)
			if !ok {
				complete = false
				continue
			}
			n := len(pt.viols)
			if cp.constAt(r, id, add); len(pt.viols) > n {
				pt.singles++
			}
		}
		for _, g := range cs.groups {
			if !g.violating() {
				continue
			}
			rows := make([]int32, 0, len(g.members))
			for id := range g.members {
				r, ok := slices.BinarySearch(ids, id)
				if !ok {
					complete = false
					continue
				}
				rows = append(rows, int32(r))
			}
			if len(rows) < 2 {
				continue
			}
			slices.Sort(rows)
			if fg := newFactorGroup(cp, rows, codeCounts, ids); fg != nil {
				pt.groups = append(pt.groups, fg)
			}
		}
	}
	return assemble(cols, cps, parts), complete
}

// Report is the tracked state's flat report over the table's current
// snapshot: FactorReport exploded, stamped with the version it reflects.
func (t *Tracker) Report() *Report {
	t.mu.RLock()
	defer t.mu.RUnlock()
	fr, _ := t.factorReportLocked(t.tab.Snapshot())
	return fr.Explode()
}

// String renders a short tracker summary.
func (t *Tracker) String() string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return fmt.Sprintf("tracker(%s): %d tuples, %d dirty", t.tab.Schema().Name, t.tab.Len(), len(t.dirtyRef))
}
