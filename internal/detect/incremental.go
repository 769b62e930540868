package detect

import (
	"fmt"
	"slices"

	"semandaq/internal/cfd"
	"semandaq/internal/lockcheck"
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
// flip) and computes vio(t) on demand in O(#CFDs); an update returns no
// delta. Keys are WriteGroupKey bytes, not dictionary codes, which mean
// nothing across a column's compaction: an update writes them into a
// scratch buffer and looks them up without allocating, and a key string is
// allocated only for a new RHS class (its group's key is a prefix of it).
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
	mu    lockcheck.RWMutex[Tracker]
	tab   *relstore.Table
	state []*cfdState
	// dirtyRef counts, per tuple, how many sources make it dirty: CFDs
	// with a single-tuple violation plus violating groups it belongs to.
	dirtyRef map[relstore.TupleID]int
	// key and row are write-path scratch: the key being looked up and the
	// row SetCell decodes. Only the holder of the write lock touches them.
	key []byte
	row relstore.Tuple
}

// cfdState is the per-CFD violation index.
type cfdState struct {
	p prepared
	// constPatterns / varPatterns split the tableau by RHS kind.
	constPatterns []int
	varPatterns   []int
	// single holds the tuples violating a constant pattern.
	single map[relstore.TupleID]bool
	// groups indexes multi-tuple state by LHS group key, and classes the
	// groups' live RHS Equal-classes by LHS key followed by RHS key; member
	// records each grouped tuple's class and place in its group.
	groups  map[string]*groupState
	classes map[string]*rhsClass
	member  map[relstore.TupleID]membership
}

// groupState is one LHS-value group of tuples matching a variable pattern.
type groupState struct {
	key     string
	members []relstore.TupleID
	classes int // live RHS Equal-classes
}

func (g *groupState) violating() bool { return g.classes > 1 }

// rhsClass is one RHS Equal-class of a group and its member count.
type rhsClass struct {
	key string
	g   *groupState
	n   int
}

// membership is a grouped tuple's class and index in the group's members.
type membership struct {
	c  *rhsClass
	at int
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
			p:       p,
			single:  map[relstore.TupleID]bool{},
			groups:  map[string]*groupState{},
			classes: map[string]*rhsClass{},
			member:  map[relstore.TupleID]membership{},
		}
		cs.constPatterns, cs.varPatterns = splitPatterns(p)
		t.state = append(t.state, cs)
	}
	// Seed from one pinned snapshot (the index keeps no borrowed row); the
	// tracker is not shared yet, so no locking either.
	tab.Snapshot().Scan(func(id relstore.TupleID, row relstore.Tuple) bool {
		for _, cs := range t.state {
			t.index(cs, id, row)
		}
		return true
	})
	return t, nil
}

// splitPatterns classifies the tableau indexes: constant-RHS patterns can
// only be violated by single tuples, wildcard-RHS patterns only by tuple
// groups.
func splitPatterns(p prepared) (constPatterns, varPatterns []int) {
	for i := range p.c.Tableau {
		if p.c.Tableau[i].RHS[0].Wildcard {
			varPatterns = append(varPatterns, i)
		} else {
			constPatterns = append(constPatterns, i)
		}
	}
	return constPatterns, varPatterns
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
		if cs.single[id] {
			n++
		}
		if m, ok := cs.member[id]; ok && m.c.g.violating() {
			n += len(m.c.g.members) - m.c.n
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

// ref adjusts a tuple's dirty reference count.
func (t *Tracker) ref(id relstore.TupleID, diff int) {
	if n := t.dirtyRef[id] + diff; n > 0 {
		t.dirtyRef[id] = n
	} else {
		delete(t.dirtyRef, id)
	}
}

// Insert adds a tuple through the tracker.
func (t *Tracker) Insert(row relstore.Tuple) (relstore.TupleID, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, err := t.tab.Insert(row)
	if err != nil {
		return 0, err
	}
	for _, cs := range t.state {
		t.index(cs, id, row)
	}
	return id, nil
}

// Delete removes a tuple through the tracker.
func (t *Tracker) Delete(id relstore.TupleID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.tab.Delete(id) {
		return fmt.Errorf("detect: tracker delete: no tuple %d", id)
	}
	for _, cs := range t.state {
		t.unindex(cs, id)
	}
	return nil
}

// SetCell updates one attribute through the tracker. Only the CFDs that
// read the attribute re-index the tuple, from its row decoded once.
func (t *Tracker) SetCell(id relstore.TupleID, attr string, v types.Value) error {
	pos, ok := t.tab.Schema().Pos(attr)
	if !ok {
		return fmt.Errorf("detect: tracker set: no attribute %q", attr)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, err := t.tab.SetCell(id, pos, v); err != nil {
		return fmt.Errorf("detect: tracker set: %w", err)
	}
	t.row, _ = t.tab.AppendRow(t.row[:0], id)
	for _, cs := range t.state {
		if pos == cs.p.rhsPos || slices.Contains(cs.p.lhsPos, pos) {
			t.unindex(cs, id)
			t.index(cs, id, t.row)
		}
	}
	return nil
}

// index adds a tuple to one CFD's state, under the write lock.
func (t *Tracker) index(cs *cfdState, id relstore.TupleID, row relstore.Tuple) {
	// Single-tuple violations: a non-NULL RHS unlike a matched constant.
	if got := row[cs.p.rhsPos]; !got.IsNull() && slices.ContainsFunc(cs.constPatterns, func(i int) bool {
		return cs.p.c.MatchLHS(i, row, cs.p.lhsPos) && !got.Equal(cs.p.c.Tableau[i].RHS[0].Const)
	}) {
		cs.single[id] = true
		t.ref(id, 1)
	}
	// Multi-tuple group membership.
	if !slices.ContainsFunc(cs.varPatterns, func(i int) bool { return cs.p.c.MatchLHS(i, row, cs.p.lhsPos) }) {
		return
	}
	t.key = t.key[:0]
	for _, p := range cs.p.lhsPos {
		t.key = row[p].AppendGroupKey(t.key)
	}
	lhs := len(t.key)
	t.key = row[cs.p.rhsPos].AppendGroupKey(t.key)
	c := cs.classes[string(t.key)]
	if c == nil {
		key := string(t.key)
		g := cs.groups[key[:lhs]]
		if g == nil {
			g = &groupState{key: key[:lhs]}
			cs.groups[g.key] = g
		}
		c = &rhsClass{key: key, g: g}
		cs.classes[key] = c
	}
	g := c.g
	wasViolating := g.violating()
	if c.n++; c.n == 1 {
		g.classes++
	}
	cs.member[id] = membership{c, len(g.members)}
	g.members = append(g.members, id)
	switch {
	case !wasViolating && g.violating():
		// The group flipped: every member becomes dirty.
		for _, mid := range g.members {
			t.ref(mid, 1)
		}
	case g.violating():
		t.ref(id, 1)
	}
}

// unindex removes a tuple from one CFD's state, reading only the index.
func (t *Tracker) unindex(cs *cfdState, id relstore.TupleID) {
	if cs.single[id] {
		delete(cs.single, id)
		t.ref(id, -1)
	}
	m, ok := cs.member[id]
	if !ok {
		return
	}
	delete(cs.member, id)
	c, g := m.c, m.c.g
	wasViolating := g.violating()
	// Swap-delete id from the members, re-pointing the member moved.
	if last := g.members[len(g.members)-1]; last != id {
		g.members[m.at] = last
		cs.member[last] = membership{cs.member[last].c, m.at}
	}
	g.members = g.members[:len(g.members)-1]
	if c.n--; c.n == 0 {
		delete(cs.classes, c.key)
		g.classes--
	}
	if len(g.members) == 0 {
		delete(cs.groups, g.key)
	}
	switch {
	case wasViolating && !g.violating():
		// The group healed: the removed member plus all remaining
		// members lose this dirty source.
		t.ref(id, -1)
		for _, mid := range g.members {
			t.ref(mid, -1)
		}
	case wasViolating:
		t.ref(id, -1)
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
			cp.constAt(r, id, add)
		}
		for _, g := range cs.groups {
			if !g.violating() {
				continue
			}
			rows := make([]int32, 0, len(g.members))
			for _, id := range g.members {
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
