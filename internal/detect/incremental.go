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
// delta. Keys are AppendGroupKey bytes, not dictionary codes, which mean
// nothing across a column's compaction: an update writes them into a
// scratch buffer and looks them up without allocating, and a key string is
// allocated only for a new RHS class (its group's key is a prefix of it).
//
// Per-tuple state is dense and pointer-free, indexed by slot: the seed
// snapshot's tuples hold slots 0..n-1 in id order, a later tuple n plus its
// id's distance from the first later id. Ids are never reused, so when the
// slots pass 2 × live + 256 the tracker re-bases — re-seeds from the
// table's current snapshot — and its memory stays O(live) under churn.
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
	// seeded is the seed snapshot's ids, next the first id after them.
	seeded []relstore.TupleID
	next   relstore.TupleID
	// dirtyRef counts per slot how many sources make the tuple dirty (CFDs
	// with a single-tuple violation, violating groups), dirty the slots
	// above 0.
	dirtyRef []int32
	dirty    int
	// key and row are write-path scratch: the key being looked up and the
	// row SetCell decodes. Only the holder of the write lock touches them.
	key []byte
	row relstore.Tuple
}

// cfdState is the per-CFD violation index. single marks the slots of
// single-tuple violations, member gives a slot's class and place among its
// group's members; each is nil without patterns of its RHS kind. groups
// and classes index groupAt and classAt by LHS group key and by LHS key
// followed by RHS key.
type cfdState struct {
	p            Prepared
	consts, vars bool // has constant-RHS / wildcard-RHS patterns
	single       []bool
	member       []membership
	groups       map[string]int32
	classes      map[string]int32
	groupAt      slab[groupState]
	classAt      slab[rhsClass]
}

// groupState is one LHS-value group of tuples matching a variable pattern.
type groupState struct {
	key     string
	members []int32 // slots
	classes int32   // live RHS Equal-classes
}

func (g *groupState) violating() bool { return g.classes > 1 }

// rhsClass is one RHS Equal-class of a group and its member count.
type rhsClass struct {
	key      string
	group, n int32
}

// membership is a grouped tuple's class (-1 for none) and index in the
// group's members.
type membership struct{ class, at int32 }

var noMember = membership{class: -1}

// slab holds values addressed by int32, recycling the ones it frees.
type slab[T any] struct {
	items []T
	free  []int32
}

func (s *slab[T]) add(v T) int32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free, s.items[i] = s.free[:n-1], v
		return i
	}
	s.items = append(s.items, v)
	return int32(len(s.items) - 1)
}

func (s *slab[T]) drop(i int32) {
	var zero T
	s.items[i], s.free = zero, append(s.free, i)
}

// NewTracker builds a tracker over the table and CFD set, seeded from the
// table's current snapshot.
func NewTracker(tab *relstore.Table, cfds []*cfd.CFD) (*Tracker, error) {
	preps, err := Prepare(tab.Schema(), cfds)
	if err != nil {
		return nil, err
	}
	t := &Tracker{tab: tab}
	for _, p := range preps {
		consts := slices.ContainsFunc(p.CFD.Tableau, func(pt cfd.PatternTuple) bool { return !pt.RHS[0].Wildcard })
		t.state = append(t.state, &cfdState{p: p, consts: consts, vars: p.CFD.HasVariablePattern()})
	}
	t.seed(tab.Snapshot()) // not shared yet: no locking
	return t, nil
}

// seed rebuilds the state from rsnap, decoding no row. Single-tuple
// violations are the batch core's constant check (colPrep.constAt). Groups
// are the classes of the LHS's Equal-class partition (one per LHS set, from
// a class memo) that match a variable pattern — a class matches as a
// whole — and their rows split by RHS Equal-class code. Equal-class codes
// are Key() classes, so the keys, each encoded once from a class's first
// row, are the bytes an insert writes: the index is the one inserting
// every row builds.
func (t *Tracker) seed(rsnap *relstore.Snapshot) {
	snap := rsnap.Columnar()
	ids := snap.IDs()
	t.seeded, t.next, t.dirtyRef, t.dirty = ids, 0, make([]int32, len(ids)), 0
	if len(ids) > 0 {
		t.next = ids[len(ids)-1] + 1
	}
	preps := make([]Prepared, len(t.state))
	for i, cs := range t.state {
		preps[i] = cs.p
	}
	cps, _ := bind(snap, preps)
	var opened []uint32
	for i, cs := range t.state {
		cp := &cps[i]
		*cs = cfdState{p: cs.p, consts: cs.consts, vars: cs.vars}
		if cs.consts {
			cs.single = make([]bool, len(ids))
			var at int
			mark := func(Violation) bool { cs.single[at] = true; t.ref(int32(at), 1); return false }
			for at = range ids {
				cp.constAt(at, ids[at], mark)
			}
		}
		if !cs.vars {
			continue
		}
		part, rhs := cp.lhsClasses(), cp.rhsCol
		var matched []int
		grouped := 0
		for c := range part.NumClasses() {
			if rows := part.Class(c); matchesVarColumnar(cp, int(rows[0])) {
				matched, grouped = append(matched, c), grouped+len(rows)
			}
		}
		cs.member = slices.Repeat([]membership{noMember}, len(ids))
		cs.groups, cs.classes = make(map[string]int32, len(matched)), make(map[string]int32, len(matched))
		cs.groupAt.items = make([]groupState, 0, len(matched))
		members := make([]int32, grouped)      // every group's, back to back
		seen := make([]int32, rhs.CodeSpace()) // RHS Equal-class code -> its class in the group, plus 1
		for _, c := range matched {
			rows := part.Class(c)
			t.key = t.key[:0]
			for _, col := range cp.lhsCols {
				t.key = col.Value(col.Code(int(rows[0]))).AppendGroupKey(t.key)
			}
			lhs := len(t.key)
			for _, r := range rows {
				q := rhs.EqCode(int(r))
				if seen[q] == 0 {
					t.key = rhs.Value(rhs.Code(int(r))).AppendGroupKey(t.key[:lhs])
					seen[q], opened = t.class(cs, lhs)+1, append(opened, q)
					if len(opened) == 1 {
						g := &cs.groupAt.items[cs.classAt.items[seen[q]-1].group]
						g.members, members = members[:0:len(rows)], members[len(rows):]
					}
				}
				t.join(cs, r, seen[q]-1)
			}
			for _, q := range opened {
				seen[q] = 0
			}
			opened = opened[:0]
		}
	}
}

// slot returns id's slot and whether it has one.
func (t *Tracker) slot(id relstore.TupleID) (int32, bool) {
	if id < t.next {
		r, ok := slices.BinarySearch(t.seeded, id)
		return int32(r), ok
	}
	s := len(t.seeded) + int(id-t.next)
	return int32(s), s < len(t.dirtyRef)
}

// idOf returns the id of the tuple at slot s.
func (t *Tracker) idOf(s int) relstore.TupleID {
	if s < len(t.seeded) {
		return t.seeded[s]
	}
	return t.next + relstore.TupleID(s-len(t.seeded))
}

// fits reports whether n slots stay within 2 × live + 256: the allowance
// spares a small table a re-seed every few inserts (1 024 let a 1 000-row
// tracker's slots triple).
func (t *Tracker) fits(n int) bool { return n <= 2*t.tab.Len()+256 }

// cover returns the slot of id, a tuple of the table's, adding slots up to
// it. When id cannot take one (it lies below the slots added since the
// seed) or the slots would outgrow fits, it re-bases instead — re-seeds
// from the table's current snapshot, which holds id — and reports false.
func (t *Tracker) cover(id relstore.TupleID) (int32, bool) {
	if s, ok := t.slot(id); ok {
		return s, true
	}
	if len(t.dirtyRef) == len(t.seeded) && id >= t.next {
		t.next = id // the first slot past the seed's
	}
	n := len(t.seeded) + int(id-t.next) + 1
	if id < t.next || !t.fits(n) {
		t.seed(t.tab.Snapshot())
		return 0, false
	}
	for len(t.dirtyRef) < n {
		t.dirtyRef = append(t.dirtyRef, 0)
		for _, cs := range t.state {
			if cs.consts {
				cs.single = append(cs.single, false)
			}
			if cs.vars {
				cs.member = append(cs.member, noMember)
			}
		}
	}
	return int32(n - 1), true
}

// Vio computes vio(t) for the given tuple on demand: one unit per CFD with
// a single-tuple violation plus the partner count per violating group.
func (t *Tracker) Vio(id relstore.TupleID) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if s, ok := t.slot(id); ok {
		return t.vioAt(s)
	}
	return 0
}

// vioAt is Vio of slot at under an already-held lock (any mode).
func (t *Tracker) vioAt(at int32) int {
	if t.dirtyRef[at] == 0 {
		return 0
	}
	n := 0
	for _, cs := range t.state {
		if cs.consts && cs.single[at] {
			n++
		}
		if !cs.vars || cs.member[at].class < 0 {
			continue
		}
		c := &cs.classAt.items[cs.member[at].class]
		if g := &cs.groupAt.items[c.group]; g.violating() {
			n += len(g.members) - int(c.n)
		}
	}
	return n
}

// VioMap returns the full vio(t) map (dirty tuples only).
func (t *Tracker) VioMap() map[relstore.TupleID]int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[relstore.TupleID]int, t.dirty)
	for at, n := range t.dirtyRef {
		if n > 0 {
			out[t.idOf(at)] = t.vioAt(int32(at))
		}
	}
	return out
}

// DirtyCount returns the number of tuples with vio(t) > 0.
func (t *Tracker) DirtyCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.dirty
}

// ref adjusts slot at's dirty reference count by diff (±1).
func (t *Tracker) ref(at int32, diff int32) {
	switch t.dirtyRef[at] += diff; t.dirtyRef[at] {
	case 0:
		t.dirty--
	case diff:
		t.dirty++
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
	if at, ok := t.cover(id); ok {
		for _, cs := range t.state {
			t.index(cs, at, row)
		}
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
	if at, ok := t.slot(id); ok {
		for _, cs := range t.state {
			t.unindex(cs, at)
		}
	}
	if !t.fits(len(t.dirtyRef)) {
		t.seed(t.tab.Snapshot()) // re-base
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
	at, ok := t.cover(id)
	if !ok {
		return nil
	}
	t.row, _ = t.tab.AppendRow(t.row[:0], id)
	for _, cs := range t.state {
		if pos == cs.p.RHSPos || slices.Contains(cs.p.LHSPos, pos) {
			t.unindex(cs, at)
			t.index(cs, at, t.row)
		}
	}
	return nil
}

// index adds slot at, holding row, to one CFD's state, under the write
// lock: a single-tuple violation for a non-NULL RHS unlike a matched
// constant, a group membership for a matched wildcard RHS.
func (t *Tracker) index(cs *cfdState, at int32, row relstore.Tuple) {
	single, grouped := false, false
	for i, pt := range cs.p.CFD.Tableau {
		if !cs.p.CFD.MatchLHS(i, row, cs.p.LHSPos) {
			continue
		}
		if rhs, got := pt.RHS[0], row[cs.p.RHSPos]; rhs.Wildcard {
			grouped = true
		} else if !got.IsNull() && !got.Equal(rhs.Const) {
			single = true
		}
	}
	if single {
		cs.single[at] = true
		t.ref(at, 1)
	}
	if !grouped {
		return
	}
	t.key = t.key[:0]
	for _, p := range cs.p.LHSPos {
		t.key = row[p].AppendGroupKey(t.key)
	}
	lhs := len(t.key)
	t.key = row[cs.p.RHSPos].AppendGroupKey(t.key)
	t.join(cs, at, t.class(cs, lhs))
}

// class returns the RHS class t.key names — an LHS key of lhs bytes, then
// an RHS key — creating it, and its group, when the index holds neither.
func (t *Tracker) class(cs *cfdState, lhs int) int32 {
	if ci, ok := cs.classes[string(t.key)]; ok {
		return ci
	}
	key := string(t.key)
	gi, ok := cs.groups[key[:lhs]]
	if !ok {
		gi = cs.groupAt.add(groupState{key: key[:lhs]})
		cs.groups[key[:lhs]] = gi
	}
	ci := cs.classAt.add(rhsClass{key: key, group: gi})
	cs.classes[key] = ci
	return ci
}

// join adds slot at to class ci and its group.
func (t *Tracker) join(cs *cfdState, at, ci int32) {
	c := &cs.classAt.items[ci]
	g := &cs.groupAt.items[c.group]
	wasViolating := g.violating()
	if c.n++; c.n == 1 {
		g.classes++
	}
	cs.member[at] = membership{ci, int32(len(g.members))}
	g.members = append(g.members, at)
	switch {
	case !wasViolating && g.violating():
		// The group flipped: every member becomes dirty.
		for _, m := range g.members {
			t.ref(m, 1)
		}
	case g.violating():
		t.ref(at, 1)
	}
}

// unindex removes slot at from one CFD's state, reading only the index.
func (t *Tracker) unindex(cs *cfdState, at int32) {
	if cs.consts && cs.single[at] {
		cs.single[at] = false
		t.ref(at, -1)
	}
	if !cs.vars || cs.member[at].class < 0 {
		return
	}
	m := cs.member[at]
	cs.member[at] = noMember
	c := &cs.classAt.items[m.class]
	gi := c.group
	g := &cs.groupAt.items[gi]
	wasViolating := g.violating()
	// Swap-delete at from the members, re-pointing the member moved.
	if last := g.members[len(g.members)-1]; last != at {
		g.members[m.at] = last
		cs.member[last].at = m.at
	}
	g.members = g.members[:len(g.members)-1]
	if c.n--; c.n == 0 {
		delete(cs.classes, c.key)
		cs.classAt.drop(m.class)
		g.classes--
	}
	switch {
	case wasViolating && !g.violating():
		// The group healed: the removed member plus all remaining
		// members lose this dirty source.
		t.ref(at, -1)
		for _, m := range g.members {
			t.ref(m, -1)
		}
	case wasViolating:
		t.ref(at, -1)
	}
	if len(g.members) == 0 {
		delete(cs.groups, g.key)
		cs.groupAt.drop(gi)
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
	// row finds the tuple at slot at among snap's rows.
	row := func(at int) (int32, bool) {
		r, ok := slices.BinarySearch(ids, t.idOf(at))
		complete = complete && ok
		return int32(r), ok
	}
	for i, cs := range t.state {
		cp, pt := &cps[i], &parts[i]
		*cp = newColPrep(cs.p, cols)
		add := func(v Violation) bool { pt.viols = append(pt.viols, v); return true }
		for at, hit := range cs.single {
			if !hit {
				continue
			}
			if r, ok := row(at); ok {
				cp.constAt(int(r), ids[r], add)
			}
		}
		for gi := range cs.groupAt.items {
			g := &cs.groupAt.items[gi]
			if !g.violating() {
				continue
			}
			rows := make([]int32, 0, len(g.members))
			for _, at := range g.members {
				if r, ok := row(int(at)); ok {
					rows = append(rows, r)
				}
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
