// Factorised violation reports: the Equal-class partitions of the LHS
// columns (relstore.EqClasses, built once per run per column set) *are* a
// factorised representation of the relation, so multi-tuple violations
// don't need exploding into per-tuple rows and per-member maps to be
// reported. A FactorGroup carries the group's row refs (a zero-copy alias
// of its LHS class) plus an RHS histogram; everything per-member — the
// member's RHS key, its partner count, its Violation row — is derivable
// in O(1) from the columnar dictionaries, so reporting a 10k-member dirty
// group allocates O(distinct RHS values), not O(members).
//
// The factorised report is every engine's result: this file is the one
// columnar scan→group core and the one report assembly (the SQL detector's
// Qv keys look their groups up among the same LHS classes, and the
// incremental Tracker emits the same report from its maintained state), the
// facade caches it un-exploded, and the detect endpoint encodes its Digest
// (totals plus the dense vio(t)). Explode() lowers it to the exact flat
// Report at the compat edge (the detectors' DetectSnapshot, Tracker.Report,
// the facade's flat Detect). Byte-identity between the engines' reports, and
// agreement with internal/cfddef's definition, is the oracle, enforced by
// the fuzz and cross-check tiers. Audit, explore and both repairers read
// the factorised form on column codes (the batch repairer's first pass from
// the facade's cache); an Explode() in their loops fails an allocation
// gate (docs/INVARIANTS.md, "Held dynamically", names each).
package detect

import (
	"cmp"
	"context"
	"iter"
	"maps"
	"slices"
	"strings"

	"semandaq/internal/cfd"
	"semandaq/internal/par"
	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

// FactorGroup is one multi-tuple violation group in factorised form: the
// rows sharing an LHS value (a partition class), the histogram of their
// RHS value keys, and the column refs needed to resolve any member's RHS
// lazily. It carries no per-member maps.
type FactorGroup struct {
	CFDID string
	// Attr is the RHS attribute the group disagrees on.
	Attr string
	// LHSAttrs names the embedded FD's LHS attributes (parallel to
	// LHSValues). It is the prepared CFD's slice: callers must not mutate
	// it.
	LHSAttrs []string
	// LHSValues is the shared LHS value vector (exact values of the first
	// member, matching the legacy Group contract).
	LHSValues []types.Value
	// Rows lists the members as ascending snapshot row indexes. It aliases
	// the LHS partition class's backing storage — callers must not mutate
	// it.
	Rows []int32
	// RHSCounts counts members per RHS value key; MajorityKey is the key
	// of the largest sub-group (ties broken by key order).
	RHSCounts   map[string]int
	MajorityKey string

	rhsCol *relstore.Column
	ids    []relstore.TupleID
}

// Size returns the member count.
func (g *FactorGroup) Size() int { return len(g.Rows) }

// MajoritySize returns the size of the largest agreeing sub-group.
func (g *FactorGroup) MajoritySize() int { return g.RHSCounts[g.MajorityKey] }

// MemberAt returns the i-th member's tuple ID.
func (g *FactorGroup) MemberAt(i int) relstore.TupleID { return g.ids[g.Rows[i]] }

// RHSKeyAt returns the i-th member's RHS value key, resolved from the
// columnar dictionary in O(1) — the factorised replacement for the legacy
// RHSOf map.
func (g *FactorGroup) RHSKeyAt(i int) string {
	return g.rhsCol.KeyOf(g.rhsCol.Code(int(g.Rows[i])))
}

// violationAt returns the i-th member's multi-tuple violation record, as
// Records yields it.
func (g *FactorGroup) violationAt(i int) Violation {
	return Violation{
		CFDID:    g.CFDID,
		Kind:     MultiTuple,
		Pattern:  -1,
		TupleID:  g.MemberAt(i),
		Attr:     g.Attr,
		Partners: len(g.Rows) - g.RHSCounts[g.RHSKeyAt(i)],
	}
}

// Members materializes the member tuple IDs, in snapshot order.
func (g *FactorGroup) Members() []relstore.TupleID {
	out := make([]relstore.TupleID, len(g.Rows))
	for i, r := range g.Rows {
		out[i] = g.ids[r]
	}
	return out
}

// FactorReport is the factorised detection result: single-tuple
// violations stay explicit (they are one row each by nature), multi-tuple
// violations are factorised into FactorGroups. PerCFD statistics match
// the legacy report's exactly. Ordering is deterministic: violations in
// the canonical (tuple, CFD, kind, pattern) order, groups by (CFDID, LHS
// key). A report is immutable once built and safe to share; Records
// flattens it one record at a time.
type FactorReport struct {
	Table      string
	TupleCount int
	// Version is the pinned snapshot version the report describes.
	Version      int64
	Violations   []Violation
	PerCFD       map[string]*CFDStats
	FactorGroups []*FactorGroup

	// vio is vio(t) over snapshot row index, parallel to ids (the snapshot's
	// id vector, ascending: tuple ids are assigned monotonically).
	ids           []relstore.TupleID
	vio           []int32
	dirty, maxVio int
}

// records returns the exploded report's violation count: the single-tuple
// rows plus one row per group member.
func (fr *FactorReport) records() int {
	n := len(fr.Violations)
	for _, st := range fr.PerCFD {
		n += st.MultiTuple
	}
	return n
}

// Digest is what the detect endpoint puts on the wire: the report's totals
// and vio(t), without the violation records or the groups. IDs and Vio are
// parallel and ascending by tuple id; entries with Vio[i] == 0 are clean
// tuples (a factorised report's digest aliases the snapshot's id vector and
// its dense vio(t), so building one allocates nothing per tuple). Callers
// must not mutate the slices or the map.
type Digest struct {
	Table      string
	TupleCount int
	Version    int64
	// Violations counts the violation records of the exploded report.
	Violations int
	Dirty      int
	MaxVio     int
	PerCFD     map[string]*CFDStats
	IDs        []relstore.TupleID
	Vio        []int32
}

// Digest summarizes the factorised report for the wire.
func (fr *FactorReport) Digest() *Digest {
	return &Digest{
		Table:      fr.Table,
		TupleCount: fr.TupleCount,
		Version:    fr.Version,
		Violations: fr.records(),
		Dirty:      fr.dirty,
		MaxVio:     fr.maxVio,
		PerCFD:     fr.PerCFD,
		IDs:        fr.ids,
		Vio:        fr.vio,
	}
}

// DetectFactorised evaluates the CFDs over one pinned snapshot and
// returns the factorised report: the single-worker run of the columnar
// core ColumnarDetector is built on.
func DetectFactorised(ctx context.Context, rsnap *relstore.Snapshot, cfds []*cfd.CFD) (*FactorReport, error) {
	return detectFactorised(ctx, rsnap, cfds, 1)
}

// bindCFDs prepares the CFDs and resolves their patterns into the
// snapshot's code space. It creates the run's class memo: every CFD groups
// by its LHS set's classes from it, so CFDs with one LHS attribute set
// (phi1 and phi2 of the running example group on [CNT, ZIP]) share one
// build, and the memo goes with the run.
func bindCFDs(rsnap *relstore.Snapshot, cfds []*cfd.CFD) (*relstore.Columnar, []colPrep, *relstore.ClassMemo, error) {
	preps, err := Prepare(rsnap.Schema(), cfds)
	if err != nil {
		return nil, nil, nil, err
	}
	snap := rsnap.Columnar()
	cps, memo := bind(snap, preps)
	return snap, cps, memo, nil
}

// bind resolves prepared CFDs into snap's code space over one new class
// memo.
func bind(snap *relstore.Columnar, preps []Prepared) ([]colPrep, *relstore.ClassMemo) {
	memo := relstore.NewClassMemo(snap)
	cps := make([]colPrep, len(preps))
	for i, p := range preps {
		cps[i] = newColPrep(p, snap)
		cps[i].lhsSet, cps[i].classes = slices.Clone(p.LHSPos), memo
		slices.Sort(cps[i].lhsSet)
	}
	return cps, memo
}

// detectFactorised is the columnar scan→group core. Each prepared CFD
// contributes two independent passes — the constant-pattern scan and the
// LHS-partition grouping — which workers > 1 fans over a bounded pool. The
// passes write disjoint parts that merge in CFD order before the canonical
// sort, so the report does not depend on the worker count. No per-member
// map or per-member violation row is built.
func detectFactorised(ctx context.Context, rsnap *relstore.Snapshot, cfds []*cfd.CFD, workers int) (*FactorReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	snap, cps, _, err := bindCFDs(rsnap, cfds)
	if err != nil {
		return nil, err
	}
	ids := snap.IDs()
	parts := make([]cfdPart, len(cps))
	// Task 2i is CFD i's constant scan, task 2i+1 its grouping: they write
	// disjoint fields of parts[i].
	err = par.Each(ctx, workers, 2*len(cps), func(t int) error {
		cp, out := &cps[t/2], &parts[t/2]
		if t%2 == 1 {
			var err error
			out.groups, err = factorGroups(ctx, cp, ids)
			return err
		}
		// The constant scan: each row's single-tuple violations, in row
		// order (colPrep.constAt).
		if len(cp.constPats) == 0 {
			return nil
		}
		add := func(v Violation) bool { out.viols = append(out.viols, v); return true }
		for idx, id := range ids {
			if idx%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			cp.constAt(idx, id, add)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return assemble(snap, cps, parts), nil
}

// cfdPart is one prepared CFD's share of a report: its single-tuple
// violations and its violating groups.
type cfdPart struct {
	viols  []Violation
	groups []*FactorGroup
}

// assemble merges the per-CFD parts over snap in CFD order and applies the
// canonical order and vio(t): the one finish of every factorised report,
// batch-detected or tracker-maintained.
func assemble(snap *relstore.Columnar, cps []colPrep, parts []cfdPart) *FactorReport {
	fr := &FactorReport{
		Table:      snap.Schema().Name,
		TupleCount: snap.Len(),
		Version:    snap.Version(),
		PerCFD:     make(map[string]*CFDStats, len(cps)),
		ids:        snap.IDs(),
	}
	for i, pt := range parts {
		st := &CFDStats{Groups: len(pt.groups)}
		for _, g := range pt.groups {
			st.MultiTuple += len(g.Rows)
		}
		fr.PerCFD[cps[i].p.CFD.ID] = st
		fr.Violations = append(fr.Violations, pt.viols...)
		fr.FactorGroups = append(fr.FactorGroups, pt.groups...)
	}
	slices.SortFunc(fr.Violations, CompareViolations)
	sortByLHS(fr.FactorGroups)
	fr.fillVio()
	return fr
}

// constAt passes emit row idx's single-tuple violations — one per live
// constant pattern whose LHS codes the row matches and whose expected RHS
// it misses — and reports false as soon as emit does.
func (cp *colPrep) constAt(idx int, id relstore.TupleID, emit func(Violation) bool) bool {
	rhsExact := cp.rhsCol.Code(idx)
	if cp.hasNull && rhsExact == cp.rhsNull {
		return true // NULL RHS is never flagged, matching the SQL path
	}
	rhsEq := cp.rhsCol.EqOf(rhsExact)
	for pi := range cp.constPats {
		pat := &cp.constPats[pi]
		if !pat.lhs.Match(idx) || (pat.expOK && rhsEq == pat.expCode) {
			continue
		}
		if !emit(Violation{
			CFDID:    cp.p.CFD.ID,
			Kind:     SingleTuple,
			Pattern:  pat.idx,
			TupleID:  id,
			Attr:     cp.p.CFD.RHS[0],
			Expected: cp.p.CFD.Tableau[pat.idx].RHS[0].Const,
			Got:      cp.rhsCol.Value(rhsExact),
		}) {
			return false
		}
	}
	return true
}

// factorGroups finds one CFD's multi-tuple violation groups. The shared LHS
// partition is the grouping: rows of one class share their LHS codes, so a
// class matches the variable patterns as a whole, and each matching
// multi-row class is a candidate group whose rows are emitted by reference.
func factorGroups(ctx context.Context, cp *colPrep, ids []relstore.TupleID) ([]*FactorGroup, error) {
	if len(cp.varPats) == 0 {
		return nil, nil
	}
	var out []*FactorGroup
	codeCounts := make(map[uint32]int, 8)
	err := eachCandidate(ctx, cp, func(rows []int32) error {
		if !matchesVarColumnar(cp, int(rows[0])) {
			return nil
		}
		if g := newFactorGroup(cp, rows, codeCounts, ids); g != nil {
			out = append(out, g)
		}
		return nil
	})
	return out, err
}

// eachCandidate calls fn on every multi-row class of the CFD's LHS
// classes, in class order, polling ctx per cancelStride rows, and stops at
// fn's first error.
func eachCandidate(ctx context.Context, cp *colPrep, fn func(rows []int32) error) error {
	if err := ctx.Err(); err != nil {
		return err // polled per pass: the memo may hold the classes already
	}
	part := cp.lhsClasses()
	seen := 0
	for c := 0; c < part.NumClasses(); c++ {
		rows := part.Class(c)
		if len(rows) < 2 {
			continue
		}
		if seen += len(rows); seen >= cancelStride {
			seen = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := fn(rows); err != nil {
			return err
		}
	}
	return nil
}

// lhsValues returns row's LHS value vector: the exact stored values.
func lhsValues(cp *colPrep, row int32) []types.Value {
	vals := make([]types.Value, len(cp.lhsCols))
	for k, col := range cp.lhsCols {
		vals[k] = col.Value(col.Code(int(row)))
	}
	return vals
}

// newFactorGroup computes one candidate group's RHS histogram over exact
// dictionary codes and returns the factorised group when the group
// disagrees, nil when it is clean. codeCounts is the caller's reusable
// scratch map.
func newFactorGroup(cp *colPrep, rows []int32, codeCounts map[uint32]int,
	ids []relstore.TupleID) *FactorGroup {
	// Purity pre-check in raw codes: a clean group (the overwhelmingly
	// common case) costs zero allocations.
	rhs := cp.rhsCol
	pure := true
	first := rhs.Code(int(rows[0]))
	for _, r := range rows[1:] {
		if rhs.Code(int(r)) != first {
			pure = false
			break
		}
	}
	if pure {
		return nil
	}
	clear(codeCounts)
	for _, r := range rows {
		codeCounts[rhs.Code(int(r))]++
	}
	counts := make(map[string]int, len(codeCounts))
	for code, n := range codeCounts {
		counts[rhs.KeyOf(code)] += n
	}
	if len(counts) <= 1 {
		return nil // distinct exact codes sharing one key: INT 1 and FLOAT 1.0 agree
	}
	return &FactorGroup{
		CFDID:       cp.p.CFD.ID,
		Attr:        cp.p.CFD.RHS[0],
		LHSAttrs:    cp.p.CFD.LHS,
		LHSValues:   lhsValues(cp, rows[0]),
		Rows:        rows,
		RHSCounts:   counts,
		MajorityKey: majorityKey(counts),
		rhsCol:      rhs,
		ids:         ids,
	}
}

// fillVio computes the dense vio(t), its totals and the per-CFD
// single-tuple counts with integer adds: +1 per (tuple, CFD) with a
// single-tuple violation — equal pairs are adjacent in the sorted slice,
// however many patterns fired — and +partners per group member, resolved
// per distinct RHS code instead of per member key.
func (fr *FactorReport) fillVio() {
	fr.vio = make([]int32, len(fr.ids))
	row := 0
	for i := range fr.Violations {
		v := &fr.Violations[i]
		if i > 0 && fr.Violations[i-1].TupleID == v.TupleID && fr.Violations[i-1].CFDID == v.CFDID {
			continue
		}
		for fr.ids[row] != v.TupleID {
			row++
		}
		fr.vio[row]++
		fr.PerCFD[v.CFDID].SingleTuple++
	}
	partners := make(map[uint32]int32, 8)
	for _, g := range fr.FactorGroups {
		clear(partners)
		for _, r := range g.Rows {
			code := g.rhsCol.Code(int(r))
			p, ok := partners[code]
			if !ok {
				p = int32(len(g.Rows) - g.RHSCounts[g.rhsCol.KeyOf(code)])
				partners[code] = p
			}
			fr.vio[r] += p
		}
	}
	for _, v := range fr.vio {
		if v > 0 {
			fr.dirty++
			fr.maxVio = max(fr.maxVio, int(v))
		}
	}
}

// Records yields the report's violation records — the single-tuple rows and
// one row per group member — in the canonical (tuple, CFD, kind, pattern)
// order, building each as the consumer asks for it. The single-tuple rows
// are stored in that order and each group's members ascend by row (so by
// tuple id); a heap over the groups' next members merges them, so a full
// iteration allocates O(groups) and writes nothing into the shared report.
func (fr *FactorReport) Records() iter.Seq[Violation] {
	return func(yield func(Violation) bool) {
		h := fr.firstMembers()
		singles := fr.Violations
		for len(singles) > 0 || len(h) > 0 {
			if len(h) == 0 || len(singles) > 0 && singleFirst(&singles[0], h[0], fr.FactorGroups[h[0].g]) {
				if !yield(singles[0]) {
					return
				}
				singles = singles[1:]
				continue
			}
			c := &h[0]
			g := fr.FactorGroups[c.g]
			i := int(c.i)
			if !yield(g.violationAt(i)) {
				return
			}
			if i++; i < len(g.Rows) {
				c.i, c.id = int32(i), g.MemberAt(i)
				h.down(0)
			} else {
				h.pop()
			}
		}
	}
}

// memberCursor is a group's next member in Records' merge: its tuple id,
// the rank of the group's CFD id among the report's (groups are sorted by
// CFD id, so ranks compare as the ids do), the group and the member index.
type memberCursor struct {
	id   relstore.TupleID
	rank int32
	g, i int32
}

// memberHeap is a min-heap of cursors by (tuple id, CFD rank). A tuple is
// in at most one group per CFD, so the key is unique.
type memberHeap []memberCursor

// firstMembers returns the heap of every group's first member.
func (fr *FactorReport) firstMembers() memberHeap {
	h := make(memberHeap, 0, len(fr.FactorGroups))
	rank := int32(0)
	for gi, g := range fr.FactorGroups {
		if gi > 0 && g.CFDID != fr.FactorGroups[gi-1].CFDID {
			rank++
		}
		h = append(h, memberCursor{id: g.MemberAt(0), rank: rank, g: int32(gi)})
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h
}

func (h memberHeap) less(a, b int) bool {
	return h[a].id < h[b].id || (h[a].id == h[b].id && h[a].rank < h[b].rank)
}

// down restores the heap order below i.
func (h memberHeap) down(i int) {
	for {
		m, l := i, 2*i+1
		if l < len(h) && h.less(l, m) {
			m = l
		}
		if r := l + 1; r < len(h) && h.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// pop removes the heap's minimum.
func (h *memberHeap) pop() {
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	*h = (*h)[:n]
	h.down(0)
}

// singleFirst reports whether the single-tuple row v precedes the member
// at c, of group g: by tuple id, then CFD id — a single-tuple row sorts
// before a member row of the same tuple and CFD.
func singleFirst(v *Violation, c memberCursor, g *FactorGroup) bool {
	if v.TupleID != c.id {
		return v.TupleID < c.id
	}
	return v.CFDID <= g.CFDID
}

// Explode lowers the factorised report to the exact flat Report: Records,
// the RHSOf maps and vio(t), groups in the report's order — byte-identical
// (DeepEqual) whichever engine built the report. It is the compatibility
// edge for consumers that want the exploded form; hot paths consume the
// factorised report directly instead (their allocation gates fail on an
// Explode in a loop).
func (fr *FactorReport) Explode() *Report {
	rep := &Report{
		Table:      fr.Table,
		TupleCount: fr.TupleCount,
		Version:    fr.Version,
		PerCFD:     make(map[string]*CFDStats, len(fr.PerCFD)),
		Vio:        make(map[relstore.TupleID]int, fr.dirty),
	}
	for id, st := range fr.PerCFD {
		cp := *st
		rep.PerCFD[id] = &cp
	}
	if total := fr.records(); total > 0 {
		rep.Violations = slices.AppendSeq(make([]Violation, 0, total), fr.Records())
	}
	for i, n := range fr.vio {
		if n > 0 {
			rep.Vio[fr.ids[i]] = int(n)
		}
	}
	for _, g := range fr.FactorGroups {
		members := g.Members()
		rhsOf := make(map[relstore.TupleID]string, len(members))
		for i, id := range members {
			rhsOf[id] = g.RHSKeyAt(i)
		}
		rep.Groups = append(rep.Groups, &Group{
			CFDID:       g.CFDID,
			Attr:        g.Attr,
			LHSAttrs:    append([]string(nil), g.LHSAttrs...),
			LHSValues:   append([]types.Value(nil), g.LHSValues...),
			Members:     members,
			RHSOf:       rhsOf,
			RHSCounts:   maps.Clone(g.RHSCounts),
			MajorityKey: g.MajorityKey,
		})
	}
	return rep
}

// CompareViolations is the canonical report order: (tuple, CFD, kind,
// pattern). The key is unique per record, so the order is total.
func CompareViolations(a, b Violation) int {
	if c := cmp.Compare(a.TupleID, b.TupleID); c != 0 {
		return c // the common case, decided without the string compare
	}
	return cmp.Or(
		strings.Compare(a.CFDID, b.CFDID),
		cmp.Compare(a.Kind, b.Kind),
		cmp.Compare(a.Pattern, b.Pattern),
	)
}

// sortByLHS orders groups by (CFD id, LHS group key), encoding each
// group's key once instead of per comparison.
func sortByLHS(gs []*FactorGroup) {
	type keyed struct {
		cfdID, lhs string
		g          *FactorGroup
	}
	ks := make([]keyed, len(gs))
	for i, g := range gs {
		ks[i] = keyed{g.CFDID, lhsKey(g.LHSValues), g}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		return cmp.Or(strings.Compare(a.cfdID, b.cfdID), strings.Compare(a.lhs, b.lhs))
	})
	for i := range ks {
		gs[i] = ks[i].g
	}
}
