// Factorised violation reports: the PLI partitions the columnar layer
// already maintains *are* a factorised representation of the relation, so
// multi-tuple violations don't need exploding into per-tuple rows and
// per-member maps to be reported. A FactorGroup carries the group's row
// refs (for a single-attribute LHS a zero-copy alias of the column's
// partition class) plus an RHS histogram; everything per-member — the
// member's RHS key, its partner count, its Violation row — is derivable
// in O(1) from the columnar dictionaries, so reporting a 10k-member dirty
// group allocates O(distinct RHS values), not O(members).
//
// The factorised report is every engine's result: this file is the one
// columnar scan→group core and the one report assembly (the SQL detector's
// Qv keys pick their groups from the same LHS partitions, and the
// incremental Tracker emits the same report from its maintained state), the
// facade caches it un-exploded, and the detect endpoint encodes its Digest
// (totals plus the dense vio(t)). Explode() lowers it to the exact flat
// Report at the compat edge (the detectors' DetectSnapshot, Tracker.Report,
// the facade's flat Detect). Byte-identity between the engines' reports, and
// agreement with internal/cfddef's definition, is the oracle, enforced by
// the fuzz and cross-check tiers. Audit, explore and both repairers read
// the factorised form on column codes (the batch repairer's first pass from
// the facade's cache); calling Explode() inside those hot paths is
// forbidden by the noexplode vet analyzer.
package detect

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"

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

// PartnersAt returns the i-th member's vio(t) increment: the number of
// members disagreeing with it.
func (g *FactorGroup) PartnersAt(i int) int {
	return len(g.Rows) - g.RHSCounts[g.RHSKeyAt(i)]
}

// violationAt returns the i-th member's multi-tuple violation record, as
// the exploded report and the violation stream carry it, given the member's
// RHS key.
func (g *FactorGroup) violationAt(i int, rhsKey string) Violation {
	return Violation{
		CFDID:    g.CFDID,
		Kind:     MultiTuple,
		Pattern:  -1,
		TupleID:  g.MemberAt(i),
		Attr:     g.Attr,
		Partners: len(g.Rows) - g.RHSCounts[rhsKey],
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
// the legacy sort order, groups by (CFDID, LHS key) — the same order
// finish() gives the exploded report. A report is immutable once built and
// safe to share.
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
// core every columnar entry point (ColumnarDetector, the violation stream)
// is built on.
func DetectFactorised(ctx context.Context, rsnap *relstore.Snapshot, cfds []*cfd.CFD) (*FactorReport, error) {
	return detectFactorised(ctx, rsnap, cfds, 1)
}

// bindCFDs prepares the CFDs and resolves their patterns into the
// snapshot's code space. CFDs with one LHS attribute list share one
// lhsPartition.
func bindCFDs(rsnap *relstore.Snapshot, cfds []*cfd.CFD) (*relstore.Columnar, []colPrep, error) {
	preps, err := prepare(rsnap.Schema(), cfds)
	if err != nil {
		return nil, nil, err
	}
	snap := rsnap.Columnar()
	cps := make([]colPrep, len(preps))
	parts := make(map[string]*lhsPartition, len(preps))
	for i, p := range preps {
		cps[i] = newColPrep(p, snap)
		lhs := fmt.Sprint(p.lhsPos)
		if parts[lhs] == nil {
			parts[lhs] = new(lhsPartition)
		}
		cps[i].part = parts[lhs]
	}
	return snap, cps, nil
}

// lhsPartition is the partition of a snapshot's rows by one LHS attribute
// list, computed once per detect call by the first grouping pass that needs
// it and shared with every CFD grouping on the same list (phi1 and phi2 of
// the running example both group on [CNT, ZIP]). It is not cached on the
// snapshot.
type lhsPartition struct {
	once sync.Once
	part *relstore.Partition
	err  error
}

// get returns the partition of cols: the first column's cached PLI, refined
// by Intersect per further column.
func (lp *lhsPartition) get(ctx context.Context, cols []*relstore.Column) (*relstore.Partition, error) {
	lp.once.Do(func() {
		part := cols[0].PLI() // prepare() rejects an empty LHS
		for _, col := range cols[1:] {
			if lp.err = ctx.Err(); lp.err != nil {
				return
			}
			part = part.Intersect(col.EqProbe())
		}
		lp.part = part
	})
	return lp.part, lp.err
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
	snap, cps, err := bindCFDs(rsnap, cfds)
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
		for v, err := range constScan(ctx, cp, ids) {
			if err != nil {
				return err
			}
			out.viols = append(out.viols, v)
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
		fr.PerCFD[cps[i].p.c.ID] = st
		fr.Violations = append(fr.Violations, pt.viols...)
		fr.FactorGroups = append(fr.FactorGroups, pt.groups...)
	}
	sortViolations(fr.Violations)
	sortByLHS(fr.FactorGroups, func(g *FactorGroup) (string, []types.Value) { return g.CFDID, g.LHSValues })
	fr.fillVio()
	return fr
}

// constScan yields one CFD's single-tuple violations in row order: each
// row's RHS code is checked against every live constant pattern its LHS
// codes match. A done ctx ends the sequence with one terminal error.
func constScan(ctx context.Context, cp *colPrep, ids []relstore.TupleID) ViolationSeq {
	return func(yield func(Violation, error) bool) {
		if len(cp.constPats) == 0 {
			return
		}
		emit := func(v Violation) bool { return yield(v, nil) }
		for idx, id := range ids {
			if idx%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					yield(Violation{}, err)
					return
				}
			}
			if !cp.constAt(idx, id, emit) {
				return
			}
		}
	}
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
			CFDID:    cp.p.c.ID,
			Kind:     SingleTuple,
			Pattern:  pat.idx,
			TupleID:  id,
			Attr:     cp.p.c.RHS[0],
			Expected: cp.p.c.Tableau[pat.idx].RHS[0].Const,
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
// partition, in class order, polling ctx per cancelStride rows, and stops
// at fn's first error.
func eachCandidate(ctx context.Context, cp *colPrep, fn func(rows []int32) error) error {
	if err := ctx.Err(); err != nil {
		return err // polled per pass: a shared partition may need no build here
	}
	part, err := cp.part.get(ctx, cp.lhsCols)
	if err != nil {
		return err
	}
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
		CFDID:       cp.p.c.ID,
		Attr:        cp.p.c.RHS[0],
		LHSAttrs:    cp.p.c.LHS,
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

// Explode lowers the factorised report to the exact flat Report: every
// member's Violation row, the RHSOf maps, vio(t) and the finish() sort
// order — byte-identical (DeepEqual) whichever engine built the report.
// It is the compatibility edge for consumers that want the exploded form;
// hot paths consume the factorised report directly instead (the noexplode
// analyzer enforces this).
func (fr *FactorReport) Explode() *Report {
	rep := &Report{
		Table:      fr.Table,
		TupleCount: fr.TupleCount,
		Version:    fr.Version,
		PerCFD:     make(map[string]*CFDStats, len(fr.PerCFD)),
	}
	for id, st := range fr.PerCFD {
		cp := *st
		rep.PerCFD[id] = &cp
	}
	if total := fr.records(); total > 0 {
		rep.Violations = make([]Violation, 0, total)
		rep.Violations = append(rep.Violations, fr.Violations...)
	}
	for _, g := range fr.FactorGroups {
		members := g.Members()
		rhsOf := make(map[relstore.TupleID]string, len(members))
		for i, id := range members {
			rhsOf[id] = g.RHSKeyAt(i)
			rep.Violations = append(rep.Violations, g.violationAt(i, rhsOf[id]))
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
	finish(rep)
	return rep
}

// sortViolations applies the canonical report order: (tuple, CFD, kind,
// pattern). The key is unique per record, so the order is total.
func sortViolations(vs []Violation) {
	slices.SortFunc(vs, func(a, b Violation) int {
		if c := cmp.Compare(a.TupleID, b.TupleID); c != 0 {
			return c // the common case, decided without the string compare
		}
		return cmp.Or(
			strings.Compare(a.CFDID, b.CFDID),
			cmp.Compare(a.Kind, b.Kind),
			cmp.Compare(a.Pattern, b.Pattern),
		)
	})
}

// sortByLHS orders groups (of either form) by (CFD id, LHS group key),
// encoding each group's key once instead of per comparison.
func sortByLHS[G any](gs []G, groupKey func(G) (cfdID string, lhs []types.Value)) {
	type keyed struct {
		cfdID, lhs string
		g          G
	}
	ks := make([]keyed, len(gs))
	for i, g := range gs {
		id, lhs := groupKey(g)
		ks[i] = keyed{id, lhsKey(lhs), g}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		return cmp.Or(strings.Compare(a.cfdID, b.cfdID), strings.Compare(a.lhs, b.lhs))
	})
	for i := range ks {
		gs[i] = ks[i].g
	}
}
