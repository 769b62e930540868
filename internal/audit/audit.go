// Package audit implements Semandaq's data auditor: it enriches the error
// detector's vio(t) counts with the statistical summary the paper's data
// quality report (Fig. 4) presents — the verified/probably/arguably clean
// classification at the tuple and attribute-value level, the violation pie
// chart, and distribution statistics over multi-tuple violations.
//
// The classifications, per the paper:
//
//   - verified clean: the tuple violates no CFD and at least one CFD with a
//     constant RHS applies to it — its values are positively vouched for;
//   - probably clean: the tuple violates no CFD;
//   - arguably clean: probably clean, or involved in a multi-tuple
//     violation where the bulk of the jointly violating tuples agree with
//     it (substantial evidence it is the correct one).
//
// The classes nest: verified ⊆ probably ⊆ arguably.
package audit

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"semandaq/internal/cfd"
	"semandaq/internal/detect"
	"semandaq/internal/relstore"
)

// TupleClass is the cleanliness classification of one tuple.
type TupleClass int

// Tuple classes, from dirtiest to cleanest.
const (
	Dirty TupleClass = iota
	ArguablyClean
	ProbablyClean
	VerifiedClean
)

// String names the class.
func (c TupleClass) String() string {
	switch c {
	case VerifiedClean:
		return "verified clean"
	case ProbablyClean:
		return "probably clean"
	case ArguablyClean:
		return "arguably clean"
	default:
		return "dirty"
	}
}

// AttrQuality is the per-attribute value-level summary (one bar of the
// Fig. 4 bar chart).
type AttrQuality struct {
	Attr     string
	Total    int // cells
	Verified int
	Probably int
	Arguably int
	Dirty    int
}

// PctVerified returns the verified-clean percentage of the attribute.
func (a AttrQuality) PctVerified() float64 { return pct(a.Verified, a.Total) }

// PctProbably returns the probably-clean percentage.
func (a AttrQuality) PctProbably() float64 { return pct(a.Probably, a.Total) }

// PctArguably returns the arguably-clean percentage.
func (a AttrQuality) PctArguably() float64 { return pct(a.Arguably, a.Total) }

func pct(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

// VioStats summarizes the distribution of vio(t) over dirty tuples and the
// multi-tuple group sizes.
type VioStats struct {
	DirtyTuples int
	TotalVio    int
	MinVio      int
	MaxVio      int
	AvgVio      float64
	Groups      int
	MinGroup    int
	MaxGroup    int
	AvgGroup    float64
}

// CFDSlice is one slice of the violation pie chart (Fig. 4).
type CFDSlice struct {
	CFDID      string
	Violations int // tuples involved (single + multi)
}

// Report is the full audit result.
type Report struct {
	Table      string
	TupleCount int
	// Version is the table version the audit reflects: the classification
	// scan runs over the same pinned snapshot the detection report was
	// computed from.
	Version int64
	// Cumulative tuple counts per class.
	VerifiedTuples int
	ProbablyTuples int
	ArguablyTuples int
	DirtyTuples    int
	// Attrs is the attribute-value-level bar chart data, schema order.
	Attrs []AttrQuality
	// Pie is the violations-per-CFD pie chart data, sorted descending.
	Pie   []CFDSlice
	Stats VioStats

	// classes classifies every tuple of the audited snapshot, parallel to
	// its ids (see Class).
	ids     []relstore.TupleID
	classes []TupleClass
}

// Class returns the class of the cleanest bucket tuple id reaches (the
// cumulative counts follow the nesting), and false when the audited
// snapshot does not hold id.
func (r *Report) Class(id relstore.TupleID) (TupleClass, bool) {
	i, ok := slices.BinarySearch(r.ids, id)
	if !ok {
		return Dirty, false
	}
	return r.classes[i], true
}

// evidence is the violation state the classification scan reads, dense
// over the pinned snapshot's rows: the flat Report and the factorised
// FactorReport both project onto it, so the two audit paths classify
// identically.
type evidence struct {
	snap *relstore.Snapshot
	ids  []relstore.TupleID
	vio  []int32 // vio(t)
	// hasSingle marks rows with a single-tuple violation, inGroup members
	// of a multi-tuple violation group, majorityBad members that fail the
	// strict-majority test in at least one of their groups.
	hasSingle, inGroup, majorityBad []bool
	// single and multi are per-row bitsets over schema positions, words
	// uint64s a row: the attributes carrying a single-tuple, respectively a
	// multi-tuple, violation of the row. Single-tuple beats multi-tuple.
	words         int
	single, multi []uint64
	attrPos       map[string]int
	stats         VioStats // the group figures, filled by group
	groupTotal    int
}

// newEvidence sizes the evidence over snap and notes the report's
// violation records viols.
func newEvidence(snap *relstore.Snapshot, viols []detect.Violation) *evidence {
	n, words := snap.Len(), (snap.Schema().Arity()+63)/64
	ev := &evidence{
		snap:        snap,
		ids:         snap.IDs(),
		hasSingle:   make([]bool, n),
		inGroup:     make([]bool, n),
		majorityBad: make([]bool, n),
		words:       words,
		single:      make([]uint64, n*words),
		multi:       make([]uint64, n*words),
		attrPos:     map[string]int{},
	}
	for i := range viols {
		v := &viols[i]
		if r, ok := ev.row(v.TupleID); ok {
			ev.note(r, v.Attr, v.Kind)
		}
	}
	return ev
}

// row returns the snapshot row of tuple id.
func (ev *evidence) row(id relstore.TupleID) (int, bool) { return slices.BinarySearch(ev.ids, id) }

// note records a violation of attr by kind in row r.
func (ev *evidence) note(r int, attr string, kind detect.Kind) {
	j, ok := ev.attrPos[attr]
	if !ok {
		if j, ok = ev.snap.Schema().Pos(attr); !ok {
			return
		}
		ev.attrPos[attr] = j
	}
	set := ev.multi
	if kind == detect.SingleTuple {
		set, ev.hasSingle[r] = ev.single, true
	}
	set[r*ev.words+j/64] |= 1 << (j % 64)
}

// group records one multi-tuple group of size members.
func (ev *evidence) group(size int) {
	st := &ev.stats
	if st.Groups == 0 || size < st.MinGroup {
		st.MinGroup = size
	}
	st.MaxGroup = max(st.MaxGroup, size)
	st.Groups++
	ev.groupTotal += size
}

// Audit computes the quality report from a detection report. snap must be
// the pinned snapshot the detection ran on (same version — the
// classification scan reads its columns and must agree with the report's
// violations), and cfds the same constraint set.
func Audit(snap *relstore.Snapshot, cfds []*cfd.CFD, rep *detect.Report) (*Report, error) {
	ev := newEvidence(snap, rep.Violations)
	ev.vio = make([]int32, len(ev.ids))
	for id, n := range rep.Vio {
		if r, ok := ev.row(id); ok {
			ev.vio[r] = int32(n)
		}
	}
	for _, g := range rep.Groups {
		ev.group(len(g.Members))
		strict := 2*g.MajoritySize() > len(g.Members)
		for _, id := range g.Members {
			if r, ok := ev.row(id); ok {
				ev.inGroup[r] = true
				ev.majorityBad[r] = ev.majorityBad[r] || !strict || g.RHSOf[id] != g.MajorityKey
			}
		}
	}
	return auditCore(ev, cfds, rep.Table, rep.TupleCount, rep.Version, rep.PerCFD)
}

// AuditFactorised computes the same quality report directly from the
// factorised detection result: vio(t) is the report's dense vector, and
// group evidence is folded per member row through the lazy RHSKeyAt
// accessor, so the exploded report — its per-member violation records and
// RHSOf maps — is never materialized.
func AuditFactorised(snap *relstore.Snapshot, cfds []*cfd.CFD, fr *detect.FactorReport) (*Report, error) {
	ev := newEvidence(snap, fr.Violations)
	ev.vio = fr.Digest().Vio
	for _, g := range fr.FactorGroups {
		ev.group(g.Size())
		strict := 2*g.MajoritySize() > g.Size()
		for i, r := range g.Rows {
			ev.note(int(r), g.Attr, detect.MultiTuple)
			ev.inGroup[r] = true
			ev.majorityBad[r] = ev.majorityBad[r] || !strict || g.RHSKeyAt(i) != g.MajorityKey
		}
	}
	return auditCore(ev, cfds, fr.Table, fr.TupleCount, fr.Version, fr.PerCFD)
}

// auditCore is the classification scan shared by Audit and
// AuditFactorised, over the snapshot's code vectors: no row is decoded.
func auditCore(ev *evidence, cfds []*cfd.CFD, table string, tupleCount int, version int64,
	perCFD map[string]*detect.CFDStats) (*Report, error) {
	sc, cols := ev.snap.Schema(), ev.snap.Columnar()
	// Prepared as detection prepares them, so pattern bookkeeping lines up
	// with violation records.
	preps, err := detect.Prepare(sc, cfds)
	if err != nil {
		return nil, err
	}
	// A verifier is one constant-RHS pattern bound to the snapshot's codes:
	// a row it applies to and whose RHS cell it matches is vouched for on rhs.
	type verifier struct {
		lhs, rhsCell detect.LHSMatcher
		rhs          int
	}
	var verifiers []verifier
	for _, p := range preps {
		lhs := make([]*relstore.Column, len(p.LHSPos))
		for k, pos := range p.LHSPos {
			lhs[k] = cols.Col(pos)
		}
		rhs := []*relstore.Column{cols.Col(p.RHSPos)}
		for _, pt := range p.CFD.Tableau {
			if !pt.RHS[0].Wildcard {
				verifiers = append(verifiers, verifier{
					lhs:     detect.BindLHS(pt, lhs),
					rhsCell: detect.BindLHS(cfd.PatternTuple{LHS: pt.RHS}, rhs),
					rhs:     p.RHSPos,
				})
			}
		}
	}

	out := &Report{
		Table:      table,
		TupleCount: tupleCount,
		Version:    version,
		Attrs:      make([]AttrQuality, sc.Arity()),
		Stats:      ev.stats,
		ids:        ev.ids,
		classes:    make([]TupleClass, len(ev.ids)),
	}
	for i, a := range sc.Attrs {
		out.Attrs[i] = AttrQuality{Attr: a.Name, Total: len(ev.ids)}
	}
	verified := make([]bool, sc.Arity()) // the scanned row's vouched-for attributes
	plain := 0                           // rows with no implicated cell
	for r := range ev.ids {
		verifiedApplies := false
		clear(verified)
		for i := range verifiers {
			if v := &verifiers[i]; v.lhs.Match(r) && v.rhsCell.Match(r) {
				verifiedApplies, verified[v.rhs] = true, true
			}
		}
		// majorityHolder: t agrees with the strict majority in every group
		// it belongs to.
		majorityHolder := ev.inGroup[r] && !ev.majorityBad[r]
		var class TupleClass
		switch {
		case ev.vio[r] == 0 && verifiedApplies:
			class = VerifiedClean
			out.VerifiedTuples++
		case ev.vio[r] == 0:
			class = ProbablyClean
			out.ProbablyTuples++
		case !ev.hasSingle[r] && majorityHolder:
			class = ArguablyClean
			out.ArguablyTuples++
		default:
			class = Dirty
			out.DirtyTuples++
		}
		out.classes[r] = class

		// Attribute-value level: a cell is implicated when its attribute
		// carries one of the tuple's violations. A row with none counts its
		// cells probably clean after the scan.
		single, multi := ev.single[r*ev.words:(r+1)*ev.words], ev.multi[r*ev.words:(r+1)*ev.words]
		implicated := uint64(0)
		for w := range single {
			implicated |= single[w] | multi[w]
		}
		if implicated == 0 {
			plain++
			for j := range verified {
				if verified[j] {
					out.Attrs[j].Verified++
				}
			}
			continue
		}
		for j := range out.Attrs {
			acc, w, bit := &out.Attrs[j], j/64, uint64(1)<<(j%64)
			switch {
			case single[w]&bit == 0 && multi[w]&bit == 0:
				acc.Probably++
				acc.Arguably++
				if verified[j] {
					acc.Verified++
				}
			case single[w]&bit == 0 && majorityHolder:
				acc.Arguably++
			}
		}
	}
	for i := range out.Attrs {
		a := &out.Attrs[i]
		a.Probably += plain
		a.Arguably += plain
		a.Dirty = a.Total - a.Arguably
	}

	// Cumulative nesting at the tuple level.
	out.ProbablyTuples += out.VerifiedTuples
	out.ArguablyTuples += out.ProbablyTuples

	// Pie chart: tuples involved per CFD.
	for id, st := range perCFD {
		n := st.SingleTuple + st.MultiTuple
		if n > 0 {
			out.Pie = append(out.Pie, CFDSlice{CFDID: id, Violations: n})
		}
	}
	slices.SortFunc(out.Pie, func(a, b CFDSlice) int {
		return cmp.Or(cmp.Compare(b.Violations, a.Violations), strings.Compare(a.CFDID, b.CFDID))
	})

	// Distribution statistics.
	st := &out.Stats
	for _, n := range ev.vio {
		if n == 0 {
			continue
		}
		if st.DirtyTuples == 0 || int(n) < st.MinVio {
			st.MinVio = int(n)
		}
		st.MaxVio = max(st.MaxVio, int(n))
		st.TotalVio += int(n)
		st.DirtyTuples++
	}
	if st.DirtyTuples > 0 {
		st.AvgVio = float64(st.TotalVio) / float64(st.DirtyTuples)
	}
	if st.Groups > 0 {
		st.AvgGroup = float64(ev.groupTotal) / float64(st.Groups)
	}
	return out, nil
}

// Render prints the report as the text analogue of the Fig. 4 screen: the
// per-attribute bar chart, the pie chart, and the statistics block.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Data quality report for %s (%d tuples, version %d)\n", r.Table, r.TupleCount, r.Version)
	fmt.Fprintf(&b, "tuples: %d verified / %d probably / %d arguably clean, %d dirty\n",
		r.VerifiedTuples, r.ProbablyTuples, r.ArguablyTuples, r.DirtyTuples)
	b.WriteString("\nattribute-value quality (% verified / probably / arguably clean):\n")
	for _, a := range r.Attrs {
		fmt.Fprintf(&b, "  %-10s %6.2f%% / %6.2f%% / %6.2f%%  %s\n",
			a.Attr, a.PctVerified(), a.PctProbably(), a.PctArguably(),
			bar(a.PctArguably()))
	}
	b.WriteString("\nviolations per CFD:\n")
	for _, s := range r.Pie {
		fmt.Fprintf(&b, "  %-16s %d\n", s.CFDID, s.Violations)
	}
	s := r.Stats
	fmt.Fprintf(&b, "\nvio(t): dirty=%d total=%d min=%d max=%d avg=%.2f\n",
		s.DirtyTuples, s.TotalVio, s.MinVio, s.MaxVio, s.AvgVio)
	fmt.Fprintf(&b, "multi-tuple groups: n=%d min=%d max=%d avg=%.2f\n",
		s.Groups, s.MinGroup, s.MaxGroup, s.AvgGroup)
	return b.String()
}

// bar renders a 0–100 percentage as a 20-char bar.
func bar(p float64) string {
	n := min(max(int(p/5), 0), 20)
	return strings.Repeat("#", n) + strings.Repeat(".", 20-n)
}
