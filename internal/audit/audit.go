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
	"fmt"
	"sort"
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
	// Tuples classifies every tuple (class of the cleanest bucket it
	// reaches; the cumulative counts below follow the nesting).
	Tuples map[relstore.TupleID]TupleClass
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
}

// auditIndex is the per-tuple violation evidence the classification scan
// consumes, abstracted over the report representation: the legacy exploded
// Report and the factorised FactorReport both project onto it, and the
// shared core guarantees the two audit paths classify identically.
type auditIndex struct {
	table      string
	tupleCount int
	version    int64
	// vio is vio(t) for every dirty tuple (the legacy Report.Vio).
	vio map[relstore.TupleID]int
	// hasSingle marks tuples with at least one single-tuple violation.
	hasSingle map[relstore.TupleID]bool
	// attrViol maps tuple -> lowercased attribute -> strongest violation
	// kind on that attribute (single-tuple beats multi-tuple).
	attrViol map[relstore.TupleID]map[string]detect.Kind
	// inGroup marks multi-tuple group members; majorityBad marks members
	// that fail the strict-majority test in at least one of their groups.
	inGroup     map[relstore.TupleID]bool
	majorityBad map[relstore.TupleID]bool
	perCFD      map[string]*detect.CFDStats
	groupSizes  []int
}

// noteAttrViol records one violated attribute with kind precedence.
func (ix *auditIndex) noteAttrViol(id relstore.TupleID, attr string, kind detect.Kind) {
	m := ix.attrViol[id]
	if m == nil {
		m = map[string]detect.Kind{}
		ix.attrViol[id] = m
	}
	// Single-tuple beats multi-tuple when both hit the same attribute.
	if prev, ok := m[strings.ToLower(attr)]; !ok || prev == detect.MultiTuple {
		m[strings.ToLower(attr)] = kind
	}
}

func newAuditIndex(table string, tupleCount int, version int64) *auditIndex {
	return &auditIndex{
		table:       table,
		tupleCount:  tupleCount,
		version:     version,
		vio:         map[relstore.TupleID]int{},
		hasSingle:   map[relstore.TupleID]bool{},
		attrViol:    map[relstore.TupleID]map[string]detect.Kind{},
		inGroup:     map[relstore.TupleID]bool{},
		majorityBad: map[relstore.TupleID]bool{},
	}
}

// Audit computes the quality report from a detection report. snap must be
// the pinned snapshot the detection ran on (same version — the
// classification scan re-reads the rows and must agree with the report's
// violations), and cfds the same constraint set.
func Audit(snap *relstore.Snapshot, cfds []*cfd.CFD, rep *detect.Report) (*Report, error) {
	ix := newAuditIndex(rep.Table, rep.TupleCount, rep.Version)
	ix.vio = rep.Vio
	ix.perCFD = rep.PerCFD
	for i := range rep.Violations {
		v := &rep.Violations[i]
		if v.Kind == detect.SingleTuple {
			ix.hasSingle[v.TupleID] = true
		}
		ix.noteAttrViol(v.TupleID, v.Attr, v.Kind)
	}
	for _, g := range rep.Groups {
		ix.groupSizes = append(ix.groupSizes, len(g.Members))
		strict := 2*g.MajoritySize() > len(g.Members)
		for _, id := range g.Members {
			ix.inGroup[id] = true
			if !strict || g.RHSOf[id] != g.MajorityKey {
				ix.majorityBad[id] = true
			}
		}
	}
	return auditCore(snap, cfds, ix)
}

// AuditFactorised computes the same quality report directly from the
// factorised detection result: group evidence is folded per member via the
// lazy RHSKeyAt accessor, so the exploded report — its per-member
// violation records and RHSOf maps — is never materialized.
func AuditFactorised(snap *relstore.Snapshot, cfds []*cfd.CFD, fr *detect.FactorReport) (*Report, error) {
	ix := newAuditIndex(fr.Table, fr.TupleCount, fr.Version)
	ix.perCFD = fr.PerCFD
	// vio(t) comes from the report's dense vector, not the violation records.
	d := fr.Digest()
	for i, n := range d.Vio {
		if n > 0 {
			ix.vio[d.IDs[i]] = int(n)
		}
	}
	for i := range fr.Violations {
		v := &fr.Violations[i]
		ix.hasSingle[v.TupleID] = true
		ix.noteAttrViol(v.TupleID, v.Attr, v.Kind)
	}
	for _, g := range fr.FactorGroups {
		ix.groupSizes = append(ix.groupSizes, g.Size())
		strict := 2*g.MajoritySize() > g.Size()
		for i := 0; i < g.Size(); i++ {
			id := g.MemberAt(i)
			rk := g.RHSKeyAt(i)
			ix.inGroup[id] = true
			ix.noteAttrViol(id, g.Attr, detect.MultiTuple)
			if !strict || rk != g.MajorityKey {
				ix.majorityBad[id] = true
			}
		}
	}
	return auditCore(snap, cfds, ix)
}

// auditCore is the classification scan shared by Audit and
// AuditFactorised.
func auditCore(snap *relstore.Snapshot, cfds []*cfd.CFD, ix *auditIndex) (*Report, error) {
	sc := snap.Schema()
	// Normalize + merge the same way detection does so pattern bookkeeping
	// lines up with violation records.
	var normalized []*cfd.CFD
	for _, c := range cfds {
		if err := c.Validate(sc); err != nil {
			return nil, err
		}
		normalized = append(normalized, c.Normalize()...)
	}
	merged := cfd.MergeByFD(normalized)

	out := &Report{
		Table:      ix.table,
		TupleCount: ix.tupleCount,
		Version:    ix.version,
		Tuples:     make(map[relstore.TupleID]TupleClass, ix.tupleCount),
	}

	// Precompute, per merged CFD, the positions needed for the "applies"
	// check of verified-cleanliness.
	type applier struct {
		c      *cfd.CFD
		lhsPos []int
		rhsPos []int
		consts []int // constant-RHS pattern indexes
	}
	var appliers []applier
	for _, c := range merged {
		lhsPos, err := sc.Positions(c.LHS)
		if err != nil {
			return nil, err
		}
		rhsPos, err := sc.Positions(c.RHS)
		if err != nil {
			return nil, err
		}
		a := applier{c: c, lhsPos: lhsPos, rhsPos: rhsPos}
		for i := range c.Tableau {
			if !c.Tableau[i].RHS[0].Wildcard {
				a.consts = append(a.consts, i)
			}
		}
		if len(a.consts) > 0 {
			appliers = append(appliers, a)
		}
	}

	// Attribute-level accumulators, schema order. lower holds the names as
	// attrViol keys them; verified marks, for the row being scanned, the
	// attributes a matching constant pattern vouches for.
	attrAcc := make([]AttrQuality, sc.Arity())
	lower := make([]string, sc.Arity())
	verified := make([]bool, sc.Arity())
	for i, a := range sc.Attrs {
		attrAcc[i].Attr = a.Name
		lower[i] = strings.ToLower(a.Name)
	}

	// majorityHolder reports whether t agrees with the strict majority in
	// every group it belongs to.
	majorityHolder := func(id relstore.TupleID) bool {
		return ix.inGroup[id] && !ix.majorityBad[id]
	}

	snap.Scan(func(id relstore.TupleID, row relstore.Tuple) bool {
		hasViolation := ix.vio[id] > 0
		hasSingle := ix.hasSingle[id]

		// Does a constant-RHS pattern apply to (and verify) this tuple?
		verifiedApplies := false
		clear(verified)
		for _, a := range appliers {
			for _, pi := range a.consts {
				if !a.c.MatchLHS(pi, row, a.lhsPos) {
					continue
				}
				if a.c.MatchRHS(pi, row, a.rhsPos) {
					verifiedApplies = true
					verified[a.rhsPos[0]] = true
				}
			}
		}

		var class TupleClass
		switch {
		case !hasViolation && verifiedApplies:
			class = VerifiedClean
		case !hasViolation:
			class = ProbablyClean
		case !hasSingle && majorityHolder(id):
			class = ArguablyClean
		default:
			class = Dirty
		}
		out.Tuples[id] = class
		switch class {
		case VerifiedClean:
			out.VerifiedTuples++
		case ProbablyClean:
			out.ProbablyTuples++
		case ArguablyClean:
			out.ArguablyTuples++
		default:
			out.DirtyTuples++
		}

		// Attribute-value level: a cell is implicated when its attribute
		// carries one of the tuple's violations.
		viol := ix.attrViol[id]
		for i := range attrAcc {
			acc := &attrAcc[i]
			acc.Total++
			kind, implicated := viol[lower[i]]
			switch {
			case !implicated && verified[i]:
				acc.Verified++
				acc.Probably++
				acc.Arguably++
			case !implicated:
				acc.Probably++
				acc.Arguably++
			case kind == detect.MultiTuple && majorityHolder(id):
				acc.Arguably++
			default:
				acc.Dirty++
			}
		}
		return true
	})
	// Dirty at the attribute level = total - arguably.
	for i := range attrAcc {
		attrAcc[i].Dirty = attrAcc[i].Total - attrAcc[i].Arguably
	}
	out.Attrs = attrAcc

	// Cumulative nesting at the tuple level.
	out.ProbablyTuples += out.VerifiedTuples
	out.ArguablyTuples += out.ProbablyTuples

	// Pie chart: tuples involved per CFD.
	for id, st := range ix.perCFD {
		n := st.SingleTuple + st.MultiTuple
		if n > 0 {
			out.Pie = append(out.Pie, CFDSlice{CFDID: id, Violations: n})
		}
	}
	sort.Slice(out.Pie, func(i, j int) bool {
		if out.Pie[i].Violations != out.Pie[j].Violations {
			return out.Pie[i].Violations > out.Pie[j].Violations
		}
		return out.Pie[i].CFDID < out.Pie[j].CFDID
	})

	// Distribution statistics.
	st := &out.Stats
	st.DirtyTuples = len(ix.vio)
	first := true
	for _, n := range ix.vio {
		st.TotalVio += n
		if first || n < st.MinVio {
			st.MinVio = n
		}
		if n > st.MaxVio {
			st.MaxVio = n
		}
		first = false
	}
	if st.DirtyTuples > 0 {
		st.AvgVio = float64(st.TotalVio) / float64(st.DirtyTuples)
	}
	st.Groups = len(ix.groupSizes)
	firstG := true
	totalG := 0
	for _, n := range ix.groupSizes {
		totalG += n
		if firstG || n < st.MinGroup {
			st.MinGroup = n
		}
		if n > st.MaxGroup {
			st.MaxGroup = n
		}
		firstG = false
	}
	if st.Groups > 0 {
		st.AvgGroup = float64(totalG) / float64(st.Groups)
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
	n := int(p / 5)
	if n < 0 {
		n = 0
	}
	if n > 20 {
		n = 20
	}
	return strings.Repeat("#", n) + strings.Repeat(".", 20-n)
}
