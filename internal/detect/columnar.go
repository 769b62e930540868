package detect

import (
	"context"

	"semandaq/internal/cfd"
	"semandaq/internal/relstore"
)

// ColumnarDetector computes the detection report over the table's columnar
// snapshot (relstore.Columnar): it runs the factorised core (factor.go) and
// explodes the result at this compat edge. The report is the SQL engine's —
// same violations, same group and member order — but the work is integer
// work:
//
//   - a pattern constant is translated once per detection into the
//     column's Equal-class code, so matching a tuple against a pattern
//     cell is one uint32 comparison instead of a Value.Equal call;
//   - multi-tuple groups are classes of the LHS columns' Equal-class
//     codes (relstore.EqClasses, built once per run per column set from
//     the columns' probe vectors), instead of a length-prefixed Key()
//     string rebuilt per tuple per CFD (the WriteGroupKey encoding remains
//     the cross-snapshot key format, used by the incremental tracker);
//   - the RHS value key of a group member is the dictionary's precomputed
//     Key() string, shared by every member with that value.
//
// Workers > 1 fans the per-CFD passes over that many goroutines; the
// report does not depend on the worker count. Callers that can consume the
// factorised form should take DetectFactorised and skip the explosion.
type ColumnarDetector struct {
	Workers int
}

// colCell is one LHS pattern cell translated into a column's code space.
type colCell struct {
	wild bool
	code uint32 // Equal-class code of the constant; valid when !wild
}

// LHSMatcher is one tableau pattern's LHS bound to a snapshot's code space:
// each constant is resolved once, with EqCodeOf, to its column's
// Equal-class code, so matching a row is one integer compare per constant.
// It is the one code-level LHS matcher: detection's constant scan and
// grouping and the explorer's drill-down all match through it.
type LHSMatcher struct {
	cols  []*relstore.Column
	cells []colCell
	// dead marks an LHS constant that no stored value Equals, or an LHS of
	// another arity than cols: the pattern cannot match any row of this
	// snapshot.
	dead bool
}

// BindLHS binds the LHS cells of pattern pt to cols, the snapshot columns
// of the CFD's LHS attributes in order.
func BindLHS(pt cfd.PatternTuple, cols []*relstore.Column) LHSMatcher {
	m := LHSMatcher{cols: cols, cells: make([]colCell, len(cols)), dead: len(pt.LHS) != len(cols)}
	if m.dead {
		return m
	}
	for k, pv := range pt.LHS {
		if pv.Wildcard {
			m.cells[k].wild = true
			continue
		}
		code, ok := cols[k].EqCodeOf(pv.Const)
		m.dead = m.dead || !ok
		m.cells[k].code = code
	}
	return m
}

// Match reports whether snapshot row idx matches the pattern's LHS.
func (m *LHSMatcher) Match(idx int) bool {
	if m.dead {
		return false
	}
	for k := range m.cells {
		if !m.cells[k].wild && m.cols[k].EqCode(idx) != m.cells[k].code {
			return false
		}
	}
	return true
}

// colPattern is one tableau pattern resolved against a snapshot.
type colPattern struct {
	idx int // index in the (merged, normalized) tableau
	lhs LHSMatcher
	// Constant-RHS patterns only: the expected Equal-class code. expOK is
	// false when the constant is absent from the column's dictionary, in
	// which case every matching tuple with a non-NULL RHS is a violation.
	expCode uint32
	expOK   bool
}

// colPrep is one prepared CFD bound to a columnar snapshot.
type colPrep struct {
	p         prepared
	lhsCols   []*relstore.Column
	rhsCol    *relstore.Column
	rhsNull   uint32 // exact (= Equal-class) code of NULL in the RHS column
	hasNull   bool
	constPats []colPattern
	varPats   []colPattern
	// lhsSet is the LHS's column positions, ascending: its key in classes,
	// the run's memo.
	lhsSet  []int
	classes *relstore.ClassMemo
}

// lhsClasses returns the Equal-class partition of the CFD's LHS from the
// run's memo.
func (cp *colPrep) lhsClasses() *relstore.EqClasses { return cp.classes.Get(cp.lhsSet) }

// newColPrep resolves the prepared CFD's patterns into snapshot codes.
func newColPrep(p prepared, snap *relstore.Columnar) colPrep {
	cp := colPrep{
		p:       p,
		lhsCols: make([]*relstore.Column, len(p.lhsPos)),
		rhsCol:  snap.Col(p.rhsPos),
	}
	cp.rhsNull, cp.hasNull = cp.rhsCol.NullCode()
	for k, pos := range p.lhsPos {
		cp.lhsCols[k] = snap.Col(pos)
	}
	if p.c.HasVariablePattern() {
		cp.rhsCol.EnsureKeys() // group RHS keys sit in the scan's hot loop
	}
	for i := range p.c.Tableau {
		pat := colPattern{idx: i, lhs: BindLHS(p.c.Tableau[i], cp.lhsCols)}
		if rhs := p.c.Tableau[i].RHS[0]; rhs.Wildcard {
			cp.varPats = append(cp.varPats, pat)
		} else {
			pat.expCode, pat.expOK = cp.rhsCol.EqCodeOf(rhs.Const)
			cp.constPats = append(cp.constPats, pat)
		}
	}
	return cp
}

// matchesVarColumnar reports whether row idx matches at least one live
// variable pattern's LHS.
func matchesVarColumnar(cp *colPrep, idx int) bool {
	for pi := range cp.varPats {
		if cp.varPats[pi].lhs.Match(idx) {
			return true
		}
	}
	return false
}

// Detect implements Detector.
func (d ColumnarDetector) Detect(ctx context.Context, tab *relstore.Table, cfds []*cfd.CFD) (*Report, error) {
	return d.DetectSnapshot(ctx, tab.Snapshot(), cfds)
}

// DetectSnapshot implements SnapshotDetector: the factorised evaluation
// over one pinned table version, exploded to the flat report.
func (d ColumnarDetector) DetectSnapshot(ctx context.Context, snap *relstore.Snapshot, cfds []*cfd.CFD) (*Report, error) {
	fr, err := d.DetectFactorised(ctx, snap, cfds)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err // the explosion below is not interruptible
	}
	return fr.Explode(), nil
}

// DetectFactorised implements FactorDetector: the report in its primary,
// un-exploded form.
func (d ColumnarDetector) DetectFactorised(ctx context.Context, snap *relstore.Snapshot, cfds []*cfd.CFD) (*FactorReport, error) {
	return detectFactorised(ctx, snap, cfds, d.Workers)
}
