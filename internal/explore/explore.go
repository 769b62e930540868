// Package explore implements Semandaq's data explorer: the interactive
// drill-down of the paper's Fig. 2 (FD → pattern tuples → matching LHS
// values → RHS values → tuples, with violation counts at every step), the
// reverse exploration (tuple → relevant CFDs and patterns), and the Fig. 3
// tuple-level data quality map.
package explore

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"semandaq/internal/cfd"
	"semandaq/internal/detect"
	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

// Explorer answers drill-down queries over one pinned table snapshot, one
// CFD set and one detection report — every level of the drill-down reads
// the exact version the report was detected on, so counts never drift
// while the live table keeps mutating. Build a new Explorer to see fresher
// data. An Explorer is immutable once built and safe for concurrent use.
type Explorer struct {
	tab   *relstore.Snapshot
	preps []detect.Prepared
	// The report's index, dense over the snapshot's rows: per CFD, each
	// row's violation of it and the number of violating rows; per CFD, the
	// majority RHS key of each violating group by LHS group key; vio(t).
	viol     map[string][]violation
	nViol    map[string]int
	majority map[string]map[string]string
	vio      []int32
	maxVio   int
}

// violation is one row's violation of one CFD: none, only as a member of a
// multi-tuple group, or single-tuple (which outranks multi-tuple).
type violation uint8

const (
	clean violation = iota
	multiOnly
	single
)

// New builds an explorer from a flat report. snap must be the pinned
// snapshot the report was detected on; cfds must be the set the report was
// detected with (they are normalized and merged identically).
func New(snap *relstore.Snapshot, cfds []*cfd.CFD, rep *detect.Report) (*Explorer, error) {
	e, err := newExplorer(snap, cfds, rep.Violations)
	if err != nil {
		return nil, err
	}
	for _, g := range rep.Groups {
		e.addMajority(g.CFDID, g.LHSValues, g.MajorityKey)
	}
	e.vio = make([]int32, snap.Len())
	for id, n := range rep.Vio {
		if r, ok := slices.BinarySearch(snap.IDs(), id); ok {
			e.vio[r] = int32(n)
		}
	}
	e.maxVio = rep.MaxVio()
	return e, nil
}

// NewFactorised builds the same explorer as New from the factorised report
// over snap: group members mark their rows directly and vio(t) is the
// report's dense vector, so nothing is exploded.
func NewFactorised(snap *relstore.Snapshot, cfds []*cfd.CFD, fr *detect.FactorReport) (*Explorer, error) {
	e, err := newExplorer(snap, cfds, fr.Violations)
	if err != nil {
		return nil, err
	}
	for _, g := range fr.FactorGroups {
		for _, r := range g.Rows {
			e.mark(g.CFDID, int(r), detect.MultiTuple)
		}
		e.addMajority(g.CFDID, g.LHSValues, g.MajorityKey)
	}
	d := fr.Digest()
	e.vio, e.maxVio = d.Vio, d.MaxVio
	return e, nil
}

// newExplorer validates and merges cfds against snap, sizes the index and
// marks the rows of the report's violation records viols.
func newExplorer(snap *relstore.Snapshot, cfds []*cfd.CFD, viols []detect.Violation) (*Explorer, error) {
	preps, err := detect.Prepare(snap.Schema(), cfds)
	if err != nil {
		return nil, err
	}
	e := &Explorer{
		tab:      snap,
		preps:    preps,
		viol:     map[string][]violation{},
		nViol:    map[string]int{},
		majority: map[string]map[string]string{},
	}
	for _, p := range preps {
		e.viol[p.CFD.ID] = make([]violation, snap.Len())
		e.majority[p.CFD.ID] = map[string]string{}
	}
	for _, v := range viols {
		if r, ok := slices.BinarySearch(snap.IDs(), v.TupleID); ok {
			e.mark(v.CFDID, r, v.Kind)
		}
	}
	return e, nil
}

// mark records row r's violation of CFD cfdID by kind.
func (e *Explorer) mark(cfdID string, r int, kind detect.Kind) {
	rows := e.viol[cfdID]
	if rows == nil {
		return
	}
	if rows[r] == clean {
		e.nViol[cfdID]++
		rows[r] = multiOnly
	}
	if kind == detect.SingleTuple {
		rows[r] = single
	}
}

// addMajority indexes a violating group's majority RHS key by its LHS.
func (e *Explorer) addMajority(cfdID string, lhs []types.Value, key string) {
	if m := e.majority[cfdID]; m != nil {
		m[groupKey(lhs)] = key
	}
}

// groupKey encodes an LHS value vector in the shared AppendGroupKey form:
// the key the majorities are indexed by and RHSValues looks its group's
// majority up with, once per call.
func groupKey(vals []types.Value) string {
	var scratch [64]byte
	b := scratch[:0]
	for _, v := range vals {
		b = v.AppendGroupKey(b)
	}
	return string(b)
}

// CFDInfo is the first drill-down level: one embedded FD with its tableau
// size and total violation count (the leftmost table in Fig. 2).
type CFDInfo struct {
	ID         string
	FD         string // "customer: [CNT, ZIP] -> [STR]"
	Patterns   int
	Violations int // tuples violating this CFD
}

// CFDs lists the constraints, in registration order.
func (e *Explorer) CFDs() []CFDInfo {
	out := make([]CFDInfo, 0, len(e.preps))
	for _, p := range e.preps {
		c := p.CFD
		out = append(out, CFDInfo{
			ID:         c.ID,
			FD:         fmt.Sprintf("%s: [%s] -> [%s]", c.Table, strings.Join(c.LHS, ", "), strings.Join(c.RHS, ", ")),
			Patterns:   len(c.Tableau),
			Violations: e.nViol[c.ID],
		})
	}
	return out
}

func (e *Explorer) find(cfdID string) (*detect.Prepared, error) {
	for i := range e.preps {
		if e.preps[i].CFD.ID == cfdID {
			return &e.preps[i], nil
		}
	}
	return nil, fmt.Errorf("explore: no CFD %q", cfdID)
}

// PatternInfo is the second level: one pattern tuple with the number of
// matching tuples and the number of violations among them.
type PatternInfo struct {
	Index      int
	Pattern    string // "(UK, _ || _)"
	Constant   bool   // constant RHS
	Matches    int
	Violations int
}

// Patterns lists the tableau of one CFD with per-pattern statistics.
func (e *Explorer) Patterns(cfdID string) ([]PatternInfo, error) {
	p, err := e.find(cfdID)
	if err != nil {
		return nil, err
	}
	c := p.CFD
	lhs, _ := e.cols(p)
	out := make([]PatternInfo, len(c.Tableau))
	match := make([]detect.LHSMatcher, len(c.Tableau))
	for i := range c.Tableau {
		out[i] = PatternInfo{
			Index:    i,
			Pattern:  c.Tableau[i].String(),
			Constant: c.IsConstantPattern(i),
		}
		match[i] = detect.BindLHS(c.Tableau[i], lhs)
	}
	viol := e.viol[cfdID]
	for idx := range viol {
		for i := range match {
			if !match[i].Match(idx) {
				continue
			}
			out[i].Matches++
			if viol[idx] != clean {
				out[i].Violations++
			}
		}
	}
	return out, nil
}

// cols returns the pinned snapshot's columns of one CFD's LHS attributes,
// in order, and of its RHS attribute.
func (e *Explorer) cols(p *detect.Prepared) ([]*relstore.Column, *relstore.Column) {
	snap := e.tab.Columnar()
	lhs := make([]*relstore.Column, len(p.LHSPos))
	for k, pos := range p.LHSPos {
		lhs[k] = snap.Col(pos)
	}
	return lhs, snap.Col(p.RHSPos)
}

// scope is one (CFD, pattern) bound to the pinned snapshot's codes.
type scope struct {
	match  detect.LHSMatcher
	lhsPos []int
	lhs    []*relstore.Column
	rhs    *relstore.Column
	viol   []violation
}

// scope binds pattern of CFD cfdID, failing on an unknown CFD or pattern.
func (e *Explorer) scope(cfdID string, pattern int) (*scope, error) {
	p, err := e.find(cfdID)
	if err != nil {
		return nil, err
	}
	if pattern < 0 || pattern >= len(p.CFD.Tableau) {
		return nil, fmt.Errorf("explore: CFD %s has no pattern %d", cfdID, pattern)
	}
	s := &scope{lhsPos: p.LHSPos, viol: e.viol[cfdID]}
	s.lhs, s.rhs = e.cols(p)
	s.match = detect.BindLHS(p.CFD.Tableau[pattern], s.lhs)
	return s, nil
}

// group binds an LHS value vector as an all-constant pattern: it matches
// the rows of that LHS group, and no row when the vector's arity is wrong.
func (s *scope) group(vals []types.Value) detect.LHSMatcher {
	pt := cfd.PatternTuple{LHS: make([]cfd.PatternValue, len(vals))}
	for k, v := range vals {
		pt.LHS[k] = cfd.Constant(v)
	}
	return detect.BindLHS(pt, s.lhs)
}

// LHSGroup is the third level: one distinct LHS value vector among the
// tuples matching a pattern, with tuple and violation counts.
type LHSGroup struct {
	Values     []types.Value
	Tuples     int
	RHSValues  int // distinct RHS values within the group
	Violations int
}

// LHSGroups lists the distinct matching LHS values for one pattern.
func (e *Explorer) LHSGroups(cfdID string, pattern int) ([]LHSGroup, error) {
	s, err := e.scope(cfdID, pattern)
	if err != nil {
		return nil, err
	}
	// A group is a class of the LHS columns' Equal-class partition, which
	// matches the pattern as a whole, and its distinct RHS values are its
	// rows' distinct RHS Equal-class codes. Classes come in order of their
	// first rows.
	part := e.tab.Columnar().EqClasses(slices.Sorted(slices.Values(s.lhsPos)))
	var matched []int
	for c := range part.NumClasses() {
		if s.match.Match(int(part.Class(c)[0])) {
			matched = append(matched, c)
		}
	}
	out := make([]LHSGroup, len(matched))
	vals, arity := make([]types.Value, len(matched)*len(s.lhs)), len(s.lhs)
	counted := make([]int32, s.rhs.CodeSpace()) // RHS Equal-class code -> the last group counting it, plus 1
	for g, c := range matched {
		rows := part.Class(c)
		v := vals[g*arity : (g+1)*arity : (g+1)*arity]
		for k, col := range s.lhs {
			v[k] = col.Value(col.Code(int(rows[0])))
		}
		out[g] = LHSGroup{Values: v, Tuples: len(rows)}
		for _, r := range rows {
			if q := s.rhs.EqCode(int(r)); counted[q] != int32(g+1) {
				counted[q] = int32(g + 1)
				out[g].RHSValues++
			}
			if s.viol[r] != clean {
				out[g].Violations++
			}
		}
	}
	// Violating groups first, then by size.
	slices.SortStableFunc(out, func(a, b LHSGroup) int {
		return cmp.Or(cmp.Compare(min(b.Violations, 1), min(a.Violations, 1)), cmp.Compare(b.Tuples, a.Tuples))
	})
	return out, nil
}

// RHSValue is the fourth level: one distinct RHS value among a LHS group's
// tuples (Fig. 2's fourth table — three streets for one UK zip).
type RHSValue struct {
	Value      types.Value
	Tuples     int
	Violations int
	Majority   bool // the bulk value of the group, when in conflict
}

// RHSValues lists the distinct RHS values within one LHS group.
func (e *Explorer) RHSValues(cfdID string, pattern int, lhsVals []types.Value) ([]RHSValue, error) {
	s, err := e.scope(cfdID, pattern)
	if err != nil {
		return nil, err
	}
	out := []RHSValue{}
	grp := s.group(lhsVals)
	index := map[uint32]int{} // RHS Equal-class code -> out index
	for idx := range s.viol {
		if !grp.Match(idx) || !s.match.Match(idx) {
			continue
		}
		code := s.rhs.Code(idx)
		i, ok := index[s.rhs.EqOf(code)]
		if !ok {
			i = len(out)
			index[s.rhs.EqOf(code)] = i
			out = append(out, RHSValue{Value: s.rhs.Value(code)})
		}
		out[i].Tuples++
		if s.viol[idx] != clean {
			out[i].Violations++
		}
	}
	if key := e.majority[cfdID][groupKey(lhsVals)]; key != "" {
		for i := range out {
			out[i].Majority = out[i].Value.Key() == key
		}
	}
	slices.SortStableFunc(out, func(a, b RHSValue) int { return cmp.Compare(b.Tuples, a.Tuples) })
	return out, nil
}

// TupleRow pairs a tuple with its vio(t) for the final drill-down level.
type TupleRow struct {
	ID  relstore.TupleID
	Row relstore.Tuple
	Vio int
}

// Tuples lists the tuples of one LHS group holding one RHS value.
func (e *Explorer) Tuples(cfdID string, pattern int, lhsVals []types.Value, rhsVal types.Value) ([]TupleRow, error) {
	s, err := e.scope(cfdID, pattern)
	if err != nil {
		return nil, err
	}
	rhs, ok := s.rhs.EqCodeOf(rhsVal)
	if !ok {
		return nil, nil
	}
	grp := s.group(lhsVals)
	var out []TupleRow
	for idx, id := range e.tab.IDs() {
		if s.rhs.EqCode(idx) == rhs && grp.Match(idx) && s.match.Match(idx) {
			out = append(out, TupleRow{ID: id, Row: e.tab.Row(idx), Vio: int(e.vio[idx])})
		}
	}
	return out, nil
}

// Relevance is the reverse exploration: one (CFD, pattern) applying to a
// tuple, with whether the tuple violates it — "the reasons why the tuple is
// regarded as a violation".
type Relevance struct {
	CFDID    string
	Pattern  int
	Text     string // pattern rendering
	Violated bool
	Kind     detect.Kind // meaningful when Violated
}

// Version returns the table version the explorer's drill-down reflects.
func (e *Explorer) Version() int64 { return e.tab.Version() }

// ErrNoTuple is ForTuple's error for an id the pinned table does not hold.
var ErrNoTuple = errors.New("explore: no tuple")

// ForTuple lists every CFD pattern whose LHS the tuple matches.
func (e *Explorer) ForTuple(id relstore.TupleID) ([]Relevance, error) {
	row, ok := e.tab.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w %d", ErrNoTuple, id)
	}
	r, _ := slices.BinarySearch(e.tab.IDs(), id)
	var out []Relevance
	for _, p := range e.preps {
		c, viol := p.CFD, e.viol[p.CFD.ID][r]
		for i := range c.Tableau {
			if !c.MatchLHS(i, row, p.LHSPos) {
				continue
			}
			rel := Relevance{CFDID: c.ID, Pattern: i, Text: c.Tableau[i].String(), Violated: viol != clean}
			if viol == multiOnly {
				rel.Kind = detect.MultiTuple
			}
			out = append(out, rel)
		}
	}
	return out, nil
}

// MapEntry is one row of the Fig. 3 tuple-level data quality map.
type MapEntry struct {
	ID     relstore.TupleID
	Vio    int
	Bucket int // 0 (clean) .. 4 (dirtiest), the "color" of the row
}

// QualityMap returns every tuple's vio(t) bucketed into 5 intensity levels
// scaled by the maximum observed vio, plus a histogram of the buckets.
func (e *Explorer) QualityMap() ([]MapEntry, [5]int) {
	var hist [5]int
	ids := e.tab.IDs()
	out := make([]MapEntry, len(ids))
	for i, id := range ids {
		v := int(e.vio[i])
		b := bucket(v, e.maxVio)
		hist[b]++
		out[i] = MapEntry{ID: id, Vio: v, Bucket: b}
	}
	return out, hist
}

// bucket maps a vio count to a 0..4 intensity on a log scale: vio(t) is
// dominated by multi-tuple partner counts, which span orders of magnitude
// when group sizes differ (one bad tuple in a 1000-tuple group gives every
// member vio >= 1), so a linear scale would wash the map out.
func bucket(v, max int) int {
	if v == 0 || max == 0 {
		return 0
	}
	if v > max {
		v = max
	}
	den := math.Log2(float64(max) + 1)
	if den <= 0 {
		return 1
	}
	b := 1 + int(3*math.Log2(float64(v)+1)/den)
	if b > 4 {
		b = 4
	}
	return b
}
