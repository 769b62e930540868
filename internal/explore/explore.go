// Package explore implements Semandaq's data explorer: the interactive
// drill-down of the paper's Fig. 2 (FD → pattern tuples → matching LHS
// values → RHS values → tuples, with violation counts at every step), the
// reverse exploration (tuple → relevant CFDs and patterns), and the Fig. 3
// tuple-level data quality map.
package explore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
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
// data.
type Explorer struct {
	tab    *relstore.Snapshot
	merged []*cfd.CFD
	rep    *detect.Report

	lhsPos map[string][]int // by CFD ID
	rhsPos map[string]int
	// violatingIDs is the set of tuples with a violation per CFD.
	violatingIDs map[string]map[relstore.TupleID]bool
	// groupByLHSKey indexes multi-tuple groups by CFD and LHS key.
	groupByLHSKey map[string]map[string]*detect.Group
}

// New builds an explorer. snap must be the pinned snapshot the report was
// detected on; cfds must be the set the report was detected with (they are
// normalized and merged identically).
func New(snap *relstore.Snapshot, cfds []*cfd.CFD, rep *detect.Report) (*Explorer, error) {
	sc := snap.Schema()
	var normalized []*cfd.CFD
	for _, c := range cfds {
		if err := c.Validate(sc); err != nil {
			return nil, err
		}
		normalized = append(normalized, c.Normalize()...)
	}
	merged := cfd.MergeByFD(normalized)
	e := &Explorer{
		tab:           snap,
		merged:        merged,
		rep:           rep,
		lhsPos:        map[string][]int{},
		rhsPos:        map[string]int{},
		violatingIDs:  map[string]map[relstore.TupleID]bool{},
		groupByLHSKey: map[string]map[string]*detect.Group{},
	}
	for _, c := range merged {
		lp, err := sc.Positions(c.LHS)
		if err != nil {
			return nil, err
		}
		rp, err := sc.Positions(c.RHS)
		if err != nil {
			return nil, err
		}
		e.lhsPos[c.ID] = lp
		e.rhsPos[c.ID] = rp[0]
		e.violatingIDs[c.ID] = map[relstore.TupleID]bool{}
	}
	for _, v := range rep.Violations {
		if m := e.violatingIDs[v.CFDID]; m != nil {
			m[v.TupleID] = true
		}
	}
	for _, g := range rep.Groups {
		m := e.groupByLHSKey[g.CFDID]
		if m == nil {
			m = map[string]*detect.Group{}
			e.groupByLHSKey[g.CFDID] = m
		}
		m[groupKey(g.LHSValues)] = g
	}
	return e, nil
}

// groupKey encodes an LHS value vector in the shared WriteGroupKey form:
// the key New indexes the report's groups by and RHSValues looks its
// group's majority up with, once per call.
func groupKey(vals []types.Value) string {
	var b strings.Builder
	for _, v := range vals {
		v.WriteGroupKey(&b)
	}
	return b.String()
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
	out := make([]CFDInfo, 0, len(e.merged))
	for _, c := range e.merged {
		out = append(out, CFDInfo{
			ID:         c.ID,
			FD:         fmt.Sprintf("%s: [%s] -> [%s]", c.Table, strings.Join(c.LHS, ", "), strings.Join(c.RHS, ", ")),
			Patterns:   len(c.Tableau),
			Violations: len(e.violatingIDs[c.ID]),
		})
	}
	return out
}

func (e *Explorer) find(cfdID string) (*cfd.CFD, error) {
	for _, c := range e.merged {
		if c.ID == cfdID {
			return c, nil
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
	c, err := e.find(cfdID)
	if err != nil {
		return nil, err
	}
	lhs, _ := e.cols(cfdID)
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
	viol := e.violatingIDs[cfdID]
	for idx, id := range e.tab.IDs() {
		for i := range match {
			if !match[i].Match(idx) {
				continue
			}
			out[i].Matches++
			if viol[id] {
				out[i].Violations++
			}
		}
	}
	return out, nil
}

// cols returns the pinned snapshot's columns of one CFD's LHS attributes,
// in order, and of its RHS attribute.
func (e *Explorer) cols(cfdID string) ([]*relstore.Column, *relstore.Column) {
	snap := e.tab.Columnar()
	lhs := make([]*relstore.Column, len(e.lhsPos[cfdID]))
	for k, pos := range e.lhsPos[cfdID] {
		lhs[k] = snap.Col(pos)
	}
	return lhs, snap.Col(e.rhsPos[cfdID])
}

// scope is one (CFD, pattern) bound to the pinned snapshot's codes.
type scope struct {
	match detect.LHSMatcher
	lhs   []*relstore.Column
	rhs   *relstore.Column
	viol  map[relstore.TupleID]bool
}

// scope binds pattern of CFD cfdID, failing on an unknown CFD or pattern.
func (e *Explorer) scope(cfdID string, pattern int) (*scope, error) {
	c, err := e.find(cfdID)
	if err != nil {
		return nil, err
	}
	if pattern < 0 || pattern >= len(c.Tableau) {
		return nil, fmt.Errorf("explore: CFD %s has no pattern %d", cfdID, pattern)
	}
	s := &scope{viol: e.violatingIDs[cfdID]}
	s.lhs, s.rhs = e.cols(cfdID)
	s.match = detect.BindLHS(c.Tableau[pattern], s.lhs)
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
	// Groups are keyed by the LHS columns' Equal-class codes, and a group's
	// distinct RHS values are its distinct (group, RHS Equal-class) pairs.
	out := []LHSGroup{}
	index := map[string]int{}
	pairs := map[uint64]struct{}{}
	key := make([]byte, 0, 4*len(s.lhs))
	for idx, id := range e.tab.IDs() {
		if !s.match.Match(idx) {
			continue
		}
		key = key[:0]
		for _, col := range s.lhs {
			key = binary.LittleEndian.AppendUint32(key, col.EqCode(idx))
		}
		g, ok := index[string(key)]
		if !ok {
			g = len(out)
			index[string(key)] = g
			vals := make([]types.Value, len(s.lhs))
			for k, col := range s.lhs {
				vals[k] = col.Value(col.Code(idx))
			}
			out = append(out, LHSGroup{Values: vals})
		}
		out[g].Tuples++
		pair := uint64(g)<<32 | uint64(s.rhs.EqCode(idx))
		if _, seen := pairs[pair]; !seen {
			pairs[pair] = struct{}{}
			out[g].RHSValues++
		}
		if s.viol[id] {
			out[g].Violations++
		}
	}
	// Violating groups first, then by size.
	sort.SliceStable(out, func(i, j int) bool {
		if (out[i].Violations > 0) != (out[j].Violations > 0) {
			return out[i].Violations > 0
		}
		return out[i].Tuples > out[j].Tuples
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
	for idx, id := range e.tab.IDs() {
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
		if s.viol[id] {
			out[i].Violations++
		}
	}
	if g, ok := e.groupByLHSKey[cfdID][groupKey(lhsVals)]; ok && g.MajorityKey != "" {
		for i := range out {
			out[i].Majority = out[i].Value.Key() == g.MajorityKey
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Tuples > out[j].Tuples })
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
			out = append(out, TupleRow{ID: id, Row: e.tab.Row(idx), Vio: e.rep.Vio[id]})
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
	// Index this tuple's violations by CFD and kind.
	kinds := map[string]detect.Kind{}
	violated := map[string]bool{}
	for _, v := range e.rep.Violations {
		if v.TupleID != id {
			continue
		}
		violated[v.CFDID] = true
		if prev, ok := kinds[v.CFDID]; !ok || prev == detect.MultiTuple {
			kinds[v.CFDID] = v.Kind
		}
	}
	var out []Relevance
	for _, c := range e.merged {
		lhsPos := e.lhsPos[c.ID]
		for i := range c.Tableau {
			if !c.MatchLHS(i, row, lhsPos) {
				continue
			}
			out = append(out, Relevance{
				CFDID:    c.ID,
				Pattern:  i,
				Text:     c.Tableau[i].String(),
				Violated: violated[c.ID],
				Kind:     kinds[c.ID],
			})
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
	max := e.rep.MaxVio()
	var hist [5]int
	ids := e.tab.IDs()
	out := make([]MapEntry, len(ids))
	for i, id := range ids {
		v := e.rep.Vio[id]
		b := bucket(v, max)
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
