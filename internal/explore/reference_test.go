package explore

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/datagen"
	"semandaq/internal/detect"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// The row-scan explorer the code-keyed one replaced, kept as its reference:
// every level decodes each row, matches patterns with Value.Equal and groups
// by the rows' AppendGroupKey strings, and reads the flat report through the
// maps it used to index it by.

// ref is the reference's index of a flat report: the violating tuple ids
// per CFD and the groups per CFD by LHS key.
type ref struct {
	rep    *detect.Report
	viol   map[string]map[relstore.TupleID]bool
	groups map[string]map[string]*detect.Group
}

func newRef(rep *detect.Report) *ref {
	x := &ref{rep: rep, viol: map[string]map[relstore.TupleID]bool{}, groups: map[string]map[string]*detect.Group{}}
	for _, v := range rep.Violations {
		if x.viol[v.CFDID] == nil {
			x.viol[v.CFDID] = map[relstore.TupleID]bool{}
		}
		x.viol[v.CFDID][v.TupleID] = true
	}
	for _, g := range rep.Groups {
		if x.groups[g.CFDID] == nil {
			x.groups[g.CFDID] = map[string]*detect.Group{}
		}
		x.groups[g.CFDID][groupKey(g.LHSValues)] = g
	}
	return x
}

func (x *ref) cfds(e *Explorer) []CFDInfo {
	var out []CFDInfo
	for _, p := range e.preps {
		c := p.CFD
		out = append(out, CFDInfo{
			ID:         c.ID,
			FD:         fmt.Sprintf("%s: [%s] -> [%s]", c.Table, strings.Join(c.LHS, ", "), strings.Join(c.RHS, ", ")),
			Patterns:   len(c.Tableau),
			Violations: len(x.viol[c.ID]),
		})
	}
	return out
}

func (x *ref) forTuple(e *Explorer, id relstore.TupleID) []Relevance {
	row, _ := e.tab.Get(id)
	kinds := map[string]detect.Kind{}
	violated := map[string]bool{}
	for _, v := range x.rep.Violations {
		if v.TupleID != id {
			continue
		}
		violated[v.CFDID] = true
		if prev, ok := kinds[v.CFDID]; !ok || prev == detect.MultiTuple {
			kinds[v.CFDID] = v.Kind
		}
	}
	var out []Relevance
	for _, p := range e.preps {
		c := p.CFD
		for i := range c.Tableau {
			if c.MatchLHS(i, row, p.LHSPos) {
				out = append(out, Relevance{CFDID: c.ID, Pattern: i, Text: c.Tableau[i].String(), Violated: violated[c.ID], Kind: kinds[c.ID]})
			}
		}
	}
	return out
}

func (x *ref) patterns(e *Explorer, cfdID string) []PatternInfo {
	p, _ := e.find(cfdID)
	c, lhsPos := p.CFD, p.LHSPos
	out := make([]PatternInfo, len(c.Tableau))
	for i := range c.Tableau {
		out[i] = PatternInfo{Index: i, Pattern: c.Tableau[i].String(), Constant: c.IsConstantPattern(i)}
	}
	viol := x.viol[cfdID]
	e.tab.Scan(func(id relstore.TupleID, row relstore.Tuple) bool {
		for i := range c.Tableau {
			if !c.MatchLHS(i, row, lhsPos) {
				continue
			}
			out[i].Matches++
			if viol[id] {
				out[i].Violations++
			}
		}
		return true
	})
	return out
}

func (x *ref) lhsGroups(e *Explorer, cfdID string, pattern int) []LHSGroup {
	p, _ := e.find(cfdID)
	c, lhsPos, rhsPos, viol := p.CFD, p.LHSPos, p.RHSPos, x.viol[cfdID]
	type acc struct {
		vals  []types.Value
		n     int
		rhs   map[string]bool
		nViol int
	}
	groups := map[string]*acc{}
	var order []string
	e.tab.Scan(func(id relstore.TupleID, row relstore.Tuple) bool {
		if !c.MatchLHS(pattern, row, lhsPos) {
			return true
		}
		key := keyOn(row, lhsPos)
		g, ok := groups[key]
		if !ok {
			vals := make([]types.Value, len(lhsPos))
			for k, p := range lhsPos {
				vals[k] = row[p]
			}
			g = &acc{vals: vals, rhs: map[string]bool{}}
			groups[key] = g
			order = append(order, key)
		}
		g.n++
		g.rhs[row[rhsPos].Key()] = true
		if viol[id] {
			g.nViol++
		}
		return true
	})
	out := make([]LHSGroup, 0, len(order))
	for _, key := range order {
		g := groups[key]
		out = append(out, LHSGroup{Values: g.vals, Tuples: g.n, RHSValues: len(g.rhs), Violations: g.nViol})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if (out[i].Violations > 0) != (out[j].Violations > 0) {
			return out[i].Violations > 0
		}
		return out[i].Tuples > out[j].Tuples
	})
	return out
}

func (x *ref) rhsValues(e *Explorer, cfdID string, pattern int, lhsVals []types.Value) []RHSValue {
	p, _ := e.find(cfdID)
	c, lhsPos, rhsPos, viol := p.CFD, p.LHSPos, p.RHSPos, x.viol[cfdID]
	want := groupKey(lhsVals)
	type acc struct {
		val      types.Value
		n, nViol int
	}
	vals := map[string]*acc{}
	var order []string
	e.tab.Scan(func(id relstore.TupleID, row relstore.Tuple) bool {
		if !c.MatchLHS(pattern, row, lhsPos) || keyOn(row, lhsPos) != want {
			return true
		}
		k := row[rhsPos].Key()
		a, ok := vals[k]
		if !ok {
			a = &acc{val: row[rhsPos]}
			vals[k] = a
			order = append(order, k)
		}
		a.n++
		if viol[id] {
			a.nViol++
		}
		return true
	})
	var majKey string
	if g, ok := x.groups[cfdID][want]; ok {
		majKey = g.MajorityKey
	}
	out := make([]RHSValue, 0, len(order))
	for _, k := range order {
		a := vals[k]
		out = append(out, RHSValue{Value: a.val, Tuples: a.n, Violations: a.nViol, Majority: majKey != "" && k == majKey})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Tuples > out[j].Tuples })
	return out
}

func (x *ref) tuples(e *Explorer, cfdID string, pattern int, lhsVals []types.Value, rhsVal types.Value) []TupleRow {
	p, _ := e.find(cfdID)
	c, lhsPos, rhsPos := p.CFD, p.LHSPos, p.RHSPos
	want := groupKey(lhsVals)
	var out []TupleRow
	e.tab.Scan(func(id relstore.TupleID, row relstore.Tuple) bool {
		if c.MatchLHS(pattern, row, lhsPos) && keyOn(row, lhsPos) == want && row[rhsPos].Equal(rhsVal) {
			out = append(out, TupleRow{ID: id, Row: row.Clone(), Vio: x.rep.Vio[id]})
		}
		return true
	})
	return out
}

// keyOn is row's group key on the positions, in groupKey's encoding.
func keyOn(row relstore.Tuple, pos []int) string {
	var key []byte
	for _, p := range pos {
		key = row[p].AppendGroupKey(key)
	}
	return string(key)
}

func (x *ref) qualityMap(e *Explorer) ([]MapEntry, [5]int) {
	max := x.rep.MaxVio()
	var hist [5]int
	var out []MapEntry
	e.tab.Scan(func(id relstore.TupleID, _ relstore.Tuple) bool {
		v := x.rep.Vio[id]
		b := bucket(v, max)
		hist[b]++
		out = append(out, MapEntry{ID: id, Vio: v, Bucket: b})
		return true
	})
	return out, hist
}

// checkAgainstReference compares every level of the explorer with the
// reference: every CFD's patterns, every pattern's LHS groups, and every
// group's RHS values and the tuples of each of them, plus the quality map
// and every tuple's reverse exploration. Extra LHS vectors (a wrong arity,
// values absent from their column) go through RHSValues and Tuples too.
func checkAgainstReference(t *testing.T, e *Explorer, x *ref, extra ...[]types.Value) {
	t.Helper()
	// %#v spells every field of a Value (kind and payload), nil apart from
	// empty, and NaN like NaN, where DeepEqual finds no NaN equal to itself.
	same := func(what string, got, want any) {
		t.Helper()
		if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
			t.Fatalf("%s:\n got %s\nwant %s", what, g, w)
		}
	}
	gotMap, gotHist := e.QualityMap()
	wantMap, wantHist := x.qualityMap(e)
	same("QualityMap", gotMap, wantMap)
	same("QualityMap histogram", gotHist, wantHist)
	for _, id := range e.tab.IDs() {
		rels, err := e.ForTuple(id)
		if err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprint("ForTuple ", id), rels, x.forTuple(e, id))
	}
	same("CFDs", e.CFDs(), x.cfds(e))
	for _, info := range e.CFDs() {
		pats, err := e.Patterns(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		same("Patterns "+info.ID, pats, x.patterns(e, info.ID))
		for p := range pats {
			groups, err := e.LHSGroups(info.ID, p)
			if err != nil {
				t.Fatal(err)
			}
			at := fmt.Sprintf("%s pattern %d", info.ID, p)
			same("LHSGroups "+at, groups, x.lhsGroups(e, info.ID, p))
			lhsVecs := extra
			for _, g := range groups {
				lhsVecs = append(lhsVecs, g.Values)
			}
			for _, lhs := range lhsVecs {
				vals, err := e.RHSValues(info.ID, p, lhs)
				if err != nil {
					t.Fatal(err)
				}
				same(fmt.Sprintf("RHSValues %s %v", at, lhs), vals, x.rhsValues(e, info.ID, p, lhs))
				for _, v := range vals {
					rows, err := e.Tuples(info.ID, p, lhs, v.Value)
					if err != nil {
						t.Fatal(err)
					}
					same(fmt.Sprintf("Tuples %s %v %v", at, lhs, v.Value), rows, x.tuples(e, info.ID, p, lhs, v.Value))
				}
			}
		}
	}
}

// checkExplorers walks the drill-down of both constructors — New over the
// flat report and NewFactorised over the factorised one — against the
// reference reading the flat report.
func checkExplorers(t *testing.T, tab *relstore.Table, cfds []*cfd.CFD, extra ...[]types.Value) *Explorer {
	t.Helper()
	snap := tab.Snapshot()
	fr, err := detect.DetectFactorised(context.Background(), snap, cfds)
	if err != nil {
		t.Fatal(err)
	}
	rep := fr.Explode()
	flat, err := New(snap, cfds, rep)
	if err != nil {
		t.Fatal(err)
	}
	factorised, err := NewFactorised(snap, cfds, fr)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Explorer{flat, factorised} {
		checkAgainstReference(t, e, newRef(rep), extra...)
	}
	return factorised
}

func TestExplorerMatchesRowScanReference(t *testing.T) {
	for _, noise := range []float64{0, 0.02, 0.1} {
		t.Run(fmt.Sprint("noise=", noise), func(t *testing.T) {
			ds := datagen.Generate(datagen.Config{Tuples: 600, Seed: 7, NoiseRate: noise})
			checkExplorers(t, ds.Dirty, datagen.StandardCFDs())
		})
	}
}

// TestExplorerMatchesReferenceOnAdversarialValues: INT 1 beside FLOAT 1.0
// (one Equal-class, two exact values), NULL LHS cells, NaN, raw 0x1f bytes
// (the separator a naive key encoding would collide on) and pattern
// constants no stored value Equals.
func TestExplorerMatchesReferenceOnAdversarialValues(t *testing.T) {
	tab := relstore.NewTable(schema.New("r", "A", "B", "C"))
	nan := types.NewFloat(math.NaN())
	i1, f1 := types.NewInt(1), types.NewFloat(1.0)
	s := types.NewString
	rows := []relstore.Tuple{
		{i1, s("x"), s("p")},
		{f1, s("x"), s("q")},
		{i1, s("x"), s("p")},
		{types.Null, s("x"), s("p")},
		{types.Null, s("x"), types.Null},
		{types.Null, types.Null, s("r")},
		{nan, s("y"), s("p")},
		{nan, s("y"), nan},
		{s("a\x1fb"), s("c"), s("p")},
		{s("a"), s("b\x1fc"), s("q")},
		{s("a\x1fb"), s("c"), s("q")},
		{f1, s("x"), types.NewFloat(2.0)},
		{i1, s("x"), types.NewInt(2)},
		{s("z"), nan, s("p")},
	}
	for _, r := range rows {
		tab.MustInsert(r)
	}
	cfds, err := cfd.ParseSet(`
v@ r: [A=_, B=_] -> [C=_]
k@ r: [A=1, B=_] -> [C=p]
w@ r: [B=x] -> [C=_]
d@ r: [A=absent, B=_] -> [C=_]
n@ r: [B=_] -> [A=_]
`)
	if err != nil {
		t.Fatal(err)
	}
	e := checkExplorers(t, tab, cfds,
		[]types.Value{s("absent"), s("x")},
		[]types.Value{i1},
		[]types.Value{i1, s("x"), s("p")},
		[]types.Value{types.NewFloat(1.5), s("nowhere")},
	)
	if groups, _ := e.LHSGroups("d", 0); len(groups) != 0 {
		t.Errorf("a pattern constant absent from its column matched %v", groups)
	}
}
