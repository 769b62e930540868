package audit

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

// The row-scan auditor the code-level one replaced, kept as its reference:
// per-tuple maps keyed by tuple id and lowered attribute name, a Scan that
// decodes every row, and patterns matched with Value.Equal.

type refIndex struct {
	vio         map[relstore.TupleID]int
	hasSingle   map[relstore.TupleID]bool
	attrViol    map[relstore.TupleID]map[string]detect.Kind
	inGroup     map[relstore.TupleID]bool
	majorityBad map[relstore.TupleID]bool
}

func (ix *refIndex) noteAttrViol(id relstore.TupleID, attr string, kind detect.Kind) {
	m := ix.attrViol[id]
	if m == nil {
		m = map[string]detect.Kind{}
		ix.attrViol[id] = m
	}
	if prev, ok := m[strings.ToLower(attr)]; !ok || prev == detect.MultiTuple {
		m[strings.ToLower(attr)] = kind
	}
}

// refAudit audits the flat report rep of snap.
func refAudit(snap *relstore.Snapshot, cfds []*cfd.CFD, rep *detect.Report) (*Report, error) {
	ix := &refIndex{
		vio:         rep.Vio,
		hasSingle:   map[relstore.TupleID]bool{},
		attrViol:    map[relstore.TupleID]map[string]detect.Kind{},
		inGroup:     map[relstore.TupleID]bool{},
		majorityBad: map[relstore.TupleID]bool{},
	}
	for _, v := range rep.Violations {
		if v.Kind == detect.SingleTuple {
			ix.hasSingle[v.TupleID] = true
		}
		ix.noteAttrViol(v.TupleID, v.Attr, v.Kind)
	}
	var groupSizes []int
	for _, g := range rep.Groups {
		groupSizes = append(groupSizes, len(g.Members))
		strict := 2*g.MajoritySize() > len(g.Members)
		for _, id := range g.Members {
			ix.inGroup[id] = true
			if !strict || g.RHSOf[id] != g.MajorityKey {
				ix.majorityBad[id] = true
			}
		}
	}

	sc := snap.Schema()
	var normalized []*cfd.CFD
	for _, c := range cfds {
		if err := c.Validate(sc); err != nil {
			return nil, err
		}
		normalized = append(normalized, c.Normalize()...)
	}
	type applier struct {
		c              *cfd.CFD
		lhsPos, rhsPos []int
		consts         []int
	}
	var appliers []applier
	for _, c := range cfd.MergeByFD(normalized) {
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

	out := &Report{Table: rep.Table, TupleCount: rep.TupleCount, Version: rep.Version}
	classes := map[relstore.TupleID]TupleClass{}
	attrAcc := make([]AttrQuality, sc.Arity())
	for i, a := range sc.Attrs {
		attrAcc[i].Attr = a.Name
	}
	holder := func(id relstore.TupleID) bool { return ix.inGroup[id] && !ix.majorityBad[id] }
	snap.Scan(func(id relstore.TupleID, row relstore.Tuple) bool {
		verified := make([]bool, sc.Arity())
		verifiedApplies := false
		for _, a := range appliers {
			for _, pi := range a.consts {
				if a.c.MatchLHS(pi, row, a.lhsPos) && a.c.Tableau[pi].RHS[0].Matches(row[a.rhsPos[0]]) {
					verifiedApplies = true
					verified[a.rhsPos[0]] = true
				}
			}
		}
		var class TupleClass
		switch {
		case ix.vio[id] == 0 && verifiedApplies:
			class = VerifiedClean
		case ix.vio[id] == 0:
			class = ProbablyClean
		case !ix.hasSingle[id] && holder(id):
			class = ArguablyClean
		default:
			class = Dirty
		}
		classes[id] = class
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
		for i, a := range sc.Attrs {
			acc := &attrAcc[i]
			acc.Total++
			kind, implicated := ix.attrViol[id][strings.ToLower(a.Name)]
			switch {
			case !implicated && verified[i]:
				acc.Verified++
				acc.Probably++
				acc.Arguably++
			case !implicated:
				acc.Probably++
				acc.Arguably++
			case kind == detect.MultiTuple && holder(id):
				acc.Arguably++
			}
		}
		return true
	})
	for i := range attrAcc {
		attrAcc[i].Dirty = attrAcc[i].Total - attrAcc[i].Arguably
	}
	out.Attrs = attrAcc
	out.ProbablyTuples += out.VerifiedTuples
	out.ArguablyTuples += out.ProbablyTuples
	out.ids = snap.IDs()
	out.classes = make([]TupleClass, len(out.ids))
	for i, id := range out.ids {
		out.classes[i] = classes[id]
	}

	for id, st := range rep.PerCFD {
		if n := st.SingleTuple + st.MultiTuple; n > 0 {
			out.Pie = append(out.Pie, CFDSlice{CFDID: id, Violations: n})
		}
	}
	sort.Slice(out.Pie, func(i, j int) bool {
		if out.Pie[i].Violations != out.Pie[j].Violations {
			return out.Pie[i].Violations > out.Pie[j].Violations
		}
		return out.Pie[i].CFDID < out.Pie[j].CFDID
	})

	st := &out.Stats
	st.DirtyTuples = len(ix.vio)
	first := true
	for _, n := range ix.vio {
		st.TotalVio += n
		if first || n < st.MinVio {
			st.MinVio = n
		}
		st.MaxVio = max(st.MaxVio, n)
		first = false
	}
	if st.DirtyTuples > 0 {
		st.AvgVio = float64(st.TotalVio) / float64(st.DirtyTuples)
	}
	st.Groups = len(groupSizes)
	total := 0
	for i, n := range groupSizes {
		total += n
		if i == 0 || n < st.MinGroup {
			st.MinGroup = n
		}
		st.MaxGroup = max(st.MaxGroup, n)
	}
	if st.Groups > 0 {
		st.AvgGroup = float64(total) / float64(st.Groups)
	}
	return out, nil
}

// checkAgainstReference audits snap through both entry points — the flat
// report and the factorised one — and requires each to equal the reference.
// %#v spells NaN like NaN and every unexported field, where DeepEqual finds
// no NaN equal to itself.
func checkAgainstReference(t *testing.T, snap *relstore.Snapshot, cfds []*cfd.CFD) {
	t.Helper()
	fr, err := detect.DetectFactorised(context.Background(), snap, cfds)
	if err != nil {
		t.Fatal(err)
	}
	rep := fr.Explode()
	want, err := refAudit(snap, cfds, rep)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Audit(snap, cfds, rep)
	if err != nil {
		t.Fatal(err)
	}
	factorised, err := AuditFactorised(snap, cfds, fr)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*Report{"Audit": flat, "AuditFactorised": factorised} {
		if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
			t.Fatalf("%s differs from the row-scan reference:\n got %s\nwant %s", name, g, w)
		}
	}
}

func TestAuditMatchesRowScanReference(t *testing.T) {
	for _, noise := range []float64{0, 0.02, 0.1} {
		t.Run(fmt.Sprint("noise=", noise), func(t *testing.T) {
			ds := datagen.Generate(datagen.Config{Tuples: 600, Seed: 7, NoiseRate: noise})
			checkAgainstReference(t, ds.Dirty.Snapshot(), datagen.StandardCFDs())
		})
	}
}

// fuzzAlphabet is cfddef's adversarial alphabet: INT 1 and FLOAT 1.0 are
// Equal but not identical, NaN is a class of its own, NULL is never a
// violating RHS, and 0x1f is the byte a naive key encoding splits on.
var fuzzAlphabet = []types.Value{
	types.NewInt(1), types.NewFloat(1.0), types.Null, types.NewFloat(math.NaN()),
	types.NewString("a\x1fb"), types.NewString("a"), types.NewString("b"), types.NewInt(2),
}

// auditCase decodes bytes into a table of at most 6 attributes and 64 rows
// and 1–3 CFDs over it, every cell and pattern constant drawn from
// fuzzAlphabet. The decoding is total: reads past the end yield zero.
func auditCase(data []byte) (*relstore.Table, []*cfd.CFD) {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	arity := 2 + next()%5
	attrs := []string{"A", "B", "C", "D", "E", "F"}[:arity]
	var cfds []*cfd.CFD
	for n := 1 + next()%3; len(cfds) < n; {
		rhs := next() % arity
		var lhs []string
		for j := range attrs {
			if j != rhs && next()%2 == 1 {
				lhs = append(lhs, attrs[j])
			}
		}
		if len(lhs) == 0 {
			lhs = append(lhs, attrs[(rhs+1)%arity])
		}
		c := &cfd.CFD{ID: fmt.Sprintf("c%d", len(cfds)), Table: "r", LHS: lhs, RHS: []string{attrs[rhs]}}
		for p := 1 + next()%2; len(c.Tableau) < p; {
			cell := func() cfd.PatternValue {
				if b := next(); b%3 != 0 {
					return cfd.Constant(fuzzAlphabet[b%len(fuzzAlphabet)])
				}
				return cfd.Wild
			}
			pt := cfd.PatternTuple{RHS: []cfd.PatternValue{cell()}}
			for range lhs {
				pt.LHS = append(pt.LHS, cell())
			}
			c.Tableau = append(c.Tableau, pt)
		}
		cfds = append(cfds, c)
	}
	tab := relstore.NewTable(schema.New("r", attrs...))
	for r := 0; r < 64 && pos+arity <= len(data); r++ {
		row := make(relstore.Tuple, arity)
		for j := range row {
			row[j] = fuzzAlphabet[(next()%(3+j)+j)%len(fuzzAlphabet)]
		}
		tab.MustInsert(row)
	}
	return tab, cfds
}

// TestAuditMatchesReferenceOnAdversarialValues runs the fuzz seeds as a
// plain test, plus a table whose deletes leave dead codes behind.
func TestAuditMatchesReferenceOnAdversarialValues(t *testing.T) {
	for _, seed := range auditSeeds {
		tab, cfds := auditCase(seed)
		checkAgainstReference(t, tab.Snapshot(), cfds)
	}
	tab, cfds := auditCase(auditSeeds[len(auditSeeds)-1])
	for i, id := range tab.Snapshot().IDs() {
		if i%3 == 0 {
			tab.Delete(id)
		}
	}
	checkAgainstReference(t, tab.Snapshot(), cfds)
}

// auditSeeds are FuzzAuditReference's hand-written seeds.
var auditSeeds = [][]byte{
	{0, 0, 1, 1, 1, 4, 1, 0, 1, 1, 0, 1, 3, 2, 0, 1, 0, 2, 1, 1, 0, 0, 3},
	{1, 1, 0, 1, 0, 2, 1, 0, 7, 2, 2, 1, 1, 0, 5, 0, 0, 1, 1, 2, 2, 3, 3, 0, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1},
	{4, 2, 5, 1, 0, 1, 0, 1, 0, 4, 5, 0, 3, 2, 1, 0, 1, 1, 1, 0, 1, 6, 2, 3, 4, 4, 4, 0, 0, 0, 0, 0, 0,
		1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 1, 2, 3, 4, 5, 6, 6, 5, 4, 3, 2, 1},
}

// FuzzAuditReference requires the code-level audit, through the flat and the
// factorised entry point, to equal the row-scan reference on small tables
// over the adversarial alphabet.
func FuzzAuditReference(f *testing.F) {
	for _, seed := range auditSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, cfds := auditCase(data)
		checkAgainstReference(t, tab.Snapshot(), cfds)
	})
}
