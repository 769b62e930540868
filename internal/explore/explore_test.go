package explore

import (
	"context"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/detect"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// fig2Fixture reproduces the paper's Fig. 2 scenario: the CFD
// [CNT=UK, ZIP=_] -> [STR=_] explored over a customer table where the UK
// zip EH2 4SD has three distinct street values.
func fig2Fixture(t *testing.T) (*Explorer, *relstore.Table, []*cfd.CFD) {
	t.Helper()
	tab := relstore.NewTable(schema.New("customer", "NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"))
	rows := [][]string{
		{"Mike", "UK", "Edinburgh", "EH2 4SD", "Mayfield", "44", "131"},
		{"Rick", "UK", "Edinburgh", "EH2 4SD", "Mayfield", "44", "131"},
		{"Nora", "UK", "Edinburgh", "EH2 4SD", "Crichton", "44", "131"},
		{"Olaf", "UK", "Edinburgh", "EH2 4SD", "Lauriston", "44", "131"},
		{"Ann", "UK", "London", "SW1A", "Downing", "44", "20"},
		{"Joe", "US", "New York", "01202", "Mtn Ave", "1", "908"},
	}
	for _, r := range rows {
		row := make(relstore.Tuple, len(r))
		for i, f := range r {
			row[i] = types.Parse(f)
		}
		tab.MustInsert(row)
	}
	cfds, err := cfd.ParseSet(`
phi2@ customer: [CNT=UK, ZIP=_] -> [STR=_]
phi4@ customer: [CC=44] -> [CNT=UK]
`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := detect.ColumnarDetector{Workers: 1}.Detect(context.Background(), tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(tab.Snapshot(), cfds, rep)
	if err != nil {
		t.Fatal(err)
	}
	return e, tab, cfds
}

func TestCFDsLevel(t *testing.T) {
	e, _, _ := fig2Fixture(t)
	infos := e.CFDs()
	if len(infos) != 2 {
		t.Fatalf("cfds = %+v", infos)
	}
	if infos[0].ID != "phi2" || infos[0].Violations != 4 {
		t.Errorf("phi2 info = %+v", infos[0])
	}
	if infos[0].FD != "customer: [CNT, ZIP] -> [STR]" {
		t.Errorf("FD = %q", infos[0].FD)
	}
	if infos[1].ID != "phi4" || infos[1].Violations != 0 {
		t.Errorf("phi4 info = %+v", infos[1])
	}
}

func TestPatternsLevel(t *testing.T) {
	e, _, _ := fig2Fixture(t)
	pats, err := e.Patterns("phi2")
	if err != nil {
		t.Fatal(err)
	}
	if len(pats) != 1 {
		t.Fatalf("patterns = %+v", pats)
	}
	p := pats[0]
	if p.Pattern != "(UK, _ || _)" {
		t.Errorf("pattern = %q", p.Pattern)
	}
	if p.Constant {
		t.Error("phi2 is variable")
	}
	if p.Matches != 5 { // 5 UK tuples
		t.Errorf("matches = %d", p.Matches)
	}
	if p.Violations != 4 { // the EH2 group
		t.Errorf("violations = %d", p.Violations)
	}
	if _, err := e.Patterns("nope"); err == nil {
		t.Error("unknown CFD should fail")
	}
}

func TestLHSGroupsLevel(t *testing.T) {
	e, _, _ := fig2Fixture(t)
	groups, err := e.LHSGroups("phi2", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 { // EH2 4SD and SW1A
		t.Fatalf("groups = %+v", groups)
	}
	// Violating group sorts first.
	g := groups[0]
	if g.Values[0].Str() != "UK" || g.Values[1].Str() != "EH2 4SD" {
		t.Errorf("group values = %v", g.Values)
	}
	if g.Tuples != 4 || g.RHSValues != 3 || g.Violations != 4 {
		t.Errorf("group = %+v", g)
	}
	if groups[1].Violations != 0 {
		t.Errorf("clean group = %+v", groups[1])
	}
	if _, err := e.LHSGroups("phi2", 9); err == nil {
		t.Error("bad pattern index should fail")
	}
}

func TestRHSValuesLevel(t *testing.T) {
	e, _, _ := fig2Fixture(t)
	lhs := []types.Value{types.NewString("UK"), types.NewString("EH2 4SD")}
	vals, err := e.RHSValues("phi2", 0, lhs)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 2's fourth table: three distinct streets.
	if len(vals) != 3 {
		t.Fatalf("rhs values = %+v", vals)
	}
	if vals[0].Value.Str() != "Mayfield" || vals[0].Tuples != 2 {
		t.Errorf("top value = %+v", vals[0])
	}
	if !vals[0].Majority {
		t.Error("Mayfield should be the majority value")
	}
	if vals[1].Majority || vals[2].Majority {
		t.Error("minority values flagged as majority")
	}
	if _, err := e.RHSValues("nope", 0, lhs); err == nil {
		t.Error("unknown CFD should fail")
	}
	if _, err := e.RHSValues("phi2", 7, lhs); err == nil {
		t.Error("bad pattern index should fail")
	}
}

func TestTuplesLevel(t *testing.T) {
	e, _, _ := fig2Fixture(t)
	lhs := []types.Value{types.NewString("UK"), types.NewString("EH2 4SD")}
	rows, err := e.Tuples("phi2", 0, lhs, types.NewString("Mayfield"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("tuples = %+v", rows)
	}
	for _, r := range rows {
		if r.Vio == 0 {
			t.Errorf("tuple %d should carry violations", r.ID)
		}
		if r.Row[0].Str() != "Mike" && r.Row[0].Str() != "Rick" {
			t.Errorf("unexpected tuple %v", r.Row)
		}
	}
	if _, err := e.Tuples("phi2", 9, lhs, types.Null); err == nil {
		t.Error("bad pattern index should fail")
	}
	if _, err := e.Tuples("nope", 0, lhs, types.Null); err == nil {
		t.Error("unknown CFD should fail")
	}
}

func TestForTupleReverseExploration(t *testing.T) {
	e, _, _ := fig2Fixture(t)
	// Mike matches phi2 (violated, multi-tuple) and phi4 (satisfied).
	rels, err := e.ForTuple(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 2 {
		t.Fatalf("relevances = %+v", rels)
	}
	byID := map[string]Relevance{}
	for _, r := range rels {
		byID[r.CFDID] = r
	}
	if r := byID["phi2"]; !r.Violated || r.Kind != detect.MultiTuple {
		t.Errorf("phi2 relevance = %+v", r)
	}
	if r := byID["phi4"]; r.Violated {
		t.Errorf("phi4 relevance = %+v", r)
	}
	// Joe (US, CC=1) matches nothing but... phi2 LHS needs UK; phi4 needs
	// CC=44: no relevances.
	rels, err = e.ForTuple(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 0 {
		t.Errorf("Joe relevances = %+v", rels)
	}
	if _, err := e.ForTuple(999); err == nil {
		t.Error("missing tuple should fail")
	}
}

func TestQualityMap(t *testing.T) {
	e, tab, _ := fig2Fixture(t)
	entries, hist := e.QualityMap()
	if len(entries) != tab.Len() {
		t.Fatalf("entries = %d", len(entries))
	}
	// Clean tuples are bucket 0; conflict members have vio=2 or 3.
	byID := map[relstore.TupleID]MapEntry{}
	for _, en := range entries {
		byID[en.ID] = en
	}
	if byID[4].Bucket != 0 || byID[5].Bucket != 0 {
		t.Error("clean tuples should be bucket 0")
	}
	if byID[0].Bucket == 0 || byID[2].Bucket == 0 {
		t.Error("dirty tuples should have non-zero buckets")
	}
	// Nora and Olaf (unique streets) have 3 partners; Mike/Rick 2 — Nora's
	// bucket must be >= Mike's.
	if byID[2].Vio <= byID[0].Vio {
		t.Errorf("vio: nora=%d mike=%d", byID[2].Vio, byID[0].Vio)
	}
	if byID[2].Bucket < byID[0].Bucket {
		t.Error("darker color for dirtier tuple")
	}
	if hist[0] != 2 {
		t.Errorf("hist = %v", hist)
	}
	total := 0
	for _, n := range hist {
		total += n
	}
	if total != tab.Len() {
		t.Errorf("hist covers %d", total)
	}
}

func TestBucketScaling(t *testing.T) {
	if bucket(0, 10) != 0 {
		t.Error("0 is clean")
	}
	if bucket(10, 10) != 4 {
		t.Error("max is darkest")
	}
	if bucket(1, 1) != 4 {
		t.Error("vio equal to the maximum should be darkest")
	}
	if b := bucket(1, 1000); b != 1 {
		t.Errorf("small vio under a large max should be light, got %d", b)
	}
	if b := bucket(5, 10); b < 1 || b > 4 {
		t.Errorf("mid bucket = %d", b)
	}
}

func TestExplorerValidates(t *testing.T) {
	tab := relstore.NewTable(schema.New("r", "A"))
	bad, err := cfd.ParseSet("r: [NOPE=_] -> [A=_]")
	if err != nil {
		t.Fatal(err)
	}
	rep := &detect.Report{Vio: map[relstore.TupleID]int{}}
	if _, err := New(tab.Snapshot(), bad, rep); err == nil {
		t.Error("unknown attribute should fail")
	}
}
