package audit

import (
	"context"
	"strings"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/detect"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// fixture: 6 tuples exercising every tuple class.
//
//	t0 Mike: UK/EH2/Mayfield, CC=44 — multi-tuple violation (minority? no:
//	   majority with Rick 2-1 vs Nora) + verified by phi4 → arguably clean.
//	t1 Rick: same as Mike → arguably clean.
//	t2 Nora: typo street (minority of the group) → dirty.
//	t3 Joe: CC=44 but CNT=US → single-tuple violation → dirty.
//	t4 Ann: CC=44, CNT=UK, unique zip → verified clean (phi4 applies).
//	t5 Ben: CC=1, US — no CFD with constant RHS applies → probably clean.
func fixture(t *testing.T) (*relstore.Table, []*cfd.CFD, *detect.Report) {
	t.Helper()
	tab := relstore.NewTable(schema.New("customer", "NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"))
	rows := [][]string{
		{"Mike", "UK", "Edinburgh", "EH2 4SD", "Mayfield", "44", "131"},
		{"Rick", "UK", "Edinburgh", "EH2 4SD", "Mayfield", "44", "131"},
		{"Nora", "UK", "Edinburgh", "EH2 4SD", "Mayfeild", "44", "131"},
		{"Joe", "US", "New York", "01202", "Mtn Ave", "44", "908"},
		{"Ann", "UK", "London", "SW1A", "Downing", "44", "20"},
		{"Ben", "US", "Chicago", "60601", "Wacker", "1", "312"},
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
	return tab, cfds, rep
}

func TestTupleClassification(t *testing.T) {
	tab, cfds, rep := fixture(t)
	a, err := Audit(tab.Snapshot(), cfds, rep)
	if err != nil {
		t.Fatal(err)
	}
	want := map[relstore.TupleID]TupleClass{
		0: ArguablyClean,
		1: ArguablyClean,
		2: Dirty,
		3: Dirty,
		4: VerifiedClean,
		5: ProbablyClean,
	}
	for id, cls := range want {
		if got, ok := a.Class(id); !ok || got != cls {
			t.Errorf("tuple %d = %v (held: %v), want %v", id, got, ok, cls)
		}
	}
	if _, ok := a.Class(99); ok {
		t.Error("a tuple the snapshot does not hold was classified")
	}
}

func TestCumulativeCounts(t *testing.T) {
	tab, cfds, rep := fixture(t)
	a, err := Audit(tab.Snapshot(), cfds, rep)
	if err != nil {
		t.Fatal(err)
	}
	if a.VerifiedTuples != 1 {
		t.Errorf("verified = %d", a.VerifiedTuples)
	}
	if a.ProbablyTuples != 2 { // verified ⊆ probably
		t.Errorf("probably = %d", a.ProbablyTuples)
	}
	if a.ArguablyTuples != 4 { // + Mike, Rick
		t.Errorf("arguably = %d", a.ArguablyTuples)
	}
	if a.DirtyTuples != 2 {
		t.Errorf("dirty = %d", a.DirtyTuples)
	}
	// Nesting invariant.
	if !(a.VerifiedTuples <= a.ProbablyTuples && a.ProbablyTuples <= a.ArguablyTuples) {
		t.Error("classes must nest")
	}
	if a.ArguablyTuples+a.DirtyTuples != a.TupleCount {
		t.Error("partition must cover all tuples")
	}
}

func TestAttributeLevel(t *testing.T) {
	tab, cfds, rep := fixture(t)
	a, err := Audit(tab.Snapshot(), cfds, rep)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AttrQuality{}
	for _, q := range a.Attrs {
		byName[q.Attr] = q
	}
	// STR carries the multi-tuple conflicts: Mike/Rick arguably (majority),
	// Nora dirty.
	str := byName["STR"]
	if str.Dirty != 1 {
		t.Errorf("STR dirty = %d", str.Dirty)
	}
	if str.Arguably != 5 {
		t.Errorf("STR arguably = %d", str.Arguably)
	}
	// CNT carries Joe's single-tuple violation, and is verified for the
	// CC=44,CNT=UK tuples (Mike, Rick, Nora, Ann).
	cnt := byName["CNT"]
	if cnt.Dirty != 1 {
		t.Errorf("CNT dirty = %d", cnt.Dirty)
	}
	if cnt.Verified != 4 {
		t.Errorf("CNT verified = %d", cnt.Verified)
	}
	// NAME is untouched by any CFD: all probably clean, none verified.
	name := byName["NAME"]
	if name.Verified != 0 || name.Probably != 6 || name.Dirty != 0 {
		t.Errorf("NAME = %+v", name)
	}
	// Percentages.
	if p := name.PctProbably(); p != 100 {
		t.Errorf("NAME pct = %v", p)
	}
	if cnt.PctVerified() <= 0 || cnt.PctArguably() > 100 {
		t.Errorf("CNT pcts = %v %v", cnt.PctVerified(), cnt.PctArguably())
	}
}

func TestPieChart(t *testing.T) {
	tab, cfds, rep := fixture(t)
	a, err := Audit(tab.Snapshot(), cfds, rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pie) != 2 {
		t.Fatalf("pie = %+v", a.Pie)
	}
	// phi2 involves 3 tuples, phi4 one: descending order.
	if a.Pie[0].CFDID != "phi2" || a.Pie[0].Violations != 3 {
		t.Errorf("pie[0] = %+v", a.Pie[0])
	}
	if a.Pie[1].CFDID != "phi4" || a.Pie[1].Violations != 1 {
		t.Errorf("pie[1] = %+v", a.Pie[1])
	}
}

func TestVioStats(t *testing.T) {
	tab, cfds, rep := fixture(t)
	a, err := Audit(tab.Snapshot(), cfds, rep)
	if err != nil {
		t.Fatal(err)
	}
	s := a.Stats
	if s.DirtyTuples != 4 {
		t.Errorf("dirty = %d", s.DirtyTuples)
	}
	// Mike: 1 partner (Nora), Rick: 1, Nora: 2, Joe: 1 → total 5.
	if s.TotalVio != 5 {
		t.Errorf("total = %d", s.TotalVio)
	}
	if s.MinVio != 1 || s.MaxVio != 2 {
		t.Errorf("min/max = %d/%d", s.MinVio, s.MaxVio)
	}
	if s.Groups != 1 || s.MinGroup != 3 || s.MaxGroup != 3 || s.AvgGroup != 3 {
		t.Errorf("groups = %+v", s)
	}
}

func TestCleanTableAudit(t *testing.T) {
	tab := relstore.NewTable(schema.New("r", "A", "B"))
	tab.MustInsert(relstore.Tuple{types.NewString("x"), types.NewString("1")})
	fd := cfd.NewFD("f", "r", []string{"A"}, []string{"B"})
	rep, err := detect.ColumnarDetector{Workers: 1}.Detect(context.Background(), tab, []*cfd.CFD{fd})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Audit(tab.Snapshot(), []*cfd.CFD{fd}, rep)
	if err != nil {
		t.Fatal(err)
	}
	if a.DirtyTuples != 0 || a.ProbablyTuples != 1 {
		t.Errorf("audit = %+v", a)
	}
	// No constant-RHS CFD exists, so nothing is verified.
	if a.VerifiedTuples != 0 {
		t.Errorf("verified = %d", a.VerifiedTuples)
	}
	if a.Stats.DirtyTuples != 0 || a.Stats.Groups != 0 {
		t.Errorf("stats = %+v", a.Stats)
	}
}

func TestMajorityNotStrictIsDirty(t *testing.T) {
	// 2-2 split group: nobody holds a strict majority; all dirty.
	tab := relstore.NewTable(schema.New("r", "K", "V"))
	for _, v := range []string{"a", "a", "b", "b"} {
		tab.MustInsert(relstore.Tuple{types.NewString("k"), types.NewString(v)})
	}
	fd := cfd.NewFD("f", "r", []string{"K"}, []string{"V"})
	rep, err := detect.ColumnarDetector{Workers: 1}.Detect(context.Background(), tab, []*cfd.CFD{fd})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Audit(tab.Snapshot(), []*cfd.CFD{fd}, rep)
	if err != nil {
		t.Fatal(err)
	}
	if a.DirtyTuples != 4 || a.ArguablyTuples != 0 {
		t.Errorf("audit = verified %d probably %d arguably %d dirty %d",
			a.VerifiedTuples, a.ProbablyTuples, a.ArguablyTuples, a.DirtyTuples)
	}
}

func TestRenderContainsKeySections(t *testing.T) {
	tab, cfds, rep := fixture(t)
	a, err := Audit(tab.Snapshot(), cfds, rep)
	if err != nil {
		t.Fatal(err)
	}
	out := a.Render()
	for _, want := range []string{
		"Data quality report", "attribute-value quality", "violations per CFD",
		"vio(t):", "multi-tuple groups", "phi2", "STR",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestClassString(t *testing.T) {
	names := map[TupleClass]string{
		VerifiedClean: "verified clean",
		ProbablyClean: "probably clean",
		ArguablyClean: "arguably clean",
		Dirty:         "dirty",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d = %q", c, c.String())
		}
	}
}

func TestAuditValidatesCFDs(t *testing.T) {
	tab, _, rep := fixture(t)
	bad, err := cfd.ParseSet("customer: [NOPE=_] -> [CITY=_]")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Audit(tab.Snapshot(), bad, rep); err == nil {
		t.Error("unknown attribute should fail")
	}
}
