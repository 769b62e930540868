package repair

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/detect"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

func customerTable(t *testing.T) (*relstore.Table, []*cfd.CFD) {
	t.Helper()
	tab := relstore.NewTable(schema.New("customer", "NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"))
	rows := [][]string{
		{"Mike", "UK", "Edinburgh", "EH2 4SD", "Mayfield", "44", "131"},
		{"Rick", "UK", "Edinburgh", "EH2 4SD", "Mayfield", "44", "131"},
		{"Nora", "UK", "Edinburgh", "EH2 4SD", "Mayfeild", "44", "131"}, // typo street
		{"Joe", "US", "New York", "01202", "Mtn Ave", "44", "908"},      // CC=44 but US
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
	return tab, cfds
}

func TestRepairConvergesAndIsClean(t *testing.T) {
	tab, cfds := customerTable(t)
	res, err := NewRepairer().Repair(context.Background(), tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %d remaining", res.Remaining)
	}
	rep, err := detect.ColumnarDetector{Workers: 1}.Detect(context.Background(), res.Repaired, cfds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Errorf("repaired table has %d violations", len(rep.Violations))
	}
	if res.Cost <= 0 {
		t.Errorf("cost = %v", res.Cost)
	}
}

func TestRepairPicksMajorityValue(t *testing.T) {
	tab, cfds := customerTable(t)
	res, err := NewRepairer().Repair(context.Background(), tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	// The typo street "Mayfeild" (1 tuple) should be merged into
	// "Mayfield" (2 tuples): 1 change is cheaper than 2, and the edit
	// distance is small either way.
	sc := res.Repaired.Schema()
	row, _ := res.Repaired.Get(2)
	if got := row[sc.MustPos("STR")].Str(); got != "Mayfield" {
		t.Errorf("Nora's street = %q, want Mayfield", got)
	}
	// Mike and Rick keep their value.
	row, _ = res.Repaired.Get(0)
	if got := row[sc.MustPos("STR")].Str(); got != "Mayfield" {
		t.Errorf("Mike's street = %q", got)
	}
}

func TestRepairConstantPattern(t *testing.T) {
	tab, cfds := customerTable(t)
	res, err := NewRepairer().Repair(context.Background(), tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	// Joe's CNT must be snapped to UK by phi4.
	sc := res.Repaired.Schema()
	row, _ := res.Repaired.Get(3)
	if got := row[sc.MustPos("CNT")].Str(); got != "UK" {
		t.Errorf("Joe's CNT = %q, want UK", got)
	}
	var found *Modification
	for i := range res.Modifications {
		if res.Modifications[i].TupleID == 3 && res.Modifications[i].Attr == "CNT" {
			found = &res.Modifications[i]
		}
	}
	if found == nil {
		t.Fatal("no modification recorded for Joe's CNT")
	}
	if found.CFDID != "phi4" || found.Old.String() != "US" || found.New.String() != "UK" {
		t.Errorf("modification = %+v", found)
	}
}

func TestOriginalTableUntouched(t *testing.T) {
	tab, cfds := customerTable(t)
	before := tab.Clone()
	if _, err := NewRepairer().Repair(context.Background(), tab, cfds); err != nil {
		t.Fatal(err)
	}
	ids, rows := tab.Snapshot().IDs(), tab.Snapshot().Rows()
	beforeRows := before.Snapshot().Rows()
	for i := range ids {
		if !rows[i].Equal(beforeRows[i]) {
			t.Fatalf("original row %d changed: %v", ids[i], rows[i])
		}
	}
}

func TestModificationAlternativesRanked(t *testing.T) {
	// Three-way group: values A (2x), B (1x), C (1x). Merge target should
	// be A; B and C members get alternatives.
	tab := relstore.NewTable(schema.New("r", "ZIP", "STR"))
	ins := func(zip, str string) {
		tab.MustInsert(relstore.Tuple{types.NewString(zip), types.NewString(str)})
	}
	ins("Z", "Alpha")
	ins("Z", "Alpha")
	ins("Z", "Beta")
	ins("Z", "Gamma")
	fd := cfd.NewFD("f", "r", []string{"ZIP"}, []string{"STR"})
	res, err := NewRepairer().Repair(context.Background(), tab, []*cfd.CFD{fd})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || len(res.Modifications) != 2 {
		t.Fatalf("mods = %+v", res.Modifications)
	}
	for _, m := range res.Modifications {
		if m.New.Str() != "Alpha" {
			t.Errorf("merge target = %v", m.New)
		}
		if len(m.Alternatives) == 0 {
			t.Error("alternatives missing")
		}
		for i := 1; i < len(m.Alternatives); i++ {
			if m.Alternatives[i].Cost < m.Alternatives[i-1].Cost {
				t.Error("alternatives not ranked by cost")
			}
		}
	}
	if len(res.ModifiedCells()) != 2 {
		t.Errorf("ModifiedCells = %v", res.ModifiedCells())
	}
}

func TestWeightedCostChangesTarget(t *testing.T) {
	// Two-value group, equal counts. With a high weight on tuple 0's cell,
	// the repair should keep tuple 0's value and change tuple 1.
	tab := relstore.NewTable(schema.New("r", "K", "V"))
	tab.MustInsert(relstore.Tuple{types.NewString("k"), types.NewString("aaaa")})
	tab.MustInsert(relstore.Tuple{types.NewString("k"), types.NewString("bbbb")})
	fd := cfd.NewFD("f", "r", []string{"K"}, []string{"V"})
	r := NewRepairer()
	r.Cost.Weight = func(id relstore.TupleID, attr string) float64 {
		if id == 0 {
			return 10
		}
		return 1
	}
	res, err := r.Repair(context.Background(), tab, []*cfd.CFD{fd})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Modifications) != 1 || res.Modifications[0].TupleID != 1 {
		t.Fatalf("mods = %+v", res.Modifications)
	}
	if res.Modifications[0].New.Str() != "aaaa" {
		t.Errorf("target = %v", res.Modifications[0].New)
	}
}

func TestInteractingCFDsNeedMultiplePasses(t *testing.T) {
	// Fixing CNT by phi4 makes the tuple match phi2's UK pattern and join
	// a conflicting group — a second pass must resolve that too.
	tab := relstore.NewTable(schema.New("customer", "NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"))
	rows := [][]string{
		{"A", "UK", "Edinburgh", "EH2", "Mayfield", "44", "131"},
		{"B", "UK", "Edinburgh", "EH2", "Mayfield", "44", "131"},
		// C: wrong CNT (US with CC=44) and wrong street; after CNT fix it
		// conflicts with A and B.
		{"C", "US", "Edinburgh", "EH2", "Wrongst", "44", "131"},
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
	res, err := NewRepairer().Repair(context.Background(), tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged, %d remaining", res.Remaining)
	}
	if res.Passes < 2 {
		t.Errorf("passes = %d, want >= 2", res.Passes)
	}
	sc := res.Repaired.Schema()
	row, _ := res.Repaired.Get(2)
	if row[sc.MustPos("CNT")].Str() != "UK" || row[sc.MustPos("STR")].Str() != "Mayfield" {
		t.Errorf("C repaired to %v", row)
	}
}

func TestRepairCleanTableNoop(t *testing.T) {
	tab := relstore.NewTable(schema.New("r", "A", "B"))
	tab.MustInsert(relstore.Tuple{types.NewString("x"), types.NewString("1")})
	fd := cfd.NewFD("f", "r", []string{"A"}, []string{"B"})
	res, err := NewRepairer().Repair(context.Background(), tab, []*cfd.CFD{fd})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || len(res.Modifications) != 0 || res.Passes != 1 {
		t.Errorf("res = %+v", res)
	}
}

// TestFreshSkipsStaleModifications: a reviewed modification whose cell the
// user edited since, or whose tuple is gone, is stale; the rest are fresh.
func TestFreshSkipsStaleModifications(t *testing.T) {
	tab, cfds := customerTable(t)
	res, err := NewRepairer().Repair(context.Background(), tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	fresh, stale := Fresh(tab.Snapshot(), res.Modifications)
	if len(fresh) != len(res.Modifications) || len(stale) != 0 {
		t.Fatalf("on the reviewed table: %d fresh, %d stale of %d", len(fresh), len(stale), len(res.Modifications))
	}
	// The user edits Joe's CNT before applying: the stale mod is skipped.
	sc := tab.Schema()
	if _, err := tab.SetCell(3, sc.MustPos("CNT"), types.NewString("IE")); err != nil {
		t.Fatal(err)
	}
	_, stale = Fresh(tab.Snapshot(), res.Modifications)
	if !slices.ContainsFunc(stale, func(m Modification) bool { return m.TupleID == 3 && m.Attr == "CNT" }) {
		t.Errorf("stale modification not skipped: %+v", stale)
	}
	// A deleted tuple's modifications are stale too.
	if !slices.ContainsFunc(res.Modifications, func(m Modification) bool { return m.TupleID == 2 }) {
		t.Fatal("the repair does not modify tuple 2")
	}
	tab.Delete(2)
	fresh, _ = Fresh(tab.Snapshot(), res.Modifications)
	if slices.ContainsFunc(fresh, func(m Modification) bool { return m.TupleID == 2 }) {
		t.Errorf("a deleted tuple's modification is fresh: %+v", fresh)
	}
}

func TestIncRepairNewTupleAlignsWithCleanData(t *testing.T) {
	tab, cfds := customerTable(t)
	// Clean the base first.
	res, err := NewRepairer().Repair(context.Background(), tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	clean := res.Repaired
	tr, err := detect.NewTracker(clean, cfds)
	if err != nil {
		t.Fatal(err)
	}
	// Insert a dirty tuple: wrong street for the EH2 4SD zip and wrong CNT.
	row := relstore.Tuple{
		types.NewString("New"), types.NewString("US"), types.NewString("Edinburgh"),
		types.NewString("EH2 4SD"), types.NewString("Wrongside"),
		types.NewInt(44), types.NewInt(131)}
	id, err := tr.Insert(row)
	if err != nil {
		t.Fatal(err)
	}
	mods, err := NewIncRepairer().RepairDelta(tr, clean, cfds, []relstore.TupleID{id})
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) < 2 {
		t.Fatalf("mods = %+v", mods)
	}
	if tr.DirtyCount() != 0 {
		t.Errorf("dirty after inc repair = %d", tr.DirtyCount())
	}
	sc := clean.Schema()
	got, _ := clean.Get(id)
	if got[sc.MustPos("CNT")].Str() != "UK" {
		t.Errorf("CNT = %v", got[sc.MustPos("CNT")])
	}
	if got[sc.MustPos("STR")].Str() != "Mayfield" {
		t.Errorf("STR = %v (must align with existing clean data)", got[sc.MustPos("STR")])
	}
	// The pre-existing tuples were never modified.
	for _, m := range mods {
		if m.TupleID != id {
			t.Errorf("IncRepair modified old tuple %d", m.TupleID)
		}
	}
}

func TestIncRepairAllDeltaGroup(t *testing.T) {
	// Two new tuples conflicting only with each other: merged cheapest.
	tab := relstore.NewTable(schema.New("r", "K", "V"))
	fd := cfd.NewFD("f", "r", []string{"K"}, []string{"V"})
	tr, err := detect.NewTracker(tab, []*cfd.CFD{fd})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := tr.Insert(relstore.Tuple{types.NewString("k"), types.NewString("val")})
	b, _ := tr.Insert(relstore.Tuple{types.NewString("k"), types.NewString("valx")})
	mods, err := NewIncRepairer().RepairDelta(tr, tab, []*cfd.CFD{fd}, []relstore.TupleID{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if tr.DirtyCount() != 0 {
		t.Errorf("dirty = %d", tr.DirtyCount())
	}
	if len(mods) != 1 {
		t.Fatalf("mods = %+v", mods)
	}
}

func TestIncRepairLeavesPreexistingConflicts(t *testing.T) {
	// A conflict entirely within old data is not the delta's problem.
	tab := relstore.NewTable(schema.New("r", "K", "V"))
	tab.MustInsert(relstore.Tuple{types.NewString("k"), types.NewString("a")})
	tab.MustInsert(relstore.Tuple{types.NewString("k"), types.NewString("b")})
	fd := cfd.NewFD("f", "r", []string{"K"}, []string{"V"})
	tr, err := detect.NewTracker(tab, []*cfd.CFD{fd})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := tr.Insert(relstore.Tuple{types.NewString("other"), types.NewString("x")})
	mods, err := NewIncRepairer().RepairDelta(tr, tab, []*cfd.CFD{fd}, []relstore.TupleID{id})
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != 0 {
		t.Errorf("mods = %+v", mods)
	}
	if tr.DirtyCount() != 2 {
		t.Errorf("pre-existing dirty = %d, want 2", tr.DirtyCount())
	}
}

// TestIncRepairAllocs gates the incremental repairer at allocations that
// grow with the delta and not with group membership. The trusted data
// holds four violating groups of `members` tuples each, which every pass's
// report carries and RepairDelta walks and skips (a conflict among trusted
// tuples is not the delta's problem), beside eight clean groups; the delta
// is one dirty tuple per clean group, re-dirtied before every run. The
// repair reads the groups on codes, so 200- and 2 000-member groups cost
// about the same: 242 and 246 allocations here, under the bound of 160 +
// 25 per delta tuple (360; a delta of 32 made 540 and 544). An Explode of
// the report per group in RepairDelta's loop made 2 042 and 2 910.
func TestIncRepairAllocs(t *testing.T) {
	const deltaSize = 8
	for _, members := range []int{200, 2000} {
		tab := relstore.NewTable(schema.New("r", "K", "V"))
		str := types.NewString
		for g := 0; g < 4; g++ {
			for i := 0; i < members; i++ {
				tab.MustInsert(relstore.Tuple{str(fmt.Sprintf("big%d", g)), str([]string{"a", "b"}[i%2])})
			}
		}
		for g := 0; g < deltaSize; g++ {
			for i := 0; i < 3; i++ {
				tab.MustInsert(relstore.Tuple{str(fmt.Sprintf("k%d", g)), str("good")})
			}
		}
		fd := cfd.NewFD("f", "r", []string{"K"}, []string{"V"})
		tr, err := detect.NewTracker(tab, []*cfd.CFD{fd})
		if err != nil {
			t.Fatal(err)
		}
		var delta []relstore.TupleID
		for g := 0; g < deltaSize; g++ {
			id, err := tr.Insert(relstore.Tuple{str(fmt.Sprintf("k%d", g)), str("bad")})
			if err != nil {
				t.Fatal(err)
			}
			delta = append(delta, id)
		}
		ir := NewIncRepairer()
		repairDelta := func() {
			for _, id := range delta {
				if err := tr.SetCell(id, "V", str("bad")); err != nil {
					t.Fatal(err)
				}
			}
			mods, err := ir.RepairDelta(tr, tab, []*cfd.CFD{fd}, delta)
			if err != nil || len(mods) != deltaSize {
				t.Fatalf("%d modifications, err %v; want %d", len(mods), err, deltaSize)
			}
		}
		repairDelta()
		allocs := testing.AllocsPerRun(10, repairDelta)
		t.Logf("delta of %d beside 4 groups of %d: %.0f allocations", deltaSize, members, allocs)
		if limit := 160 + 25*float64(deltaSize); allocs > limit {
			t.Errorf("delta of %d beside 4 groups of %d allocates %.0f times, more than %.0f", deltaSize, members, allocs, limit)
		}
	}
}
