package repair

import (
	"context"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/detect"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// TestTwoFDsTuggingOneCell reproduces the interaction that makes naive
// repair loop forever: two FDs share the RHS attribute CITY, and a tuple
// with a corrupted AC belongs to a zip-group that says "Edinburgh" and an
// area-code-group that says "London". The repair must not ping-pong; the
// correct fix is to repair the AC cell (break the losing membership).
func TestTwoFDsTuggingOneCell(t *testing.T) {
	tab := relstore.NewTable(schema.New("customer", "CNT", "CITY", "ZIP", "AC"))
	ins := func(cnt, city, zip string, ac int64) relstore.TupleID {
		return tab.MustInsert(relstore.Tuple{
			types.NewString(cnt), types.NewString(city),
			types.NewString(zip), types.NewInt(ac)})
	}
	// Edinburgh zip group EH2: three tuples, AC 131.
	ins("UK", "Edinburgh", "EH2", 131)
	ins("UK", "Edinburgh", "EH2", 131)
	// The victim: Edinburgh zip but corrupted AC = 20 (London's).
	victim := ins("UK", "Edinburgh", "EH2", 20)
	// London AC group: three tuples with AC 20.
	ins("UK", "London", "SW1", 20)
	ins("UK", "London", "SW1", 20)
	ins("UK", "London", "SW1", 20)

	cfds, err := cfd.ParseSet(`
zipcity@ customer: [CNT=_, ZIP=_] -> [CITY=_]
accity@  customer: [CNT=_, AC=_] -> [CITY=_]
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewRepairer().Repair(context.Background(), tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged: %d remaining after %d passes", res.Remaining, res.Passes)
	}
	rep, err := detect.ColumnarDetector{Workers: 1}.Detect(context.Background(), res.Repaired, cfds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("repaired table still has %d violations", len(rep.Violations))
	}
	// The victim must keep Edinburgh (zip group is its stronger context)
	// and have its AC repaired to 131.
	sc := res.Repaired.Schema()
	row, _ := res.Repaired.Get(victim)
	if got := row[sc.MustPos("CITY")].Str(); got != "Edinburgh" {
		t.Errorf("victim CITY = %q, want Edinburgh", got)
	}
	if got := row[sc.MustPos("AC")].Int(); got != 131 {
		t.Errorf("victim AC = %d, want 131", got)
	}
	// The London tuples are untouched.
	for id := relstore.TupleID(3); id <= 5; id++ {
		row, _ := res.Repaired.Get(id)
		if row[sc.MustPos("CITY")].Str() != "London" {
			t.Errorf("London tuple %d corrupted to %v", id, row)
		}
	}
}

// TestRepairTerminatesOnPathologicalSet verifies the per-cell change cap:
// even when constraints cannot be reconciled by the heuristic, Repair
// returns (with Remaining > 0) instead of looping.
func TestRepairTerminatesOnPathologicalSet(t *testing.T) {
	tab := relstore.NewTable(schema.New("r", "A", "B", "C"))
	ins := func(a, b, c string) {
		tab.MustInsert(relstore.Tuple{
			types.NewString(a), types.NewString(b), types.NewString(c)})
	}
	// B is tugged by [A]->[B] and by [C]->[B] with 2-2 support each way.
	ins("a1", "x", "c1")
	ins("a1", "x", "c2")
	ins("a1", "y", "c2")
	ins("a2", "y", "c2")
	cfds, err := cfd.ParseSet(`
r: [A=_] -> [B=_]
r: [C=_] -> [B=_]
`)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRepairer()
	r.MaxPasses = 50
	res, err := r.Repair(context.Background(), tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	// Termination is the property under test; convergence is a bonus.
	if res.Passes > 50 {
		t.Errorf("passes = %d", res.Passes)
	}
	if res.Converged {
		rep, _ := detect.ColumnarDetector{Workers: 1}.Detect(context.Background(), res.Repaired, cfds)
		if len(rep.Violations) != 0 {
			t.Error("claims convergence but table is dirty")
		}
	}
}

// TestModifiedCellsNetsOutReverts ensures cells returned to their original
// value are not reported as modified.
func TestModifiedCellsNetsOutReverts(t *testing.T) {
	r := &Result{Modifications: []Modification{
		{TupleID: 1, Attr: "A", Old: types.NewString("x"), New: types.NewString("y")},
		{TupleID: 1, Attr: "A", Old: types.NewString("y"), New: types.NewString("x")},
		{TupleID: 2, Attr: "B", Old: types.NewString("p"), New: types.NewString("q")},
	}}
	cells := r.ModifiedCells()
	if cells["1/A"] {
		t.Error("reverted cell reported as modified")
	}
	if !cells["2/B"] {
		t.Error("changed cell missing")
	}
}
