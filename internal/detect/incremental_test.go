package detect

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

func TestTrackerMatchesBatchInitially(t *testing.T) {
	_, tab, cfds := paperStore(t)
	tr, err := NewTracker(tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	if err := Equivalent(sqlReport(t, tab.Snapshot(), cfds), tr.Report()); err != nil {
		t.Fatalf("initial state disagrees: %v", err)
	}
	if tr.DirtyCount() != 3 {
		t.Errorf("dirty = %d", tr.DirtyCount())
	}
}

func TestTrackerInsertCreatesViolation(t *testing.T) {
	_, tab, cfds := paperStore(t)
	tr, err := NewTracker(tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	// Insert a third EH2 4SD tuple with yet another street: joins the
	// multi-tuple group; everyone's partner counts grow.
	row := relstore.Tuple{
		types.NewString("New"), types.NewString("UK"), types.NewString("Edinburgh"),
		types.NewString("EH2 4SD"), types.NewString("ThirdSt"),
		types.NewInt(44), types.NewInt(131)}
	id, err := tr.Insert(row)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Vio(id) != 2 {
		t.Errorf("vio(new) = %d, want 2 (conflicts with both streets)", tr.Vio(id))
	}
	if tr.Vio(0) != 2 || tr.Vio(1) != 2 {
		t.Errorf("vio(Mike)=%d vio(Rick)=%d, want 2,2", tr.Vio(0), tr.Vio(1))
	}
	// The group was already violating: only the new tuple turned dirty.
	if want := map[relstore.TupleID]int{0: 2, 1: 2, 2: 1, id: 2}; !reflect.DeepEqual(tr.VioMap(), want) || tr.DirtyCount() != 4 {
		t.Errorf("VioMap = %v, DirtyCount = %d; want %v, 4", tr.VioMap(), tr.DirtyCount(), want)
	}
	assertMatchesBatch(t, tab, cfds, tr)
}

func TestTrackerInsertCleanTuple(t *testing.T) {
	_, tab, cfds := paperStore(t)
	tr, _ := NewTracker(tab, cfds)
	before := tr.VioMap()
	row := relstore.Tuple{
		types.NewString("Cl"), types.NewString("FR"), types.NewString("Paris"),
		types.NewString("75001"), types.NewString("Rivoli"),
		types.NewInt(33), types.NewInt(1)}
	id, err := tr.Insert(row)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Vio(id) != 0 {
		t.Errorf("vio = %d", tr.Vio(id))
	}
	if !reflect.DeepEqual(tr.VioMap(), before) || tr.DirtyCount() != len(before) {
		t.Errorf("VioMap = %v, DirtyCount = %d; want %v unchanged", tr.VioMap(), tr.DirtyCount(), before)
	}
	assertMatchesBatch(t, tab, cfds, tr)
}

func TestTrackerDeleteResolvesGroup(t *testing.T) {
	_, tab, cfds := paperStore(t)
	tr, _ := NewTracker(tab, cfds)
	// Deleting Rick resolves the Mike/Rick conflict.
	if err := tr.Delete(1); err != nil {
		t.Fatal(err)
	}
	if tr.Vio(0) != 0 || tr.Vio(1) != 0 {
		t.Errorf("vio(Mike) = %d, vio(Rick) = %d after delete", tr.Vio(0), tr.Vio(1))
	}
	// Only Joe's single-tuple violation is left.
	if want := map[relstore.TupleID]int{2: 1}; !reflect.DeepEqual(tr.VioMap(), want) || tr.DirtyCount() != 1 {
		t.Errorf("VioMap = %v, DirtyCount = %d; want %v, 1", tr.VioMap(), tr.DirtyCount(), want)
	}
	assertMatchesBatch(t, tab, cfds, tr)
	if err := tr.Delete(999); err == nil {
		t.Error("deleting a missing tuple should fail")
	}
}

func TestTrackerSetCellRepairsViolation(t *testing.T) {
	_, tab, cfds := paperStore(t)
	tr, _ := NewTracker(tab, cfds)
	// Fix Joe's CNT: the phi4 single-tuple violation disappears.
	if err := tr.SetCell(2, "CNT", types.NewString("UK")); err != nil {
		t.Fatal(err)
	}
	if tr.Vio(2) != 0 {
		t.Errorf("vio(Joe) = %d", tr.Vio(2))
	}
	if want := map[relstore.TupleID]int{0: 1, 1: 1}; !reflect.DeepEqual(tr.VioMap(), want) || tr.DirtyCount() != 2 {
		t.Errorf("VioMap = %v, DirtyCount = %d; want %v, 2", tr.VioMap(), tr.DirtyCount(), want)
	}
	assertMatchesBatch(t, tab, cfds, tr)
}

func TestTrackerSetCellCreatesViolation(t *testing.T) {
	_, tab, cfds := paperStore(t)
	tr, _ := NewTracker(tab, cfds)
	// Move Ben into the Edinburgh ZIP with a different street: new member
	// of the multi-tuple group.
	if err := tr.SetCell(4, "CNT", types.NewString("UK")); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetCell(4, "ZIP", types.NewString("EH2 4SD")); err != nil {
		t.Fatal(err)
	}
	if tr.Vio(4) == 0 {
		t.Error("Ben should now conflict")
	}
	assertMatchesBatch(t, tab, cfds, tr)

	if err := tr.SetCell(4, "NOPE", types.Null); err == nil {
		t.Error("unknown attribute should fail")
	}
	if err := tr.SetCell(999, "CNT", types.Null); err == nil {
		t.Error("missing tuple should fail")
	}
}

func TestTrackerVioMapCopy(t *testing.T) {
	_, tab, cfds := paperStore(t)
	tr, _ := NewTracker(tab, cfds)
	m := tr.VioMap()
	m[0] = 999
	if tr.Vio(0) == 999 {
		t.Error("VioMap should return a copy")
	}
}

// assertMatchesBatch verifies that the tracker state equals a from-scratch
// batch detection on the current table, and the paper's definition.
func assertMatchesBatch(t *testing.T, tab *relstore.Table, cfds []*cfd.CFD, tr *Tracker) {
	t.Helper()
	snap := tab.Snapshot()
	batch := sqlReport(t, snap, cfds)
	rep := tr.Report()
	if err := Equivalent(batch, rep); err != nil {
		t.Fatalf("tracker diverged from batch: %v", err)
	}
	checkDefinition(t, "tracker", snap, cfds, rep)
	// vio maps agree too.
	for id, n := range batch.Vio {
		if tr.Vio(id) != n {
			t.Fatalf("vio(%d): tracker %d, batch %d", id, tr.Vio(id), n)
		}
	}
	if len(batch.Vio) != tr.DirtyCount() {
		t.Fatalf("dirty: tracker %d, batch %d", tr.DirtyCount(), len(batch.Vio))
	}
}

// TestTrackerRandomizedAgainstBatch drives a random update stream and
// cross-checks the tracker against batch detection after every operation —
// the key correctness property of incremental detection.
func TestTrackerRandomizedAgainstBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	store := relstore.NewStore()
	tab, _ := store.Create(schema.New("r", "K1", "K2", "V", "W"))
	cfds, err := cfd.ParseSet(`
r: [K1=_, K2=_] -> [V=_]
r: [K1=a] -> [W=ok]
`)
	if err != nil {
		t.Fatal(err)
	}
	randRow := func() relstore.Tuple {
		return relstore.Tuple{
			types.NewString(fmt.Sprintf("%c", 'a'+rng.Intn(3))),
			types.NewString(fmt.Sprintf("k%d", rng.Intn(4))),
			types.NewString(fmt.Sprintf("v%d", rng.Intn(3))),
			types.NewString([]string{"ok", "bad"}[rng.Intn(2)]),
		}
	}
	for i := 0; i < 20; i++ {
		tab.MustInsert(randRow())
	}
	tr, err := NewTracker(tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	ids := slices.Clone(tab.Snapshot().IDs())
	for step := 0; step < 200; step++ {
		switch op := rng.Intn(3); {
		case op == 0:
			id, err := tr.Insert(randRow())
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		case op == 1 && len(ids) > 5:
			k := rng.Intn(len(ids))
			if err := tr.Delete(ids[k]); err != nil {
				t.Fatal(err)
			}
			ids = append(ids[:k], ids[k+1:]...)
		default:
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			attr := []string{"K1", "K2", "V", "W"}[rng.Intn(4)]
			val := types.NewString(fmt.Sprintf("v%d", rng.Intn(3)))
			if err := tr.SetCell(id, attr, val); err != nil {
				t.Fatal(err)
			}
		}
		if step%10 == 0 {
			assertMatchesBatch(t, tab, cfds, tr)
		}
	}
	assertMatchesBatch(t, tab, cfds, tr)
}

func TestTrackerNullTransitions(t *testing.T) {
	store := relstore.NewStore()
	tab, _ := store.Create(schema.New("r", "A", "B"))
	cfds, err := cfd.ParseSet("r: [A=k] -> [B=v]")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTracker(tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	// NULL RHS: not a violation.
	id, err := tr.Insert(relstore.Tuple{types.NewString("k"), types.Null})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Vio(id) != 0 {
		t.Errorf("NULL RHS vio = %d", tr.Vio(id))
	}
	// Setting it to a wrong constant creates the violation.
	if err := tr.SetCell(id, "B", types.NewString("wrong")); err != nil {
		t.Fatal(err)
	}
	if tr.Vio(id) != 1 {
		t.Errorf("vio = %d", tr.Vio(id))
	}
	// Back to NULL clears it.
	if err := tr.SetCell(id, "B", types.Null); err != nil {
		t.Fatal(err)
	}
	if tr.Vio(id) != 0 {
		t.Errorf("vio = %d", tr.Vio(id))
	}
	assertMatchesBatch(t, tab, cfds, tr)
}

// TestTrackerFactorReportReadsTheSnapshot: the tracker's factorised report
// takes its values from the snapshot it is given, so a group whose first
// member left keeps no stale LHS value (the FLOAT 1.0 the group was opened
// with), and a snapshot of another version is refused.
func TestTrackerFactorReportReadsTheSnapshot(t *testing.T) {
	tab := relstore.NewTable(schema.New("r", "K", "V"))
	s := types.NewString
	first := tab.MustInsert(relstore.Tuple{types.NewFloat(1.0), s("a")})
	tab.MustInsert(relstore.Tuple{types.NewInt(1), s("a")})
	tab.MustInsert(relstore.Tuple{types.NewInt(1), s("b")})
	cfds, err := cfd.ParseSet("r: [K=_] -> [V=_]\nr: [K=1] -> [V=a]")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTracker(tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	old := tab.Snapshot()
	if err := tr.Delete(first); err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.FactorReport(old); ok {
		t.Error("a snapshot of an older version was served")
	}
	snap := tab.Snapshot()
	fr, ok := tr.FactorReport(snap)
	if !ok {
		t.Fatal("the current snapshot was refused")
	}
	want, err := ColumnarDetector{}.DetectSnapshot(context.Background(), snap, cfds)
	if err != nil {
		t.Fatal(err)
	}
	if got := fr.Explode(); !reflect.DeepEqual(got, want) {
		t.Errorf("tracker's report differs from the batch core's\ngot:  %+v\nwant: %+v", got, want)
	}
	if got := want.Groups[0].LHSValues[0]; got.Kind() != types.KindInt {
		t.Errorf("group LHS value %v, want the INT 1 of its first member", got)
	}
	if !reflect.DeepEqual(tr.Report(), want) {
		t.Error("Report differs from the exploded factorised report")
	}
}

// TestTrackerRefusesTuplesDeletedAroundIt: tuples deleted on the table
// directly, not through the tracker, are missing from the snapshot. The
// factorised report is then refused (so the facade falls back to batch
// detection) instead of indexing rows that are not there, and Report
// leaves them out.
func TestTrackerRefusesTuplesDeletedAroundIt(t *testing.T) {
	tab := relstore.NewTable(schema.New("r", "K", "V"))
	s := types.NewString
	tab.MustInsert(relstore.Tuple{s("k"), s("a")})
	mid := tab.MustInsert(relstore.Tuple{s("k"), s("b")})
	last := tab.MustInsert(relstore.Tuple{s("k"), s("b")})
	cfds, err := cfd.ParseSet("r: [K=_] -> [V=_]\nr: [K=k] -> [V=a]")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTracker(tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	// Deleting the largest id puts its search position past the last row.
	tab.Delete(last)
	tab.Delete(mid)
	if _, ok := tr.FactorReport(tab.Snapshot()); ok {
		t.Error("a snapshot missing tracked tuples was served")
	}
	if rep := tr.Report(); len(rep.Violations) != 0 || len(rep.Groups) != 0 {
		t.Errorf("Report kept deleted tuples: %+v", rep)
	}
}
