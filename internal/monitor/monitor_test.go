package monitor

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/detect"
	"semandaq/internal/relstore"
	"semandaq/internal/repair"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

func setup(t *testing.T) (*relstore.Table, []*cfd.CFD) {
	t.Helper()
	tab := relstore.NewTable(schema.New("customer", "CNT", "ZIP", "STR", "CC"))
	ins := func(cnt, zip, str string, cc int64) {
		tab.MustInsert(relstore.Tuple{
			types.NewString(cnt), types.NewString(zip),
			types.NewString(str), types.NewInt(cc)})
	}
	ins("UK", "EH2", "Mayfield", 44)
	ins("UK", "EH2", "Mayfield", 44)
	ins("US", "07974", "Mtn Ave", 1)
	cfds, err := cfd.ParseSet(`
phi2@ customer: [CNT=UK, ZIP=_] -> [STR=_]
phi3@ customer: [CC=44] -> [CNT=UK]
`)
	if err != nil {
		t.Fatal(err)
	}
	return tab, cfds
}

func row(cnt, zip, str string, cc int64) relstore.Tuple {
	return relstore.Tuple{
		types.NewString(cnt), types.NewString(zip),
		types.NewString(str), types.NewInt(cc)}
}

func TestDetectionModeReportsViolations(t *testing.T) {
	tab, cfds := setup(t)
	m, err := New(tab, cfds, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Apply([]Update{
		{Op: OpInsert, Row: row("UK", "EH2", "Wrongstreet", 44)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Inserted) != 1 {
		t.Fatalf("inserted = %v", res.Inserted)
	}
	// Detection only: the violation is reported, not repaired.
	if len(res.Repairs) != 0 {
		t.Errorf("repairs in detection mode: %+v", res.Repairs)
	}
	if res.Dirty != 3 { // new tuple + the two Mayfield tuples
		t.Errorf("dirty = %d", res.Dirty)
	}
	if vio := m.Tracker().VioMap(); vio[res.Inserted[0]] == 0 || len(vio) != res.Dirty {
		t.Errorf("vio(t) = %v after inserting %d, dirty %d", vio, res.Inserted[0], res.Dirty)
	}
}

func TestRepairModeFixesIncoming(t *testing.T) {
	tab, cfds := setup(t)
	m, err := New(tab, cfds, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Apply([]Update{
		{Op: OpInsert, Row: row("UK", "EH2", "Wrongstreet", 44)},
		{Op: OpInsert, Row: row("US", "X1", "Elm", 44)}, // CC=44 but US
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dirty != 0 {
		t.Errorf("dirty after repair mode batch = %d", res.Dirty)
	}
	if len(res.Repairs) < 2 {
		t.Errorf("repairs = %+v", res.Repairs)
	}
	// The first insert was aligned with the existing street.
	sc := tab.Schema()
	got, _ := tab.Get(res.Inserted[0])
	if got[sc.MustPos("STR")].Str() != "Mayfield" {
		t.Errorf("STR = %v", got[sc.MustPos("STR")])
	}
	got, _ = tab.Get(res.Inserted[1])
	if got[sc.MustPos("CNT")].Str() != "UK" {
		t.Errorf("CNT = %v", got[sc.MustPos("CNT")])
	}
	// vio(t) reflects the post-repair state: every tuple clean.
	if vio := m.Tracker().VioMap(); len(vio) != 0 || m.DirtyCount() != 0 {
		t.Errorf("vio(t) = %v after repair", vio)
	}
}

// TestMarkCleansedSwitchesMode: a dirty insert stays dirty under a monitor
// in detection mode; after the cleanser runs, a monitor started in
// cleansed mode repairs the next one.
func TestMarkCleansedSwitchesMode(t *testing.T) {
	tab, cfds := setup(t)
	m, err := New(tab, cfds, false)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty insert in detection mode: stays dirty.
	res, err := m.Apply([]Update{{Op: OpInsert, Row: row("UK", "EH2", "Wrong", 44)}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dirty == 0 {
		t.Fatal("expected dirt")
	}
	// Clean the table (the cleanser would do this), then mark cleansed.
	rres, err := repair.NewRepairer().Repair(context.Background(), tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	for _, mod := range rres.Modifications {
		if _, err := tab.SetCell(mod.TupleID, tab.Schema().MustPos(mod.Attr), mod.New); err != nil {
			t.Fatal(err)
		}
	}
	// The monitor's tracker is stale now; start a new one in cleansed mode
	// (the flow core follows: the mode is fixed at start).
	m, err = New(tab, cfds, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err = m.Apply([]Update{{Op: OpInsert, Row: row("UK", "EH2", "Wrng", 44)}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dirty != 0 {
		t.Errorf("dirty = %d in cleansed mode", res.Dirty)
	}
}

func TestDeleteAndSetUpdates(t *testing.T) {
	tab, cfds := setup(t)
	m, err := New(tab, cfds, false)
	if err != nil {
		t.Fatal(err)
	}
	// Create a conflict by changing tuple 1's street.
	res, err := m.Apply([]Update{
		{Op: OpSet, ID: 1, Attr: "STR", Value: types.NewString("Other")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dirty != 2 {
		t.Errorf("dirty = %d", res.Dirty)
	}
	// Deleting the changed tuple resolves it.
	res, err = m.Apply([]Update{{Op: OpDelete, ID: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dirty != 0 {
		t.Errorf("dirty after delete = %d", res.Dirty)
	}
	// Tracker state still matches batch detection.
	batch, err := detect.ColumnarDetector{Workers: 1}.Detect(context.Background(), tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	if err := detect.Equivalent(batch, m.Report()); err != nil {
		t.Fatal(err)
	}
}

func TestApplyErrors(t *testing.T) {
	tab, cfds := setup(t)
	m, err := New(tab, cfds, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply([]Update{{Op: OpDelete, ID: 999}}); err == nil {
		t.Error("bad delete should fail")
	}
	if _, err := m.Apply([]Update{{Op: OpSet, ID: 0, Attr: "NOPE"}}); err == nil {
		t.Error("bad attr should fail")
	}
	if _, err := m.Apply([]Update{{Op: Op(99)}}); err == nil {
		t.Error("bad op should fail")
	}
	if _, err := m.Apply([]Update{{Op: OpInsert, Row: relstore.Tuple{}}}); err == nil {
		t.Error("bad arity should fail")
	}
}

// TestRejectedBatchChangesNothing: a batch whose k-th update cannot apply
// is refused before its first write, in either mode — the version, the
// rows and the tracked vio(t) are those before the batch.
func TestRejectedBatchChangesNothing(t *testing.T) {
	for _, cleansed := range []bool{false, true} {
		tab, cfds := setup(t)
		m, err := New(tab, cfds, cleansed)
		if err != nil {
			t.Fatal(err)
		}
		good := []Update{
			{Op: OpInsert, Row: row("UK", "EH2", "Wrongstreet", 44)},
			{Op: OpSet, ID: 0, Attr: "STR", Value: types.NewString("Other")},
			{Op: OpDelete, ID: 2},
		}
		for name, bad := range map[string]Update{
			"bad arity":        {Op: OpInsert, Row: relstore.Tuple{types.NewString("UK")}},
			"unknown attr":     {Op: OpSet, ID: 1, Attr: "NOPE", Value: types.Null},
			"dead id":          {Op: OpSet, ID: 999, Attr: "STR", Value: types.Null},
			"deleted in batch": {Op: OpSet, ID: 2, Attr: "STR", Value: types.Null},
			"deleted twice":    {Op: OpDelete, ID: 2},
			"unknown op":       {Op: Op(99)},
		} {
			version, rows, vio := tab.Version(), tab.Snapshot().Rows(), m.Tracker().VioMap()
			if _, err := m.Apply(append(slices.Clone(good), bad)); err == nil {
				t.Fatalf("cleansed=%v, %s: the batch was accepted", cleansed, name)
			}
			if tab.Version() != version || !reflect.DeepEqual(tab.Snapshot().Rows(), rows) || !reflect.DeepEqual(m.Tracker().VioMap(), vio) {
				t.Errorf("cleansed=%v, %s: a rejected batch changed the table or its vio(t)", cleansed, name)
			}
		}
		if _, err := m.Apply(good); err != nil {
			t.Fatalf("cleansed=%v: %v", cleansed, err)
		}
		batch, err := detect.ColumnarDetector{Workers: 1}.Detect(context.Background(), tab, cfds)
		if err != nil {
			t.Fatal(err)
		}
		if err := detect.Equivalent(batch, m.Report()); err != nil {
			t.Errorf("cleansed=%v: %v", cleansed, err)
		}
	}
}

func TestMonitorAccessors(t *testing.T) {
	tab, cfds := setup(t)
	m, err := New(tab, cfds, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.DirtyCount() != 0 {
		t.Errorf("dirty = %d", m.DirtyCount())
	}
	if m.Tracker() == nil || m.Report() == nil {
		t.Error("accessors returned nil")
	}
}
