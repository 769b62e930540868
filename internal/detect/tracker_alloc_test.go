package detect_test

import (
	"testing"

	"semandaq/internal/datagen"
	"semandaq/internal/detect"
	"semandaq/internal/types"
)

// TestTrackerSetCellAllocs: a steady-state SetCell — the tuple stays in its
// group and moves between two live RHS classes — looks its keys up in the
// tracker's scratch buffer, decodes its row into the tracker's scratch row
// and writes dense slices, so it does not allocate (the table's write
// overlay grows less than once a call). The tracker that built a key
// string per CFD per update allocated 19 times.
func TestTrackerSetCellAllocs(t *testing.T) {
	tab := datagen.Generate(datagen.Config{Tuples: 10000, Seed: 5}).Clean
	tr, err := detect.NewTracker(tab, datagen.StandardCFDs())
	if err != nil {
		t.Fatal(err)
	}
	snap := tab.Snapshot()
	sc := tab.Schema()
	cnt, zip, str := sc.MustPos("CNT"), sc.MustPos("ZIP"), sc.MustPos("STR")
	// Three UK tuples of one zip (phi2's group): the target, a partner that
	// keeps the target's street, and one given another street.
	var rows []int
	byZip := map[string][]int{}
	for i := 0; i < snap.Len() && rows == nil; i++ {
		row := snap.Row(i)
		if row[cnt].Str() != "UK" {
			continue
		}
		k := row[zip].Key()
		if byZip[k] = append(byZip[k], i); len(byZip[k]) == 3 {
			rows = byZip[k]
		}
	}
	if rows == nil {
		t.Fatal("no UK zip with three tuples")
	}
	ids := snap.IDs()
	a, b := snap.Row(rows[0])[str], types.NewString("Another Street")
	if err := tr.SetCell(ids[rows[2]], "STR", b); err != nil {
		t.Fatal(err)
	}
	streets := []types.Value{b, a}
	k := 0
	allocs := testing.AllocsPerRun(200, func() {
		k++
		if err := tr.SetCell(ids[rows[0]], "STR", streets[k%2]); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("steady-state SetCell: %.2f allocations", allocs)
	if allocs > 0 {
		t.Errorf("a steady-state SetCell allocates %.1f times, want 0", allocs)
	}
	if vio := tr.Vio(ids[rows[1]]); vio != 1 {
		t.Errorf("vio(partner) = %d, want 1 (one disagreeing street)", vio)
	}
}
