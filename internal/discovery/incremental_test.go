package discovery

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"semandaq/internal/datagen"
	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

// coldMine is the oracle side: a full batch mine over a from-scratch
// snapshot of the table's current rows, sharing nothing with the session.
func coldMine(t *testing.T, tab *relstore.Table, opts Options) *Report {
	t.Helper()
	rep, err := Mine(context.Background(), tab.RebuildSnapshot(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// mutateCells applies k seeded single-cell edits drawn from the datagen
// corruption alphabet (wrong city, wrong area code), returning only after
// each landed as a real value change.
func mutateCells(t *testing.T, tab *relstore.Table, rng *rand.Rand, k int) {
	t.Helper()
	sc := tab.Schema()
	posCITY, posAC := sc.MustPos("CITY"), sc.MustPos("AC")
	ids := tab.Snapshot().IDs()
	cities := []string{"Edinburgh", "London", "Glasgow", "New York", "Chicago", "Madison"}
	acs := []int64{131, 20, 141, 212, 312, 608}
	for i := 0; i < k; i++ {
		id := ids[rng.Intn(len(ids))]
		if i%2 == 0 {
			if _, err := tab.SetCell(id, posCITY, types.NewString(cities[rng.Intn(len(cities))])); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := tab.SetCell(id, posAC, types.NewInt(acs[rng.Intn(len(acs))])); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSessionMatchesColdMine is the discovery half of the incremental
// oracle: after every batch of edits, the session's report must be
// DeepEqual to a cold Mine over a rebuilt snapshot — at clean, lightly
// dirty and heavily dirty noise rates.
func TestSessionMatchesColdMine(t *testing.T) {
	for _, noise := range []float64{0, 0.02, 0.10} {
		ds := datagen.Generate(datagen.Config{Tuples: 400, Seed: 17, NoiseRate: noise})
		tab := ds.Dirty
		opts := Options{MinSupport: 4, MaxLHS: 2, Workers: 4}
		sess := NewSession(tab)
		rng := rand.New(rand.NewSource(int64(noise*100) + 1))
		for round := 0; round < 5; round++ {
			got, err := sess.Discover(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}
			want := coldMine(t, tab, opts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("noise=%v round=%d: session report diverges from cold mine\ngot  %d candidates / %d cfds\nwant %d candidates / %d cfds",
					noise, round, len(got.Candidates), len(got.CFDs), len(want.Candidates), len(want.CFDs))
			}
			mutateCells(t, tab, rng, 3)
		}
		if st := sess.LastStats(); st.FullRuns != 5 || st.VAChecksReused != 0 {
			t.Errorf("noise=%v: stats = %+v, want 5 full runs and nothing reused", noise, st)
		}
	}
}

// TestSessionServesReportOnUnchangedVersion re-serves the identical report
// (same pointer — the cheapest possible read) while the version holds.
func TestSessionServesReportOnUnchangedVersion(t *testing.T) {
	ds := datagen.Generate(datagen.Config{Tuples: 200, Seed: 5})
	sess := NewSession(ds.Dirty)
	opts := Options{MinSupport: 4}
	r1, err := sess.Discover(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sess.Discover(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("unchanged version did not serve the cached report")
	}
	if st := sess.LastStats(); st.ReportHits != 1 || st.FullRuns != 1 {
		t.Errorf("stats = %+v, want 1 full run + 1 report hit", st)
	}
}

// TestSessionFallsBackOnStructuralChange verifies inserts/deletes force a
// full mine that matches the cold oracle.
func TestSessionFallsBackOnStructuralChange(t *testing.T) {
	ds := datagen.Generate(datagen.Config{Tuples: 200, Seed: 31})
	tab := ds.Dirty
	sess := NewSession(tab)
	opts := Options{MinSupport: 4}
	if _, err := sess.Discover(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	ids := tab.Snapshot().IDs()
	if !tab.Delete(ids[3]) {
		t.Fatal("delete failed")
	}
	row, _ := tab.Get(ids[8])
	tab.MustInsert(append(relstore.Tuple(nil), row...))
	got, err := sess.Discover(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := coldMine(t, tab, opts); !reflect.DeepEqual(got, want) {
		t.Fatal("post-insert report diverges from cold mine")
	}
	if st := sess.LastStats(); st.FullRuns != 2 || st.ReportHits != 0 {
		t.Errorf("stats = %+v, want 2 full runs", st)
	}
}

// TestSessionOptionsChangeForcesFullRun verifies a different Options value
// never serves the report mined under another configuration.
func TestSessionOptionsChangeForcesFullRun(t *testing.T) {
	ds := datagen.Generate(datagen.Config{Tuples: 200, Seed: 37})
	sess := NewSession(ds.Dirty)
	if _, err := sess.Discover(context.Background(), Options{MinSupport: 4}); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Discover(context.Background(), Options{MinSupport: 8})
	if err != nil {
		t.Fatal(err)
	}
	if want := coldMine(t, ds.Dirty, Options{MinSupport: 8}); !reflect.DeepEqual(got, want) {
		t.Fatal("re-optioned report diverges from cold mine")
	}
	if st := sess.LastStats(); st.FullRuns != 2 {
		t.Errorf("stats = %+v, want 2 full runs", st)
	}
}
