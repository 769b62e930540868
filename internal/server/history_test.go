package server

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"regexp"
	"testing"

	"semandaq/internal/core"
	"semandaq/internal/datagen"
	"semandaq/internal/discovery"
	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

// perRun matches the two members of a detect response that name the run
// rather than the data: the table version and the wall clock.
var perRun = regexp.MustCompile(`"(version|durationMs)":[0-9.eE+-]+`)

// TestEditHistoryMetamorphic: two tables hold the same rows under the same
// ids. One reached them through a few hundred novel-value edits, deletes,
// re-inserts, representation flips and reverts, read often enough that
// every version was patched from the one before — so its dictionaries carry
// the whole history as dead and out-of-order codes. The other was loaded
// with the final rows and batch-built. Nothing served may tell them apart:
// the detect endpoint's bytes under every engine name, the mined rules and
// the SQL detector's reports.
func TestEditHistoryMetamorphic(t *testing.T) {
	ctx := context.Background()
	ds := datagen.Generate(datagen.Config{Tuples: 400, Seed: 5, NoiseRate: 0.03})
	tab := ds.Dirty
	edited := core.New()
	edited.RegisterTable(tab)
	if err := edited.RegisterCFDs("customer", datagen.StandardCFDs()); err != nil {
		t.Fatal(err)
	}
	h := New(edited).Handler()
	engines := []string{"sql", "native", "columnar", "parallel"}
	mineOpts := discovery.Options{MinSupport: 8, MaxLHS: 2, Workers: 2}

	rng := rand.New(rand.NewSource(9))
	sc := tab.Schema()
	type undo struct {
		id   relstore.TupleID
		attr string
		old  types.Value
	}
	var undos []undo
	set := func(id relstore.TupleID, attr string, v types.Value) {
		row, _ := tab.Get(id)
		undos = append(undos, undo{id, attr, row[sc.MustPos(attr)]})
		if _, err := edited.SetCell("customer", id, attr, v); err != nil {
			t.Fatal(err)
		}
	}
	before := relstore.ReadBuildOps()
	for op := 0; op < 320; op++ {
		ids := tab.Snapshot().IDs()
		id := ids[rng.Intn(len(ids))]
		switch k := rng.Intn(10); {
		case k < 3: // a name nobody has had
			set(id, "NAME", types.NewString(fmt.Sprintf("edit%04d", op)))
		case k < 5: // a typo, novel or shared with an earlier one
			set(id, "STR", types.NewString(fmt.Sprintf("typo%d", rng.Intn(40))))
		case k < 6: // same value, other representation: INT 44 <-> FLOAT 44.0
			if row, _ := tab.Get(id); row[sc.MustPos("CC")].Kind() == types.KindInt {
				set(id, "CC", types.NewFloat(float64(row[sc.MustPos("CC")].Int())))
			} else {
				set(id, "CC", types.NewInt(int64(row[sc.MustPos("CC")].Float())))
			}
		case k < 8 && len(undos) > 0: // revert the oldest edit still standing
			u := undos[0]
			undos = undos[1:]
			if _, live := tab.Get(u.id); live {
				if _, err := edited.SetCell("customer", u.id, u.attr, u.old); err != nil {
					t.Fatal(err)
				}
			}
		case k < 9: // delete the table's first row: a first occurrence in every column
			id = ids[0]
			fallthrough
		default: // delete a row and insert it again, at the tail under a new id
			row, _ := tab.Get(id)
			if _, err := edited.Delete("customer", id); err != nil {
				t.Fatal(err)
			}
			if k >= 9 {
				if _, _, err := edited.Insert("customer", row.Clone()); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Read between edits, rotating the engines and mining now and then,
		// so each version's columns, probe vectors and key tables are
		// patched from warm predecessors rather than built fresh.
		if op%4 == 3 {
			if rec := serve(h, "/api/detect/customer?engine="+engines[op/4%4]+"&workers=2"); rec.Code != http.StatusOK {
				t.Fatalf("op %d: status %d: %s", op, rec.Code, rec.Body)
			}
		}
		if op%40 == 39 {
			if _, err := edited.Discover(ctx, "customer", core.WithMinSupport(mineOpts.MinSupport), core.WithMaxLHS(mineOpts.MaxLHS)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One patched snapshot per read round (batch snapshots are the SQL
	// engine's tableau tables).
	if ops := relstore.ReadBuildOps().Sub(before); ops.PatchedSnapshots < 80 {
		t.Fatalf("the edited table was not served by patching: %+v", ops)
	}
	dead := 0
	for j, col := 0, tab.Snapshot().Columnar(); j < col.NumCols(); j++ {
		dead += col.Col(j).CodeSpace() - col.Col(j).Card()
	}
	if dead < 10 { // a compaction on the way resets a column's count
		t.Fatalf("the edit history left only %d dead codes; the test lost its subject", dead)
	}

	direct := core.New()
	direct.RegisterTable(tab.Clone())
	if err := direct.RegisterCFDs("customer", datagen.StandardCFDs()); err != nil {
		t.Fatal(err)
	}
	hd := New(direct).Handler()
	for _, engine := range engines {
		for _, query := range []string{"", "&cfds=phi2&limit=5"} {
			target := "/api/detect/customer?engine=" + engine + "&workers=2" + query
			got, want := serve(h, target), serve(hd, target)
			if got.Code != http.StatusOK || want.Code != http.StatusOK {
				t.Fatalf("%s: status %d / %d", target, got.Code, want.Code)
			}
			g, w := perRun.ReplaceAll(got.Body.Bytes(), nil), perRun.ReplaceAll(want.Body.Bytes(), nil)
			if !bytes.Equal(g, w) {
				t.Errorf("%s: the edited table's response differs from the directly loaded one's\nedited: %s\ndirect: %s", target, g, w)
			}
		}
	}

	directTab, err := direct.Table("customer")
	if err != nil {
		t.Fatal(err)
	}
	got, err := discovery.Mine(ctx, tab.Snapshot(), mineOpts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := discovery.Mine(ctx, directTab.Snapshot(), mineOpts)
	if err != nil {
		t.Fatal(err)
	}
	got.Version, want.Version = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Mine: %d candidates / %d rules on the edited table, %d / %d on the directly loaded one",
			len(got.Candidates), len(got.CFDs), len(want.Candidates), len(want.CFDs))
	}
	if len(want.CFDs) == 0 {
		t.Error("nothing mined; the test lost its subject")
	}

	// The SQL engine on its own: the detector's statements over each table,
	// through Detect. (A patched and a rebuilt snapshot plan alike:
	// TestPlansMatchOnRebuiltSnapshot in internal/sqleng.)
	for _, cfds := range [][]string{nil, {"phi2"}} {
		g, err := edited.Detect(ctx, "customer", core.WithEngine(core.SQLDetection), core.WithCFDs(cfds...))
		if err != nil {
			t.Fatal(err)
		}
		w, err := direct.Detect(ctx, "customer", core.WithEngine(core.SQLDetection), core.WithCFDs(cfds...))
		if err != nil {
			t.Fatal(err)
		}
		g.Version, w.Version = 0, 0
		if !reflect.DeepEqual(g, w) {
			t.Errorf("SQL Detect %v: the edited table's report differs from the directly loaded one's", cfds)
		}
	}
}
