package detect

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// TestLHSKeySeparatorCollision is the regression test for the 0x1f grouping
// bug: under the old separator-joined encoding, the LHS vectors
// ("x", "y\x1fsz") and ("x\x1fsy", "z") produced the same group key — the
// separator byte inside a value aliased the attribute boundary — so two
// tuples with different LHS values were grouped together and falsely
// reported as an FD violation. Length-prefixed keys keep them apart.
func TestLHSKeySeparatorCollision(t *testing.T) {
	store := relstore.NewStore()
	tab, err := store.Create(schema.New("r", "A", "B", "C"))
	if err != nil {
		t.Fatal(err)
	}
	ins := func(a, b, c string) relstore.TupleID {
		return tab.MustInsert(relstore.Tuple{
			types.NewString(a), types.NewString(b), types.NewString(c)})
	}
	// Adversarial pair: distinct LHS vectors whose old keys collided.
	ins("x", "y\x1fsz", "c1")
	ins("x\x1fsy", "z", "c2")
	// Control pair: genuinely equal LHS, disagreeing RHS — must still fire.
	d1 := ins("k", "k", "v1")
	d2 := ins("k", "k", "v2")

	fd := cfd.NewFD("f", "r", []string{"A", "B"}, []string{"C"})
	want := map[relstore.TupleID]int{d1: 1, d2: 1}

	dets := map[string]Detector{
		"sql":       NewSQLDetector(store),
		"parallel1": ColumnarDetector{Workers: 1},
		"parallel4": ColumnarDetector{Workers: 4},
		"columnar":  ColumnarDetector{Workers: 1},
	}
	for name, det := range dets {
		rep, err := det.Detect(context.Background(), tab, []*cfd.CFD{fd})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(rep.Vio, want) {
			t.Errorf("%s: vio = %v, want %v (adversarial LHS vectors aliased?)", name, rep.Vio, want)
		}
	}
	// The incremental tracker groups with the same keys.
	tr, err := NewTracker(tab, []*cfd.CFD{fd})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Report().Vio; !reflect.DeepEqual(got, want) {
		t.Errorf("tracker: vio = %v, want %v", got, want)
	}
}

// TestParallelIdenticalToSQL checks the strongest form of the contract:
// the parallel report is deep-equal to the SQL engine's — same violation
// order, same group order, same member order — for several worker counts,
// including counts that exceed the tuple count.
func TestParallelIdenticalToSQL(t *testing.T) {
	store := relstore.NewStore()
	tab, _ := store.Create(schema.New("r", "K", "L", "V", "W"))
	for i := 0; i < 200; i++ {
		tab.MustInsert(relstore.Tuple{
			types.NewString(fmt.Sprintf("k%d", i%17)),
			types.NewInt(int64(i % 5)),
			types.NewString(fmt.Sprintf("v%d", i%3)),
			types.NewString(fmt.Sprintf("w%d", i%7)),
		})
	}
	cfds := []*cfd.CFD{
		cfd.NewFD("f1", "r", []string{"K", "L"}, []string{"V"}),
		cfd.New("f2", "r", []string{"K"}, []string{"W"}, cfd.PatternTuple{
			LHS: []cfd.PatternValue{cfd.ConstStr("k3")},
			RHS: []cfd.PatternValue{cfd.ConstStr("w0")},
		}),
	}
	sqlRep, err := NewSQLDetector(store).Detect(context.Background(), tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	if len(sqlRep.Vio) == 0 {
		t.Fatal("workload produced no violations; test is vacuous")
	}
	for _, w := range []int{0, 1, 2, 3, 8, 500} {
		par, err := ColumnarDetector{Workers: w}.Detect(context.Background(), tab, cfds)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(sqlRep, par) {
			t.Errorf("workers=%d: parallel report differs from sql", w)
		}
	}
}

// TestParallelEmptyAndCleanTables covers the degenerate inputs.
func TestParallelEmptyAndCleanTables(t *testing.T) {
	store := relstore.NewStore()
	tab, _ := store.Create(schema.New("r", "A", "B"))
	fd := cfd.NewFD("f", "r", []string{"A"}, []string{"B"})

	rep, err := ColumnarDetector{Workers: 4}.Detect(context.Background(), tab, []*cfd.CFD{fd})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TupleCount != 0 || len(rep.Vio) != 0 {
		t.Errorf("empty table: %+v", rep)
	}

	for i := 0; i < 10; i++ {
		tab.MustInsert(relstore.Tuple{
			types.NewString(fmt.Sprintf("a%d", i)), types.NewString("b")})
	}
	rep, err = ColumnarDetector{Workers: 4}.Detect(context.Background(), tab, []*cfd.CFD{fd})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TupleCount != 10 || len(rep.Vio) != 0 || len(rep.Groups) != 0 {
		t.Errorf("clean table: vio=%v groups=%d", rep.Vio, len(rep.Groups))
	}
}

// TestParallelValidatesCFDs confirms error paths surface like the SQL
// detector's.
func TestParallelValidatesCFDs(t *testing.T) {
	store := relstore.NewStore()
	tab, _ := store.Create(schema.New("r", "A", "B"))
	bad := cfd.NewFD("f", "r", []string{"NOPE"}, []string{"B"})
	det, err := NewDetector(ParallelEngine, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Detect(context.Background(), tab, []*cfd.CFD{bad}); err == nil {
		t.Fatal("expected validation error for unknown attribute")
	}
}
