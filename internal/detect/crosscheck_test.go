package detect

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/datagen"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// TestCrossCheckRandomized generates random tables and random CFD sets and
// verifies that the SQL detection technique agrees with the paper's
// definition (cfddef.Check) and that the factorised core and the tracker
// agree with it — the central correctness property of the SQL generation
// path (and of the engine underneath it).
func TestCrossCheckRandomized(t *testing.T) {
	attrs := []string{"A", "B", "C", "D", "E"}
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		store := relstore.NewStore()
		tab, err := store.Create(schema.New(fmt.Sprintf("r%d", trial), attrs...))
		if err != nil {
			t.Fatal(err)
		}
		// Small value domains force plenty of grouping and collisions;
		// occasional NULLs and ints exercise the key paths.
		n := 20 + rng.Intn(120)
		for i := 0; i < n; i++ {
			row := make(relstore.Tuple, len(attrs))
			for j := range row {
				switch rng.Intn(10) {
				case 0:
					row[j] = types.Null
				case 1, 2:
					row[j] = types.NewInt(int64(rng.Intn(4)))
				default:
					row[j] = types.NewString(fmt.Sprintf("v%d", rng.Intn(5)))
				}
			}
			tab.MustInsert(row)
		}
		// Random CFDs: 1-3 LHS attrs, 1 RHS attr, patterns mixing
		// wildcards with constants drawn from the same domain.
		var cfds []*cfd.CFD
		numCFDs := 1 + rng.Intn(4)
		for c := 0; c < numCFDs; c++ {
			perm := rng.Perm(len(attrs))
			k := 1 + rng.Intn(3)
			lhs := make([]string, k)
			for i := 0; i < k; i++ {
				lhs[i] = attrs[perm[i]]
			}
			rhs := []string{attrs[perm[k]]}
			cc := &cfd.CFD{ID: fmt.Sprintf("c%d", c), Table: tab.Schema().Name, LHS: lhs, RHS: rhs}
			numPat := 1 + rng.Intn(3)
			for p := 0; p < numPat; p++ {
				pt := cfd.PatternTuple{}
				for range lhs {
					pt.LHS = append(pt.LHS, randPattern(rng))
				}
				pt.RHS = []cfd.PatternValue{randPattern(rng)}
				cc.Tableau = append(cc.Tableau, pt)
			}
			cfds = append(cfds, cc)
		}

		sqlRep, err := NewSQLDetector(store).Detect(context.Background(), tab, cfds)
		if err != nil {
			t.Fatalf("trial %d: sql: %v", trial, err)
		}
		checkDefinition(t, fmt.Sprintf("trial %d: sql", trial), tab.Snapshot(), cfds, sqlRep)
		workers := []int{1, 2, 8}[trial%3]
		parRep, err := ColumnarDetector{Workers: workers}.Detect(context.Background(), tab, cfds)
		if err != nil {
			t.Fatalf("trial %d: parallel: %v", trial, err)
		}
		if err := Equivalent(sqlRep, parRep); err != nil {
			t.Fatalf("trial %d: parallel (workers=%d) disagrees: %v\ncfds:\n%v",
				trial, workers, err, cfds)
		}
		colRep, err := ColumnarDetector{Workers: 1}.Detect(context.Background(), tab, cfds)
		if err != nil {
			t.Fatalf("trial %d: columnar: %v", trial, err)
		}
		// The columnar report must be byte-identical to the SQL one, not
		// merely equivalent: same violations, same order, same groups.
		if !reflect.DeepEqual(sqlRep, colRep) {
			t.Fatalf("trial %d: columnar report not identical to sql\ncfds:\n%v", trial, cfds)
		}

		// And the tracker, seeded from the same table, agrees too.
		tr, err := NewTracker(tab, cfds)
		if err != nil {
			t.Fatalf("trial %d: tracker: %v", trial, err)
		}
		if err := Equivalent(sqlRep, tr.Report()); err != nil {
			t.Fatalf("trial %d: tracker disagrees: %v", trial, err)
		}
	}
}

// TestParallelCrossCheckDatagen runs the detectors over generated customer
// tables at several noise rates and worker counts: SQLDetector must agree
// with the paper's definition, and the multi-worker ColumnarDetector must
// be Equivalent to it on realistic workloads (the standard CFD set mixes
// constant and variable patterns).
func TestParallelCrossCheckDatagen(t *testing.T) {
	for _, noise := range []float64{0, 0.02, 0.10} {
		ds := datagen.Generate(datagen.Config{Tuples: 2000, Seed: 42, NoiseRate: noise})
		store := relstore.NewStore()
		store.Put(ds.Dirty)
		cfds := datagen.StandardCFDs()
		sqlRep, err := NewSQLDetector(store).Detect(context.Background(), ds.Dirty, cfds)
		if err != nil {
			t.Fatalf("noise=%.2f: sql: %v", noise, err)
		}
		checkDefinition(t, fmt.Sprintf("noise=%.2f: sql", noise), ds.Dirty.Snapshot(), cfds, sqlRep)
		if noise > 0 && len(sqlRep.Vio) == 0 {
			t.Fatalf("noise=%.2f produced no violations; test is vacuous", noise)
		}
		for _, workers := range []int{1, 2, 8} {
			par, err := ColumnarDetector{Workers: workers}.Detect(context.Background(), ds.Dirty, cfds)
			if err != nil {
				t.Fatalf("noise=%.2f workers=%d: %v", noise, workers, err)
			}
			if err := Equivalent(sqlRep, par); err != nil {
				t.Errorf("noise=%.2f workers=%d: parallel vs sql: %v", noise, workers, err)
			}
		}
	}
}

// TestColumnarByteIdenticalDatagen is the cross-snapshot acceptance check
// for the columnar read path: at noise 0, 2% and 10%, the sequential
// columnar report and every sharded configuration must be deep-equal to
// the SQL engine's report — same violation records in the same order,
// same groups, same members, same value representatives — not merely
// statistics-equivalent.
func TestColumnarByteIdenticalDatagen(t *testing.T) {
	for _, noise := range []float64{0, 0.02, 0.10} {
		ds := datagen.Generate(datagen.Config{Tuples: 2000, Seed: 77, NoiseRate: noise})
		cfds := datagen.StandardCFDs()
		sqlRep := sqlReport(t, ds.Dirty.Snapshot(), cfds)
		if noise > 0 && len(sqlRep.Vio) == 0 {
			t.Fatalf("noise=%.2f produced no violations; test is vacuous", noise)
		}
		for _, workers := range []int{1, 2, 8} {
			col, err := ColumnarDetector{Workers: workers}.Detect(context.Background(), ds.Dirty, cfds)
			if err != nil {
				t.Fatalf("noise=%.2f workers=%d: columnar: %v", noise, workers, err)
			}
			if !reflect.DeepEqual(sqlRep, col) {
				t.Errorf("noise=%.2f workers=%d: columnar report not byte-identical to sql", noise, workers)
			}
		}
	}
}

func randPattern(rng *rand.Rand) cfd.PatternValue {
	switch rng.Intn(4) {
	case 0:
		return cfd.Constant(types.NewString(fmt.Sprintf("v%d", rng.Intn(5))))
	case 1:
		return cfd.Constant(types.NewInt(int64(rng.Intn(4))))
	default:
		return cfd.Wild
	}
}

// TestVioDefinitionOnKnownGroups pins the paper's vio(t) arithmetic on a
// hand-computed instance: group sizes 2+3 sharing an LHS value space.
func TestVioDefinitionOnKnownGroups(t *testing.T) {
	store := relstore.NewStore()
	tab, _ := store.Create(schema.New("r", "K", "V"))
	ins := func(k, v string) relstore.TupleID {
		return tab.MustInsert(relstore.Tuple{types.NewString(k), types.NewString(v)})
	}
	// Group k1: values a,a,b,c (4 members, counts a:2 b:1 c:1).
	a1 := ins("k1", "a")
	a2 := ins("k1", "a")
	b := ins("k1", "b")
	c := ins("k1", "c")
	// Group k2: clean.
	ins("k2", "z")
	ins("k2", "z")
	fd := cfd.NewFD("f", "r", []string{"K"}, []string{"V"})
	for name, det := range detectors(t, store) {
		t.Run(name, func(t *testing.T) {
			rep, err := det.Detect(context.Background(), tab, []*cfd.CFD{fd})
			if err != nil {
				t.Fatal(err)
			}
			// vio = members - count(own value): a:2, b:3, c:3.
			want := map[relstore.TupleID]int{a1: 2, a2: 2, b: 3, c: 3}
			for id, n := range want {
				if rep.Vio[id] != n {
					t.Errorf("vio(%d) = %d, want %d", id, rep.Vio[id], n)
				}
			}
			if len(rep.Vio) != 4 {
				t.Errorf("dirty = %v", rep.Vio)
			}
		})
	}
}

// TestColumnarIdenticalOnFloatEdgeCases pins the float edge cases that
// once diverged between the row and columnar paths: NaN (which compared
// "equal" to every number before cmpFloat64 grew its NaN arm) and the
// -0.0/0.0 pair (bit-distinct, Equal, one Equal-class).
func TestColumnarIdenticalOnFloatEdgeCases(t *testing.T) {
	// NaN table: the constant pattern a=5 -> b=7 must flag the NaN row
	// (NaN != 7), and the FD must see {NaN, 7} disagree in one group.
	// reflect.DeepEqual cannot compare reports containing NaN (NaN != NaN
	// under ==), so this half checks structure with Value.Equal.
	store := relstore.NewStore()
	tab, _ := store.Create(schema.New("r", "A", "B"))
	nanID := tab.MustInsert(relstore.Tuple{types.NewInt(5), types.NewFloat(math.NaN())})
	tab.MustInsert(relstore.Tuple{types.NewInt(5), types.NewInt(7)})
	cfds := []*cfd.CFD{
		cfd.New("c1", "r", []string{"A"}, []string{"B"}, cfd.PatternTuple{
			LHS: []cfd.PatternValue{cfd.Constant(types.NewInt(5))},
			RHS: []cfd.PatternValue{cfd.Constant(types.NewInt(7))},
		}),
		cfd.NewFD("c2", "r", []string{"A"}, []string{"B"}),
	}
	sqlRep, err := NewSQLDetector(store).Detect(context.Background(), tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	if sqlRep.Vio[nanID] != 2 { // one single-tuple + one multi-tuple partner
		t.Fatalf("sql vio(NaN row) = %d, want 2", sqlRep.Vio[nanID])
	}
	checkDefinition(t, "sql", tab.Snapshot(), cfds, sqlRep)
	for _, workers := range []int{1, 4} {
		col, err := ColumnarDetector{Workers: workers}.Detect(context.Background(), tab, cfds)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := Equivalent(sqlRep, col); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(col.Violations) != len(sqlRep.Violations) {
			t.Fatalf("workers=%d: %d violations, sql %d",
				workers, len(col.Violations), len(sqlRep.Violations))
		}
		for i, nv := range sqlRep.Violations {
			cv := col.Violations[i]
			if cv.CFDID != nv.CFDID || cv.Kind != nv.Kind || cv.TupleID != nv.TupleID ||
				cv.Pattern != nv.Pattern || cv.Partners != nv.Partners ||
				!cv.Expected.Equal(nv.Expected) || !cv.Got.Equal(nv.Got) ||
				cv.Got.Kind() != nv.Got.Kind() {
				t.Fatalf("workers=%d: violation %d differs: %+v vs %+v", workers, i, cv, nv)
			}
		}
	}

	// -0.0 table: bit-distinct, Equal values in one LHS group. No NaNs,
	// so full deep-equality applies.
	store2 := relstore.NewStore()
	tab2, _ := store2.Create(schema.New("r", "A", "B"))
	tab2.MustInsert(relstore.Tuple{types.NewFloat(math.Copysign(0, -1)), types.NewInt(1)})
	tab2.MustInsert(relstore.Tuple{types.NewFloat(0), types.NewInt(2)})
	tab2.MustInsert(relstore.Tuple{types.NewInt(0), types.NewInt(2)})
	fd := cfd.NewFD("c2", "r", []string{"A"}, []string{"B"})
	sql2, err := NewSQLDetector(store2).Detect(context.Background(), tab2, []*cfd.CFD{fd})
	if err != nil {
		t.Fatal(err)
	}
	if len(sql2.Vio) != 3 {
		t.Fatalf("-0.0 group: sql dirty = %v, want all 3 tuples", sql2.Vio)
	}
	checkDefinition(t, "sql", tab2.Snapshot(), []*cfd.CFD{fd}, sql2)
	for _, workers := range []int{1, 4} {
		col, err := ColumnarDetector{Workers: workers}.Detect(context.Background(), tab2, []*cfd.CFD{fd})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(sql2, col) {
			t.Errorf("workers=%d: columnar diverges from sql on -0.0/0.0/0 grouping", workers)
		}
	}
}
