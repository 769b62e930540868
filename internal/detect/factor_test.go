package detect

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/datagen"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// TestFactorisedExplodeMatchesSQL is the byte-identity oracle on the
// generated workload: DetectFactorised().Explode() must DeepEqual the SQL
// engine's report — violations, groups, member order, RHSOf maps, vio(t),
// everything — across noise rates. StandardCFDs cover both
// grouping shapes: phi1/phi4 have all-wildcard variable patterns (every
// partition class is a candidate), phi2 conditions on CNT=UK (classes are
// filtered by the pattern).
func TestFactorisedExplodeMatchesSQL(t *testing.T) {
	ctx := context.Background()
	cfds := datagen.StandardCFDs()
	for _, noise := range []float64{0, 0.05, 0.2} {
		ds := datagen.Generate(datagen.Config{Tuples: 900, Seed: 11, NoiseRate: noise})
		snap := ds.Dirty.Snapshot()
		want := sqlReport(t, snap, cfds)
		fr, err := DetectFactorised(ctx, snap, cfds)
		if err != nil {
			t.Fatal(err)
		}
		got := fr.Explode()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("noise=%.2f: exploded factorised report != sql report", noise)
		}
		// Exploding twice must not corrupt the factorised form (it is served
		// repeatedly): the second explosion matches too.
		if again := fr.Explode(); !reflect.DeepEqual(again, want) {
			t.Fatalf("noise=%.2f: second Explode() diverged", noise)
		}
	}
}

// adversarialTable builds the nasty fixture: INT 1 vs FLOAT 1.0 (one
// Equal-class, distinct exact keys), NaN, NULLs in LHS and RHS positions.
func adversarialTable() *relstore.Table {
	tab := relstore.NewTable(schema.New("f", "K", "V", "W"))
	vals := []types.Value{
		types.NewInt(1), types.NewFloat(1.0), types.NewFloat(math.NaN()),
		types.Null, types.NewString("x"), types.NewString("y"),
	}
	n := 0
	for _, k := range vals {
		for _, v := range vals {
			tab.MustInsert(relstore.Tuple{k, v, types.NewInt(int64(n % 3))})
			n++
		}
	}
	return tab
}

// TestFactorisedAdversarial pins byte-identity on the fixtures that break
// naive key handling: NULL LHS classes, NULL RHS members, INT 1 / FLOAT
// 1.0 sharing an Equal-class but not an exact RHS key, multi-attribute
// LHS, and a merged tableau mixing constant and variable patterns.
func TestFactorisedAdversarial(t *testing.T) {
	ctx := context.Background()
	tab := adversarialTable()
	mixed := cfd.NewFD("mix", "f", []string{"K"}, []string{"V"})
	if err := mixed.AddPattern(cfd.PatternTuple{
		LHS: []cfd.PatternValue{cfd.Constant(types.NewString("x"))},
		RHS: []cfd.PatternValue{cfd.Constant(types.NewString("y"))},
	}); err != nil {
		t.Fatal(err)
	}
	suites := map[string][]*cfd.CFD{
		"fd-single-lhs": {cfd.NewFD("c1", "f", []string{"K"}, []string{"V"})},
		"fd-multi-lhs":  {cfd.NewFD("c2", "f", []string{"K", "W"}, []string{"V"})},
		"const-lhs-var-rhs": {cfd.New("c3", "f", []string{"K"}, []string{"V"}, cfd.PatternTuple{
			LHS: []cfd.PatternValue{cfd.Constant(types.NewInt(1))},
			RHS: []cfd.PatternValue{cfd.Wild},
		})},
		"mixed-tableau": {mixed},
	}
	for name, cfds := range suites {
		snap := tab.Snapshot()
		want := sqlReport(t, snap, cfds)
		checkDefinition(t, name, snap, cfds, want)
		fr, err := DetectFactorised(ctx, snap, cfds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := fr.Explode(); !reflect.DeepEqual(keyNormalize(got), keyNormalize(want)) {
			t.Fatalf("%s: exploded factorised report != sql report\ngot:  %+v\nwant: %+v",
				name, got, want)
		}
	}
}

// keyNormalize rewrites every types.Value in the report to its canonical
// Key() string. The fixture deliberately contains NaN, and NaN != NaN
// makes reflect.DeepEqual unconditionally false on otherwise identical
// reports (the two legacy engines fail it on this fixture too); comparing
// in key space keeps the comparison exact — Key() is collision-free.
func keyNormalize(rep *Report) *Report {
	cp := *rep
	cp.Violations = append([]Violation(nil), rep.Violations...)
	for i := range cp.Violations {
		v := &cp.Violations[i]
		v.Expected = types.NewString(v.Expected.Key())
		v.Got = types.NewString(v.Got.Key())
	}
	cp.Groups = make([]*Group, len(rep.Groups))
	for i, g := range rep.Groups {
		gc := *g
		gc.LHSValues = make([]types.Value, len(g.LHSValues))
		for k, v := range g.LHSValues {
			gc.LHSValues[k] = types.NewString(v.Key())
		}
		cp.Groups[i] = &gc
	}
	return &cp
}

// TestFactorGroupAccessors asserts the lazy per-member accessors resolve
// exactly what the exploded group materializes.
func TestFactorGroupAccessors(t *testing.T) {
	ctx := context.Background()
	ds := datagen.Generate(datagen.Config{Tuples: 600, Seed: 3, NoiseRate: 0.1})
	snap := ds.Dirty.Snapshot()
	fr, err := DetectFactorised(ctx, snap, datagen.StandardCFDs())
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.FactorGroups) == 0 {
		t.Fatal("workload produced no dirty groups")
	}
	rep := fr.Explode()
	if len(rep.Groups) != len(fr.FactorGroups) {
		t.Fatalf("group counts differ: %d factorised vs %d exploded",
			len(fr.FactorGroups), len(rep.Groups))
	}
	for gi, g := range fr.FactorGroups {
		eg := rep.Groups[gi]
		if g.Size() != len(eg.Members) || g.MajoritySize() != eg.MajoritySize() {
			t.Fatalf("group %d: size/majority mismatch", gi)
		}
		if !reflect.DeepEqual(g.Members(), eg.Members) {
			t.Fatalf("group %d: Members() != exploded members", gi)
		}
		for i := range eg.Members {
			if g.MemberAt(i) != eg.Members[i] {
				t.Fatalf("group %d member %d: MemberAt mismatch", gi, i)
			}
			if g.RHSKeyAt(i) != eg.RHSOf[eg.Members[i]] {
				t.Fatalf("group %d member %d: RHSKeyAt != RHSOf", gi, i)
			}
			if g.PartnersAt(i) != len(eg.Members)-eg.RHSCounts[eg.RHSOf[eg.Members[i]]] {
				t.Fatalf("group %d member %d: PartnersAt mismatch", gi, i)
			}
		}
	}
}

// giantGroupTable builds one all-rows LHS class disagreeing on two RHS
// values: the worst case for exploded reporting, the best for factorised.
func giantGroupTable(n int) *relstore.Table {
	tab := relstore.NewTable(schema.New("g", "K", "V"))
	for i := 0; i < n; i++ {
		tab.MustInsert(relstore.Tuple{
			types.NewString("k"),
			types.NewString(fmt.Sprintf("v%d", i%2)),
		})
	}
	return tab
}

// TestFactorisedAllocsSublinear is the perf contract stated in the issue:
// reporting a dirty group factorised costs O(distinct RHS values), not
// O(members). Over warmed snapshots (columnar caches built), a 10x larger
// group must not cost meaningfully more allocations — while the exploded
// report provably scales per member.
func TestFactorisedAllocsSublinear(t *testing.T) {
	ctx := context.Background()
	cfds := []*cfd.CFD{cfd.NewFD("fd", "g", []string{"K"}, []string{"V"})}
	allocsAt := func(n int) float64 {
		snap := giantGroupTable(n).Snapshot()
		if _, err := DetectFactorised(ctx, snap, cfds); err != nil {
			t.Fatal(err) // warm the dictionaries, probe vectors, key tables
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := DetectFactorised(ctx, snap, cfds); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocsAt(2_000), allocsAt(20_000)
	if large > small+8 {
		t.Fatalf("factorised allocations scale with group size: %d rows -> %.0f allocs, %d rows -> %.0f",
			2_000, small, 20_000, large)
	}
}

// TestFactorisedWorkerIndependent: the factorised report — groups, row
// refs, the dense vio(t), every field — is DeepEqual whatever the worker
// count, and it is the SQL report.
func TestFactorisedWorkerIndependent(t *testing.T) {
	ctx := context.Background()
	cfds := datagen.StandardCFDs()
	for _, noise := range []float64{0, 0.05, 0.2} {
		ds := datagen.Generate(datagen.Config{Tuples: 1200, Seed: 23, NoiseRate: noise})
		snap := ds.Dirty.Snapshot()
		want, err := DetectFactorised(ctx, snap, cfds)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			got, err := ColumnarDetector{Workers: workers}.DetectFactorised(ctx, snap, cfds)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("noise=%v: factorised report at %d workers differs from the single-worker one", noise, workers)
			}
		}
		if !reflect.DeepEqual(want, sqlFactorised(t, snap, cfds)) {
			t.Errorf("noise=%v: factorised report differs from the sql one", noise)
		}
	}
}

// TestFactorisedDenseVioEdgeCases pins the integer vio(t) on the shapes
// that would break it: several constant patterns firing for one (tuple,
// CFD) count once; INT 1 / FLOAT 1.0 members share a partner count. Both
// engines assemble through the same group core, so the definition
// (cfddef.Check) is the independent side; the SQL digest rides along.
func TestFactorisedDenseVioEdgeCases(t *testing.T) {
	ctx := context.Background()
	tab := adversarialTable()
	twice := cfd.New("twice", "f", []string{"K"}, []string{"V"}, cfd.PatternTuple{
		LHS: []cfd.PatternValue{cfd.Constant(types.NewString("x"))},
		RHS: []cfd.PatternValue{cfd.Constant(types.NewString("y"))},
	})
	if err := twice.AddPattern(cfd.PatternTuple{
		LHS: []cfd.PatternValue{cfd.Wild},
		RHS: []cfd.PatternValue{cfd.Constant(types.NewString("y"))},
	}); err != nil {
		t.Fatal(err)
	}
	suites := map[string][]*cfd.CFD{
		"two-patterns-one-tuple": {twice},
		"numeric-equal-class":    {cfd.NewFD("num", "f", []string{"W"}, []string{"K"})},
		"all-together":           {twice, cfd.NewFD("num", "f", []string{"W"}, []string{"K"}), cfd.NewFD("kv", "f", []string{"K"}, []string{"V"})},
	}
	for name, cfds := range suites {
		snap := tab.Snapshot()
		fr, err := DetectFactorised(ctx, snap, cfds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkDefinition(t, name, snap, cfds, fr.Explode())
		if got, ref := fr.Digest(), sqlFactorised(t, snap, cfds).Digest(); !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: factorised digest differs from the sql report's\ngot:  %+v\nwant: %+v", name, got, ref)
		}
		if fr.Digest().Dirty == 0 {
			t.Errorf("%s: fixture produced no violations", name)
		}
	}
}
