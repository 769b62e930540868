package discovery

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"semandaq/internal/datagen"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// fdTable builds a table where A → B holds exactly (B is a function of A)
// while C and D cycle with coprime periods so no other FD holds: the
// {A,B} lattice node must collapse onto {A}'s partition.
func fdTable(t *testing.T, n int) *relstore.Table {
	t.Helper()
	tab := relstore.NewTable(schema.New("r", "A", "B", "C", "D"))
	for i := 0; i < n; i++ {
		a := i % 4
		tab.MustInsert(relstore.Tuple{
			types.NewString(fmt.Sprintf("a%d", a)),
			types.NewString(fmt.Sprintf("b%d", a/2)), // a0,a1->b0; a2,a3->b1
			types.NewString(fmt.Sprintf("c%d", i%3)),
			types.NewString(fmt.Sprintf("d%d", i%5)),
		})
	}
	return tab
}

// TestClosureCollapseFires asserts the tentpole pruning actually happens:
// with A → B in the emitted cover, the {A,B} node's partition is shared
// from {A} instead of intersected, so the closure run performs strictly
// fewer intersections than the disableClosure run — and the reports stay
// DeepEqual (the pruning may only skip work, never change output).
func TestClosureCollapseFires(t *testing.T) {
	ctx := context.Background()
	tab := fdTable(t, 60)
	opts := Options{MinSupport: 2, MaxLHS: 2, Workers: 2}

	pruned, ps, err := MineWithStats(ctx, tab.Snapshot(), opts)
	if err != nil {
		t.Fatal(err)
	}
	off := opts
	off.disableClosure = true
	flat, fs, err := MineWithStats(ctx, tab.RebuildSnapshot(), off)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pruned, flat) {
		t.Fatalf("closure pruning changed the report:\npruned: %+v\nflat:   %+v", pruned, flat)
	}
	if ps.PartitionsCollapsed == 0 {
		t.Fatalf("no partition collapsed despite A -> B in the cover: %+v", ps)
	}
	if fs.PartitionsCollapsed != 0 {
		t.Fatalf("disableClosure still collapsed partitions: %+v", fs)
	}
	if ps.PartitionsIntersected >= fs.PartitionsIntersected {
		t.Fatalf("closure run intersected %d partitions, flat run %d — pruning saved nothing",
			ps.PartitionsIntersected, fs.PartitionsIntersected)
	}
	if ps.PartitionsIntersected+ps.PartitionsCollapsed != fs.PartitionsIntersected {
		t.Fatalf("work accounting off: %d intersected + %d collapsed != flat %d",
			ps.PartitionsIntersected, ps.PartitionsCollapsed, fs.PartitionsIntersected)
	}
}

// TestClosureIdentityOnGeneratedData sweeps noise rates and depths on the
// datagen workload: closure-pruned and flat mines must agree byte for
// byte, including under approximate confidence where only exact FDs may
// enter the cover.
func TestClosureIdentityOnGeneratedData(t *testing.T) {
	ctx := context.Background()
	for _, noise := range []float64{0, 0.05} {
		for _, conf := range []float64{1.0, 0.9} {
			ds := datagen.Generate(datagen.Config{Tuples: 500, Seed: 23, NoiseRate: noise})
			opts := Options{MinSupport: 3, MaxLHS: 3, MinConfidence: conf, Workers: 2}
			pruned, err := Mine(ctx, ds.Dirty.Snapshot(), opts)
			if err != nil {
				t.Fatal(err)
			}
			off := opts
			off.disableClosure = true
			flat, err := Mine(ctx, ds.Dirty.RebuildSnapshot(), off)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pruned, flat) {
				t.Fatalf("noise=%.2f conf=%.2f: closure pruning changed the report", noise, conf)
			}
		}
	}
}

// TestSessionMatchesColdMineAcrossFDFlips mutates the FD table through
// rounds of edits that break and restore A → B, asserting after each round
// that the session's closure-pruned report equals a cold mine.
func TestSessionMatchesColdMineAcrossFDFlips(t *testing.T) {
	ctx := context.Background()
	tab := fdTable(t, 48)
	opts := Options{MinSupport: 2, MaxLHS: 2, Workers: 2}
	sess := NewSession(tab)
	rng := rand.New(rand.NewSource(7))
	posB := tab.Schema().MustPos("B")
	ids := tab.Snapshot().IDs()
	for round := 0; round < 6; round++ {
		got, err := sess.Discover(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := coldMine(t, tab, opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: session report != cold mine", round)
		}
		// Alternate breaking the FD (scatter B) and restoring it.
		id := ids[rng.Intn(len(ids))]
		v := fmt.Sprintf("b%d", round%2*3) // b0 or b3: b3 breaks A->B
		if _, err := tab.SetCell(id, posB, types.NewString(v)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExactFDsProjection asserts ExactFDs keeps exactly the confidence-1
// global FDs and that closure queries over it answer implication.
func TestExactFDsProjection(t *testing.T) {
	tab := fdTable(t, 40)
	rep, err := Mine(context.Background(), tab.Snapshot(), Options{MinSupport: 2, MaxLHS: 2})
	if err != nil {
		t.Fatal(err)
	}
	sc := tab.Schema()
	set, err := rep.ExactFDs(sc)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := sc.MustPos("A"), sc.MustPos("B"), sc.MustPos("C")
	if !set.Implies([]int{a}, b) {
		t.Fatalf("A -> B missing from exact set %s", set)
	}
	if set.Implies([]int{a}, c) || set.Implies([]int{b}, a) {
		t.Fatalf("spurious implication in exact set %s", set)
	}
}
