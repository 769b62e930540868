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

func TestClosureTransitivity(t *testing.T) {
	s := newFDSet(5)
	s.add([]int{0}, 1)
	s.add([]int{1}, 2)
	s.add([]int{2, 3}, 4)
	if got := s.closure(bitsOf(5, []int{0})); !reflect.DeepEqual(got, bitsOf(5, []int{0, 1, 2})) {
		t.Fatalf("closure(0) = %b", got)
	}
	if got := s.closure(bitsOf(5, []int{0, 3})); !reflect.DeepEqual(got, bitsOf(5, []int{0, 1, 2, 3, 4})) {
		t.Fatalf("closure(0,3) = %b", got)
	}
	if !s.implies([]int{0, 3}, 4) {
		t.Fatal("0,3 -> 4 should be implied (transitivity)")
	}
	if s.implies([]int{3}, 4) {
		t.Fatal("3 -> 4 must not be implied")
	}
	if !s.implies([]int{4}, 4) {
		t.Fatal("trivial implication must hold")
	}
}

func TestAddDropsTrivialAndDuplicate(t *testing.T) {
	s := newFDSet(3)
	s.add([]int{0, 1}, 1) // trivial
	if len(s.fds) != 0 {
		t.Fatalf("trivial FD stored: %v", s.fds)
	}
	s.add([]int{0}, 1)
	s.add([]int{0}, 1) // duplicate
	if len(s.fds) != 1 {
		t.Fatalf("duplicate FD stored: %v", s.fds)
	}
}

// TestAgainstArmstrongAxioms checks closure and implies against the
// definition of entailment: the set of FDs over <= 8 attributes obtained by
// saturating the input under reflexivity, augmentation and transitivity,
// held as one bit per (LHS subset, RHS attribute).
func TestAgainstArmstrongAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	derived := 0 // non-trivial entailments met, so the sweep is not vacuous
	for round := 0; round < 60; round++ {
		arity := 2 + rng.Intn(7)
		s := newFDSet(arity)
		// derives[x] is the set of attributes the subset x is known to determine.
		derives := make([]uint, 1<<arity)
		for x := range derives {
			derives[x] = uint(x) // reflexivity
		}
		for i, n := 0, rng.Intn(7); i < n; i++ {
			// One- and two-attribute LHSs, so chains form.
			lhs := 1<<rng.Intn(arity) | 1<<rng.Intn(arity)
			rhs := rng.Intn(arity)
			var pos []int
			for a := 0; a < arity; a++ {
				if lhs&(1<<a) != 0 {
					pos = append(pos, a)
				}
			}
			s.add(pos, rhs)
			derives[lhs] |= 1 << rhs
		}
		for changed := true; changed; {
			changed = false
			for x := range derives {
				for y := range derives {
					// Augmentation: x → A gives y → A for every y ⊇ x.
					if x&y == x && derives[y]|derives[x] != derives[y] {
						derives[y] |= derives[x]
						changed = true
					}
					// Transitivity: x → y and y → A give x → A.
					if derives[x]&uint(y) == uint(y) && derives[x]|derives[y] != derives[x] {
						derives[x] |= derives[y]
						changed = true
					}
				}
			}
		}
		for x := 1; x < 1<<arity; x++ {
			var pos []int
			for a := 0; a < arity; a++ {
				if x&(1<<a) != 0 {
					pos = append(pos, a)
				}
			}
			clo := s.closure(bitsOf(arity, pos))
			for a := 0; a < arity; a++ {
				want := derives[x]&(1<<a) != 0
				if clo.has(a) != want || s.implies(pos, a) != want {
					t.Fatalf("round %d: %v: %v -> %d: closure %v, implies %v, axioms %v",
						round, s.fds, pos, a, clo.has(a), s.implies(pos, a), want)
				}
				if want && x&(1<<a) == 0 {
					derived++
				}
			}
		}
	}
	if derived < 1000 {
		t.Fatalf("only %d non-trivial entailments checked", derived)
	}
}

func TestWideArity(t *testing.T) {
	s := newFDSet(130) // multi-word bitsets
	s.add([]int{129}, 0)
	s.add([]int{0}, 64)
	if !s.implies([]int{129}, 64) {
		t.Fatal("129 -> 64 via 0 should hold across words")
	}
	b := bitsOf(130, []int{1, 64, 129})
	if len(b) != 3 || !b.has(1) || !b.has(64) || !b.has(129) || b.has(128) || b.has(0) {
		t.Fatalf("bitset bookkeeping broken: %b", b)
	}
}
