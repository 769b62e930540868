package fdset

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestClosureTransitivity(t *testing.T) {
	s := New(5)
	s.Add([]int{0}, 1)
	s.Add([]int{1}, 2)
	s.Add([]int{2, 3}, 4)
	if got := s.Closure(BitsOf(5, []int{0})).Positions(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("closure(0) = %v", got)
	}
	if got := s.Closure(BitsOf(5, []int{0, 3})).Positions(); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("closure(0,3) = %v", got)
	}
	if !s.Implies([]int{0, 3}, 4) {
		t.Fatal("0,3 -> 4 should be implied (transitivity)")
	}
	if s.Implies([]int{3}, 4) {
		t.Fatal("3 -> 4 must not be implied")
	}
	if !s.Implies([]int{4}, 4) {
		t.Fatal("trivial implication must hold")
	}
}

func TestEquivalentSets(t *testing.T) {
	s := New(4)
	s.Add([]int{0}, 1)
	s.Add([]int{1}, 0)
	if !s.Equivalent([]int{0, 2}, []int{1, 2}) {
		t.Fatal("{0,2} and {1,2} determine each other")
	}
	if s.Equivalent([]int{0}, []int{2}) {
		t.Fatal("{0} and {2} are not equivalent")
	}
}

func TestAddDropsTrivialAndDuplicate(t *testing.T) {
	s := New(3)
	s.Add([]int{0, 1}, 1) // trivial
	if s.Len() != 0 {
		t.Fatalf("trivial FD stored: %v", s.FDs())
	}
	s.Add([]int{0}, 1)
	s.Add([]int{0}, 1) // duplicate
	if s.Len() != 1 {
		t.Fatalf("duplicate FD stored: %v", s.FDs())
	}
}

func TestDerivationWitness(t *testing.T) {
	s := New(6)
	s.Add([]int{0}, 1)
	s.Add([]int{1}, 2)
	s.Add([]int{3}, 4) // irrelevant to the target
	w, ok := s.Derivation([]int{0, 3}, 2)
	if !ok {
		t.Fatal("0,3 -> 2 should be derivable")
	}
	var strs []string
	for _, f := range w {
		strs = append(strs, f.String())
	}
	if !reflect.DeepEqual(strs, []string{"{0}->1", "{1}->2"}) {
		t.Fatalf("witness = %v, want the 0->1->2 chain only", strs)
	}
	if _, ok := s.Derivation([]int{3}, 2); ok {
		t.Fatal("3 -> 2 must not be derivable")
	}
	if w, ok := s.Derivation([]int{2, 5}, 2); !ok || len(w) != 0 {
		t.Fatalf("trivial derivation should be empty, got %v ok=%v", w, ok)
	}
}

// TestAgainstArmstrongAxioms checks Closure, Implies and Derivation against
// the definition of entailment: the set of FDs over <= 8 attributes obtained
// by saturating the input under reflexivity, augmentation and transitivity,
// held as one bit per (LHS subset, RHS attribute).
func TestAgainstArmstrongAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	derived := 0 // non-trivial entailments met, so the sweep is not vacuous
	for round := 0; round < 60; round++ {
		arity := 2 + rng.Intn(7)
		s := New(arity)
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
			s.Add(pos, rhs)
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
			clo := s.Closure(BitsOf(arity, pos))
			for a := 0; a < arity; a++ {
				want := derives[x]&(1<<a) != 0
				if clo.Has(a) != want || s.Implies(pos, a) != want {
					t.Fatalf("round %d: %s: %v -> %d: closure %v, implies %v, axioms %v",
						round, s, pos, a, clo.Has(a), s.Implies(pos, a), want)
				}
				if want && x&(1<<a) == 0 {
					derived++
				}
				w, ok := s.Derivation(pos, a)
				if ok != want {
					t.Fatalf("round %d: %s: Derivation(%v -> %d) ok = %v, axioms %v", round, s, pos, a, ok, want)
				}
				if ok {
					// The witness alone, fired in order from pos, must reach a.
					have := BitsOf(arity, pos)
					for _, f := range w {
						if !have.ContainsAll(f.Lhs) {
							t.Fatalf("round %d: witness step %s fires before its LHS is derived", round, f)
						}
						have.Set(f.Rhs)
					}
					if !have.Has(a) {
						t.Fatalf("round %d: witness %v does not derive %v -> %d", round, w, pos, a)
					}
				}
			}
		}
	}
	if derived < 1000 {
		t.Fatalf("only %d non-trivial entailments checked", derived)
	}
}

func TestRenderNames(t *testing.T) {
	s := New(3)
	s.Add([]int{0, 2}, 1)
	got := s.FDs()[0].Render([]string{"CC", "CT", "AC"})
	if got != "[CC,AC]->[CT]" {
		t.Fatalf("Render = %q", got)
	}
}

func TestWideArity(t *testing.T) {
	s := New(130) // multi-word bitsets
	s.Add([]int{129}, 0)
	s.Add([]int{0}, 64)
	if !s.Implies([]int{129}, 64) {
		t.Fatal("129 -> 64 via 0 should hold across words")
	}
	b := BitsOf(130, []int{1, 64, 129})
	if len(b.Positions()) != 3 || !b.Has(129) || b.Has(128) {
		t.Fatalf("bitset bookkeeping broken: %v", b.Positions())
	}
}
