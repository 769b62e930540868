// Package fdset reasons over sets of exact functional dependencies as
// algebraic facts: attribute-set closure under Armstrong's axioms, FD
// implication, attribute-set equivalence, and derivation witnesses.
// Attributes are integer positions (schema/snapshot column
// indices), so the same Set built from a discovery report serves the
// lattice miner (prune partition intersections a mined FD proves
// redundant), the sqleng planner (collapse joins along functionally
// determined keys) and the factorised violation reports.
//
// Only *exact* dependencies belong in a Set: approximate (g3 < 1) FDs do
// not compose under transitivity, so callers must filter to confidence
// 1.0 before Add. Everything here is pure computation over bitsets — no
// locks, no I/O; a Set is safe for concurrent readers once built.
package fdset

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Bits is an attribute-position bitset. The word count is fixed by the
// arity it was created for; all operands of a binary operation must come
// from the same arity.
type Bits []uint64

// NewBits returns an empty bitset able to hold positions [0, arity).
func NewBits(arity int) Bits {
	return make(Bits, (arity+63)/64)
}

// BitsOf builds a bitset holding exactly the given positions.
func BitsOf(arity int, xs []int) Bits {
	b := NewBits(arity)
	for _, x := range xs {
		b.Set(x)
	}
	return b
}

// Set adds position x.
func (b Bits) Set(x int) { b[x/64] |= 1 << (x % 64) }

// Has reports whether position x is present.
func (b Bits) Has(x int) bool { return b[x/64]&(1<<(x%64)) != 0 }

// Clear removes position x.
func (b Bits) Clear(x int) { b[x/64] &^= 1 << (x % 64) }

// Clone returns an independent copy.
func (b Bits) Clone() Bits {
	out := make(Bits, len(b))
	copy(out, b)
	return out
}

// Or folds other into b in place.
func (b Bits) Or(other Bits) {
	for i := range b {
		b[i] |= other[i]
	}
}

// ContainsAll reports whether every position of sub is in b.
func (b Bits) ContainsAll(sub Bits) bool {
	for i := range b {
		if sub[i]&^b[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports position-wise equality.
func (b Bits) Equal(other Bits) bool {
	for i := range b {
		if b[i] != other[i] {
			return false
		}
	}
	return true
}

// Positions lists the set positions in ascending order.
func (b Bits) Positions() []int {
	var out []int
	for i, w := range b {
		for w != 0 {
			out = append(out, i*64+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

// FD is one exact dependency Lhs → Rhs with a single RHS position.
type FD struct {
	Lhs Bits
	Rhs int
}

// String renders the FD over positions, e.g. "{0,2}->3".
func (f FD) String() string {
	ps := f.Lhs.Positions()
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = fmt.Sprint(p)
	}
	return "{" + strings.Join(parts, ",") + "}->" + fmt.Sprint(f.Rhs)
}

// Render names the FD with the given attribute names, e.g. "[CC,AC]->[CT]".
func (f FD) Render(names []string) string {
	ps := f.Lhs.Positions()
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = names[p]
	}
	return "[" + strings.Join(parts, ",") + "]->[" + names[f.Rhs] + "]"
}

// Set is a collection of exact FDs over one relation's positions.
// Construction (Add) is not safe for concurrent use; a built Set is.
type Set struct {
	arity int
	fds   []FD
}

// New returns an empty Set over a relation of the given arity.
func New(arity int) *Set {
	return &Set{arity: arity}
}

// Arity returns the relation arity the Set was built for.
func (s *Set) Arity() int { return s.arity }

// Len returns the number of stored FDs.
func (s *Set) Len() int { return len(s.fds) }

// FDs returns the stored FDs in insertion order. The slice is shared;
// callers must not mutate it.
func (s *Set) FDs() []FD { return s.fds }

// Add records lhs → rhs. Trivial dependencies (rhs ∈ lhs) and exact
// duplicates are dropped; out-of-range positions panic (they indicate a
// schema mismatch, never a data condition).
func (s *Set) Add(lhs []int, rhs int) {
	if rhs < 0 || rhs >= s.arity {
		panic(fmt.Sprintf("fdset: rhs %d out of range [0,%d)", rhs, s.arity))
	}
	b := NewBits(s.arity)
	for _, x := range lhs {
		if x < 0 || x >= s.arity {
			panic(fmt.Sprintf("fdset: lhs %d out of range [0,%d)", x, s.arity))
		}
		b.Set(x)
	}
	if b.Has(rhs) {
		return
	}
	for _, f := range s.fds {
		if f.Rhs == rhs && f.Lhs.Equal(b) {
			return
		}
	}
	s.fds = append(s.fds, FD{Lhs: b, Rhs: rhs})
}

// Closure returns the attribute closure of xs under the Set: the fixpoint
// of firing every FD whose LHS is contained. xs is not modified.
func (s *Set) Closure(xs Bits) Bits {
	out := xs.Clone()
	for changed := true; changed; {
		changed = false
		for _, f := range s.fds {
			if !out.Has(f.Rhs) && out.ContainsAll(f.Lhs) {
				out.Set(f.Rhs)
				changed = true
			}
		}
	}
	return out
}

// ImpliesBits reports whether the Set entails xs → rhs.
func (s *Set) ImpliesBits(xs Bits, rhs int) bool {
	if xs.Has(rhs) {
		return true
	}
	return s.Closure(xs).Has(rhs)
}

// Implies reports whether the Set entails lhs → rhs.
func (s *Set) Implies(lhs []int, rhs int) bool {
	return s.ImpliesBits(BitsOf(s.arity, lhs), rhs)
}

// Equivalent reports whether attribute sets a and b determine each other
// (equal closures), i.e. they are interchangeable as join/grouping keys.
func (s *Set) Equivalent(a, b []int) bool {
	ca := s.Closure(BitsOf(s.arity, a))
	cb := s.Closure(BitsOf(s.arity, b))
	return ca.Equal(cb)
}

// Derivation returns the FDs that witness lhs → rhs, in firing order,
// pruned to the ones actually on the derivation path. ok is false when
// the Set does not entail the dependency. A trivial dependency (rhs ∈
// lhs) yields an empty witness with ok true.
func (s *Set) Derivation(lhs []int, rhs int) (witness []FD, ok bool) {
	have := BitsOf(s.arity, lhs)
	if have.Has(rhs) {
		return nil, true
	}
	var fired []FD
	for changed := true; changed && !have.Has(rhs); {
		changed = false
		for _, f := range s.fds {
			if !have.Has(f.Rhs) && have.ContainsAll(f.Lhs) {
				have.Set(f.Rhs)
				fired = append(fired, f)
				changed = true
				if f.Rhs == rhs {
					break
				}
			}
		}
	}
	if !have.Has(rhs) {
		return nil, false
	}
	// Backward prune: keep only firings whose RHS is needed, seeding from
	// the target and growing needs with each kept FD's LHS.
	needed := NewBits(s.arity)
	needed.Set(rhs)
	base := BitsOf(s.arity, lhs)
	keep := make([]bool, len(fired))
	for i := len(fired) - 1; i >= 0; i-- {
		f := fired[i]
		if needed.Has(f.Rhs) && !base.Has(f.Rhs) {
			keep[i] = true
			needed.Clear(f.Rhs) // earlier firings need not re-derive it
			needed.Or(f.Lhs)
		}
	}
	for i, k := range keep {
		if k {
			witness = append(witness, fired[i])
		}
	}
	return witness, true
}

// String renders the Set sorted by (RHS, LHS positions) for stable
// display in tests and EXPLAIN output.
func (s *Set) String() string {
	strs := make([]string, len(s.fds))
	for i, f := range s.fds {
		strs[i] = f.String()
	}
	sort.Strings(strs)
	return strings.Join(strs, " ")
}
