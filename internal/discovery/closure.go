package discovery

import "slices"

// The lattice's FD closure: the exact (confidence 1.0) global FDs mined by
// completed levels, as facts about attribute positions. generateVNodes
// collapses a node whose added attribute the parent set's closure holds,
// and checkCandidate derives the verdict of an implied candidate. Only
// exact FDs belong in an fdSet: approximate (g3 < 1) FDs do not compose
// under transitivity.

// bitset is a set of attribute positions, sized for one relation's arity.
type bitset []uint64

// bitsOf returns the bitset of arity positions holding exactly xs.
func bitsOf(arity int, xs []int) bitset {
	b := make(bitset, (arity+63)/64)
	for _, x := range xs {
		b.set(x)
	}
	return b
}

func (b bitset) set(x int)      { b[x/64] |= 1 << (x % 64) }
func (b bitset) has(x int) bool { return b[x/64]&(1<<(x%64)) != 0 }

// containsAll reports whether every position of sub is in b.
func (b bitset) containsAll(sub bitset) bool {
	for i := range b {
		if sub[i]&^b[i] != 0 {
			return false
		}
	}
	return true
}

// fd is one exact dependency lhs → rhs.
type fd struct {
	lhs bitset
	rhs int
}

// fdSet is a collection of exact FDs over one relation's positions. add is
// not safe for concurrent use; a built set is.
type fdSet struct {
	arity int
	fds   []fd
}

func newFDSet(arity int) *fdSet { return &fdSet{arity: arity} }

// add records lhs → rhs, dropping it when trivial (rhs ∈ lhs) or already
// recorded.
func (s *fdSet) add(lhs []int, rhs int) {
	b := bitsOf(s.arity, lhs)
	if b.has(rhs) || slices.ContainsFunc(s.fds, func(f fd) bool { return f.rhs == rhs && slices.Equal(f.lhs, b) }) {
		return
	}
	s.fds = append(s.fds, fd{lhs: b, rhs: rhs})
}

// closure returns the attribute closure of xs: the fixpoint of firing every
// FD whose LHS it contains. xs is not modified.
func (s *fdSet) closure(xs bitset) bitset {
	out := slices.Clone(xs)
	for changed := true; changed; {
		changed = false
		for _, f := range s.fds {
			if !out.has(f.rhs) && out.containsAll(f.lhs) {
				out.set(f.rhs)
				changed = true
			}
		}
	}
	return out
}

// implies reports whether the set entails lhs → rhs.
func (s *fdSet) implies(lhs []int, rhs int) bool {
	return s.closure(bitsOf(s.arity, lhs)).has(rhs)
}
