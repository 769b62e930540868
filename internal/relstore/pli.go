// Position list indexes (PLIs, a.k.a. stripped partitions): the equivalence
// classes a column's Equal-classes induce over a snapshot's rows, in the
// representation the TANE/CTANE family of dependency miners searches over.
// Two rows are in one class iff their values are Equal under the
// types.Value model — exactly the classes detection groups by — so a
// functional dependency X → A holds on the snapshot iff every class of the
// partition π_X is pure in A, and a CFD miner can refine partitions by
// intersection instead of rebuilding string-keyed group maps per attribute
// set.
//
// Like the dictionaries and key tables, single-attribute PLIs and the
// per-row Equal-class probe vectors are built lazily and cached on the
// snapshot's columns: every miner pass over one table version shares one
// build, and the cache dies with the snapshot when the table mutates.
// Partitions on more than one column are not cached on the snapshot. The
// miner's lattice derives its own by Intersect; detection groups by
// EqClasses, which a ClassMemo shares for the length of one run.
package relstore

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"semandaq/internal/types"
)

// Partition is the partition of a snapshot's rows into value-equality
// classes, stored flat: class c spans elems[offsets[c]:offsets[c+1]], each
// class holding ascending row indices. Single-attribute partitions and
// EqClasses keep every class (constant-CFD mining needs low-support and
// singleton covers, detection looks any class up);
// Intersect strips singleton classes from its result, which is lossless for
// dependency checking — a lone row can neither violate an FD nor lower its
// confidence.
//
// A Partition is immutable after construction and safe for concurrent use.
type Partition struct {
	n       int // rows in the underlying snapshot
	elems   []int32
	offsets []int32 // len = NumClasses()+1
}

// NumRows returns the number of rows in the snapshot the partition covers.
func (p *Partition) NumRows() int { return p.n }

// NumClasses returns the number of equivalence classes stored.
func (p *Partition) NumClasses() int { return len(p.offsets) - 1 }

// Size returns the number of rows held in stored classes (for stripped
// partitions this is less than NumRows).
func (p *Partition) Size() int { return len(p.elems) }

// Class returns class c's ascending row indices. The slice is backing
// storage: callers must not mutate it.
func (p *Partition) Class(c int) []int32 {
	return p.elems[p.offsets[c]:p.offsets[c+1]]
}

// Refines reports whether every stored class is pure under probe: all rows
// of a class share one probe code. This is the partition form of the FD
// check — with probe = EqProbe(a), Refines is exactly "X → a holds",
// because rows outside stored classes are alone in their X-class and
// cannot disagree with anyone. every reports how often to poll stop; a
// true stop() aborts the scan and returns false, true.
func (p *Partition) Refines(probe []uint32, every int, stop func() bool) (pure, aborted bool) {
	seen := 0
	for c := 0; c < p.NumClasses(); c++ {
		cls := p.Class(c)
		if len(cls) < 2 {
			continue
		}
		want := probe[cls[0]]
		for _, r := range cls[1:] {
			if probe[r] != want {
				return false, false
			}
		}
		if seen += len(cls); seen >= every {
			seen = 0
			if stop != nil && stop() {
				return false, true
			}
		}
	}
	return true, false
}

// Keep returns how many of the snapshot's rows survive if, within every
// class, only the plurality probe-code group is kept — the g3 measure of
// an approximate FD: confidence(X → a) = Keep(EqProbe(a)) / NumRows.
// Stripped rows are trivially kept; every and stop poll as in Refines.
func (p *Partition) Keep(probe []uint32, every int, stop func() bool) (kept int, aborted bool) {
	kept = p.n - len(p.elems) // rows in stripped-away singleton classes
	counts := make(map[uint32]int32, 16)
	seen := 0
	for c := 0; c < p.NumClasses(); c++ {
		cls := p.Class(c)
		if len(cls) == 1 {
			kept++
			continue
		}
		clear(counts)
		best := int32(0)
		for _, r := range cls {
			v := counts[probe[r]] + 1
			counts[probe[r]] = v
			if v > best {
				best = v
			}
		}
		kept += int(best)
		if seen += len(cls); seen >= every {
			seen = 0
			if stop != nil && stop() {
				return 0, true
			}
		}
	}
	return kept, false
}

// Intersect refines the partition by a probe vector: rows of one class that
// disagree on their probe code land in separate classes of the result.
// Singleton result classes are stripped. With probe = EqProbe(b) the result
// is the stripped partition π_{X ∪ {b}} given p = π_X — the refinement
// step a level-wise lattice search descends by.
//
// It is TANE's stripped-partition product over one slot table indexed by
// probe code: per class, the slots count rows per code, each code's first
// row claims a run that long in the output (its slot then holds the run's
// write cursor, complemented), and the touched slots are reset. The
// allocations do not grow with the number of classes.
func (p *Partition) Intersect(probe []uint32) *Partition {
	buildOps.intersects.Add(1)
	out := &Partition{
		n:       p.n,
		elems:   make([]int32, 0, len(p.elems)),
		offsets: make([]int32, 1, p.NumClasses()+1),
	}
	var space uint32
	for _, r := range p.elems {
		space = max(space, probe[r]+1)
	}
	slot := make([]int32, space)
	for c := 0; c < p.NumClasses(); c++ {
		cls := p.Class(c)
		if len(cls) < 2 {
			continue
		}
		for _, r := range cls {
			slot[probe[r]]++
		}
		for _, r := range cls {
			s := &slot[probe[r]]
			if *s == 1 {
				continue // a singleton sub-class: stripped
			}
			if *s > 1 { // the sub-class's first row claims its run
				end := len(out.elems) + int(*s)
				*s = ^int32(len(out.elems))
				out.elems = out.elems[:end]
				out.offsets = append(out.offsets, int32(end))
			}
			out.elems[^*s] = r
			*s--
		}
		for _, r := range cls {
			slot[probe[r]] = 0
		}
	}
	return out
}

// PLI returns the column's position list index over the snapshot: one class
// per Equal-class that occurs, in order of the classes' first rows,
// singletons included. Built on first use and cached for the snapshot's
// lifetime.
func (c *Column) PLI() *Partition {
	c.pliOnce.Do(func() {
		probe := c.EqProbe()
		// Class slots in first-occurrence order of the Equal-class code.
		classOf := make([]int32, len(c.dict))
		for i := range classOf {
			classOf[i] = -1
		}
		p := &Partition{n: len(probe)}
		var nc int32
		starts := make([]int32, 0, len(c.dict))
		for _, pv := range probe {
			if classOf[pv] < 0 {
				classOf[pv] = nc
				nc++
				starts = append(starts, c.clsCounts[pv])
			}
		}
		p.offsets = make([]int32, nc+1)
		for i, sz := range starts {
			p.offsets[i+1] = p.offsets[i] + sz
		}
		fill := append([]int32(nil), p.offsets[:nc]...)
		p.elems = make([]int32, len(probe))
		for r, pv := range probe {
			cl := classOf[pv]
			p.elems[fill[cl]] = int32(r)
			fill[cl]++
		}
		c.pli = p
		c.pliClassOf = classOf
		c.pliReady.Store(true)
		buildOps.pliBuilds.Add(1)
	})
	return c.pli
}

// PLIClassValue returns the representative value of PLI class cl: the
// stored value of the class's first row, which is what a row scan meeting
// the class would see first — a function of the rows alone, whatever order
// the lineage interned the class's members in.
func (c *Column) PLIClassValue(cl int) types.Value {
	return c.dict[c.codes[c.pli.Class(cl)[0]]]
}

// ClassRows returns the ascending row indices of the PLI class holding the
// Equal-class code eq, nil when no stored row belongs to that class. This
// is the lookup side of a PLI-class join: EqCodeOf resolves a probe value
// to its Equal-class code and ClassRows returns the matching rows straight
// from the cached partition — no per-row hashing, no materialization. The
// slice is backing storage: callers must not mutate it.
func (c *Column) ClassRows(eq uint32) []int32 {
	c.PLI()
	if int(eq) >= len(c.pliClassOf) {
		return nil
	}
	cl := c.pliClassOf[eq]
	if cl < 0 {
		return nil
	}
	return c.pli.Class(int(cl))
}

// EqProbe returns the per-row Equal-class code vector (probe[i] =
// EqCode(i), materialized): the lookup side of partition intersection and
// purity checks. Built on first use and cached for the snapshot's lifetime.
// When every dictionary entry is its own Equal-class (any column without
// an INT/FLOAT or NaN collision — every all-string column) the exact codes
// already are the probe, and the vector aliases the code vector instead of
// copying 4 B/row. The slice is backing storage: callers must not mutate it.
func (c *Column) EqProbe() []uint32 {
	c.probeOnce.Do(func() {
		c.probe = c.codes
		for code, canon := range c.eq {
			if canon != uint32(code) {
				c.probe = make([]uint32, len(c.codes))
				for i, code := range c.codes {
					c.probe[i] = c.eq[code]
				}
				break
			}
		}
		c.probeReady.Store(true)
	})
	return c.probe
}

// EqClasses is the partition of a snapshot's rows by their Equal-class
// codes on a column set: every class kept, singletons included, classes in
// order of their first rows and each class's rows ascending, plus the
// lookups from a row and from a code tuple to its class. Detection groups
// by it: two rows share a class iff they agree, value for value, under
// Equal on every column of the set. It is immutable once built and safe
// for concurrent use.
type EqClasses struct {
	*Partition
	cols []eqCol // the set, in ascending position
	// slots files each class under its code tuple, -1 marking a free slot.
	// A tuple has the one slot Σ code_k·radix_k (a one-column set's slots
	// are its PLI's class table), unless hashed: then slots is a hash table
	// probed linearly from the tuple's hash.
	slots  []int32
	hashed bool
}

// eqCol is one column of an EqClasses set.
type eqCol struct {
	*Column
	probe []uint32 // its EqProbe vector
	radix int      // its code's weight in a tuple's slot
}

// EqClasses builds the Equal-class partition of the snapshot's rows on the
// columns at positions pos, given in ascending order, straight from their
// probe vectors: a column's classes are its cached PLI; a set's rows are
// filed under their code tuples, the classes numbered as they are met. The
// tuples index a table directly when it needs no more slots than there
// are rows, and go through a hash table otherwise.
func (c *Columnar) EqClasses(pos []int) *EqClasses {
	n := c.Len()
	e, space := &EqClasses{cols: make([]eqCol, len(pos))}, 1
	for k, p := range pos {
		e.cols[k] = eqCol{c.Col(p), c.Col(p).EqProbe(), space}
		if space <= n {
			space *= e.cols[k].CodeSpace()
		}
	}
	if len(pos) == 1 {
		e.Partition, e.slots = e.cols[0].PLI(), e.cols[0].pliClassOf
		return e
	}
	buildOps.classBuilds.Add(1)
	most := min(space, n) // classes there can be
	if space > max(n, 1) {
		e.hashed, space, most = true, 2<<bits.Len(uint(n)), 64
	}
	slots, hashed := make([]int32, space), e.hashed
	for i := range slots {
		slots[i] = -1
	}
	// Class c's row count goes to offsets[c+2], so that after the sums
	// offsets[c+1] is where its rows start, their fill cursor, which ends
	// where they stop.
	offsets, elems := make([]int32, 2, most+2), make([]int32, n)
	var first []int32 // per class its first row, which a hash table compares with
	var buf [256]uint32
	for lo := 0; lo < n; lo += len(buf) {
		keys := buf[:min(len(buf), n-lo)]
		e.keys(lo, keys)
		for i, k := range keys {
			at := int(k)
			if hashed {
				at = e.probe(slots, at, lo+i, first)
			}
			cl := slots[at]
			if cl < 0 {
				cl = int32(len(offsets) - 2)
				slots[at], offsets = cl, append(offsets, 0)
				if hashed {
					first = append(first, int32(lo+i))
				}
			}
			offsets[cl+2]++
		}
	}
	for i := 2; i < len(offsets); i++ {
		offsets[i] += offsets[i-1]
	}
	for lo := 0; lo < n; lo += len(buf) {
		keys := buf[:min(len(buf), n-lo)]
		e.keys(lo, keys)
		for i, k := range keys {
			at := int(k)
			if hashed {
				at = e.probe(slots, at, lo+i, first)
			}
			cur := &offsets[slots[at]+1]
			elems[*cur] = int32(lo + i)
			*cur++
		}
	}
	e.slots = slots
	e.Partition = &Partition{n: n, elems: elems, offsets: offsets[:len(offsets)-1]}
	return e
}

// keys sets keys[i] to the slot row lo+i's code tuple indexes, or, hashed,
// to the tuple's hash, a column at a time.
func (e *EqClasses) keys(lo int, keys []uint32) {
	clear(keys)
	for _, col := range e.cols {
		codes := col.probe[lo : lo+len(keys)]
		keys := keys[:len(codes)]
		if e.hashed {
			for j, code := range codes {
				keys[j] = mix(keys[j], code)
			}
			continue
		}
		radix := uint32(col.radix)
		for j, code := range codes {
			keys[j] += code * radix
		}
	}
}

// mix folds one more code into a tuple's hash.
func mix(h, code uint32) uint32 {
	h = (h ^ code) * 0x9e3779b1
	return h ^ h>>15
}

// probe returns the slot of row r's tuple in the hash table slots from its
// hash h on: the first that is free or holds a class whose first row
// carries the tuple.
func (e *EqClasses) probe(slots []int32, h, r int, first []int32) int {
	for at := h; ; at++ {
		at &= len(slots) - 1
		if cl := slots[at]; cl < 0 || !slices.ContainsFunc(e.cols, func(c eqCol) bool { return c.probe[r] != c.probe[first[cl]] }) {
			return at
		}
	}
}

// ClassOf returns the class of row r.
func (e *EqClasses) ClassOf(r int) int {
	var buf [8]uint32
	codes := buf[:0]
	for _, col := range e.cols {
		codes = append(codes, col.probe[r])
	}
	cl, _ := e.Lookup(codes)
	return cl
}

// Lookup returns the class whose rows carry the Equal-class codes codes,
// one per column of the set in ascending position, and false when no row
// does.
func (e *EqClasses) Lookup(codes []uint32) (int, bool) {
	at, h := 0, uint32(0)
	for i, code := range codes {
		if int(code) >= e.cols[i].CodeSpace() {
			return 0, false
		}
		at, h = at+int(code)*e.cols[i].radix, mix(h, code)
	}
	if !e.hashed {
		if at >= len(e.slots) || e.slots[at] < 0 {
			return 0, false
		}
		return int(e.slots[at]), true
	}
	for at, mask := int(h), len(e.slots)-1; ; at++ {
		cl := e.slots[at&mask]
		if cl < 0 {
			return 0, false
		}
		if r := e.Class(int(cl))[0]; slices.EqualFunc(e.cols, codes, func(c eqCol, code uint32) bool { return c.probe[r] == code }) {
			return int(cl), true
		}
	}
}

// ClassMemo builds each column set's EqClasses once for one run over one
// snapshot — a detection's grouping passes, its SQL statements' class walks
// and its Qv key resolution — and is dropped with the run: it is never
// kept on the snapshot. It is safe for concurrent use.
type ClassMemo struct {
	cnr  *Columnar
	sets atomic.Pointer[memoSet] // a list, the newest set first
}

// memoSet is one column set's entry, built on its first Get.
type memoSet struct {
	pos  []int
	next *memoSet
	once sync.Once
	cls  *EqClasses
}

// NewClassMemo returns an empty memo over the snapshot's columns.
func NewClassMemo(c *Columnar) *ClassMemo { return &ClassMemo{cnr: c} }

// Get returns the EqClasses of the columns at positions pos (ascending),
// building them on the memo's first request for that set.
func (m *ClassMemo) Get(pos []int) *EqClasses {
	for {
		head := m.sets.Load()
		for s := head; s != nil; s = s.next {
			if slices.Equal(s.pos, pos) {
				s.once.Do(func() { s.cls = m.cnr.EqClasses(s.pos) })
				return s.cls
			}
		}
		m.sets.CompareAndSwap(head, &memoSet{pos: slices.Clone(pos), next: head}) // won or lost, the next pass finds the set
	}
}
