// The PLI lattice miner: a level-wise search over the snapshot's stripped
// partitions (relstore.Partition), in the CTANE/CFDMiner style.
//
// Variable CFDs: the attribute lattice is walked level by level. A node is
// an attribute set X carrying its partition π_X and its candidate RHS set —
// the attributes not already determined by any proper subset of X
// (free-set/minimality pruning: candidates propagate down by intersection,
// so a non-minimal dependency is pruned before it is ever checked, at any
// depth). X → a holds iff every class of π_X is pure in a's Equal-class
// probe — an integer purity test; below MinConfidence 1.0 the g3 kept
// fraction decides. Dependencies that fail globally are retried under
// single-attribute conditions B=b over the frequent classes of π_B.
// Level ℓ+1 nodes are generated by prefix join from level ℓ (all ℓ-subsets
// must survive) and each new partition is one Intersect of its parent's.
//
// Constant CFDs: an itemset lattice over the one-column classes — a
// frequent item is a (attribute, Equal-class) pair whose class covers >=
// MinSupport rows; a node's cover refines into its children's by counting
// its rows per later item on Equal-class codes (growCNode), and an itemset
// emits [items] -> [p=v] when column p is constant over its cover and no
// proper sub-itemset already implies p.
//
// Both lattices expand each level across Workers goroutines; results merge
// in deterministic node order, so the output is independent of the worker
// count. Workers poll the context every cancelStride rows and the whole
// search aborts with ctx.Err() when it is cancelled.
package discovery

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"

	"semandaq/internal/cfd"
	"semandaq/internal/par"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// cancelStride is how many rows a worker scans between context polls,
// matching the detect engines' stride.
const cancelStride = 4096

// miner holds the per-run state of one lattice search: the pinned
// snapshot's columnar view, the per-attribute probe vectors, partitions and
// class orders (shared, immutable during the run), and the resolved options.
type miner struct {
	snap    *relstore.Snapshot
	col     *relstore.Columnar
	sc      *schema.Relation
	opts    Options
	n       int
	arity   int
	workers int
	// probes[p][i] is row i's Equal-class code in column p.
	probes [][]uint32
	// parts[p] is π_p, column p's one-column partition, built for this run:
	// every class kept, in first-row order.
	parts []*relstore.Partition
	// frequent[p] lists the non-null classes of parts[p] covering at least
	// MinSupport rows, by representative Key: the deterministic enumeration
	// order for condition values and items.
	frequent [][]int
	// stats counts the run's lattice work (always non-nil).
	stats *mineStats
	// exact accumulates the exact (confidence 1.0) global FDs emitted by
	// completed levels; nil under the disableClosure test hook. The lattice
	// consults it for closure pruning: a node whose added attribute is in
	// the closure of its parent's set shares the parent's partition instead
	// of paying an O(n) Intersect, and a candidate already implied holds
	// without a purity scan. Writes happen only in the sequential per-level
	// merge; the parallel check phase only reads.
	exact *fdSet
}

func newMiner(ctx context.Context, snap *relstore.Snapshot, opts Options) *miner {
	col := snap.Columnar()
	m := &miner{
		snap:     snap,
		col:      col,
		sc:       snap.Schema(),
		opts:     opts,
		n:        snap.Len(),
		arity:    snap.Schema().Arity(),
		workers:  opts.Workers, // already resolved by withDefaults
		probes:   make([][]uint32, snap.Schema().Arity()),
		parts:    make([]*relstore.Partition, snap.Schema().Arity()),
		frequent: make([][]int, snap.Schema().Arity()),
	}
	if !opts.disableClosure {
		m.exact = newFDSet(m.arity)
	}
	// Materialize every column's probe vector, partition and frequent
	// classes up front, one goroutine per column: all of them are needed by
	// both lattices. The probe vectors are cached on the snapshot; the
	// partitions are this run's, built once here and dropped with the
	// miner. Cancellation is polled between the probe and the partition
	// stages — a dead request stops paying within one column-stage.
	// Callers must check ctx after newMiner returns.
	var wg sync.WaitGroup
	for p := 0; p < m.arity; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c := col.Col(p)
			if ctx.Err() != nil {
				return
			}
			m.probes[p] = c.EqProbe()
			if ctx.Err() != nil {
				return
			}
			m.parts[p] = col.EqClasses([]int{p}).Partition
			m.frequent[p] = frequentClasses(c, m.parts[p], opts.MinSupport)
		}(p)
	}
	wg.Wait()
	return m
}

// frequentClasses lists the non-null classes of col's partition part
// covering at least minSupport rows, ordered by their representative's
// Key(). Class-mates share their Key(), so any member's stands for the
// class, and distinct classes have distinct keys, so the order is total.
func frequentClasses(col *relstore.Column, part *relstore.Partition, minSupport int) []int {
	// Built even when no class is frequent, so the patcher carries the key
	// table to the next version instead of a later reader rebuilding it.
	col.EnsureKeys()
	var out []int
	for cl := 0; cl < part.NumClasses(); cl++ {
		if len(part.Class(cl)) >= minSupport && !classValue(col, part.Class(cl)).IsNull() {
			out = append(out, cl)
		}
	}
	key := func(cl int) string { return col.KeyOf(col.Code(int(part.Class(cl)[0]))) }
	slices.SortFunc(out, func(a, b int) int { return strings.Compare(key(a), key(b)) })
	return out
}

// classValue returns the representative value of a class of col's rows:
// the stored value of its first row, which is what a row scan meeting the
// class would see first — a function of the rows alone, whatever order the
// lineage interned the class's members in.
func classValue(col *relstore.Column, rows []int32) types.Value {
	return col.Value(col.Code(int(rows[0])))
}

// ---------------------------------------------------------------------------
// Variable CFDs: the attribute lattice.

// vnode is one attribute-set node of the lattice.
type vnode struct {
	xs   []int // ascending attribute positions
	part *relstore.Partition
	cand []int // RHS candidates: not implied by any proper subset
	// parent/added derive part by one intersection (depth > 1 only). The
	// partition is materialized lazily through partition(): a node whose
	// every candidate verdict the exact-FD cover derives never pays the
	// intersection — nor do its ancestors.
	parent *vnode
	added  int
	// collapse marks that the emitted exact-FD cover proves parent.xs →
	// added, so π_X equals the parent's partition (every parent class is
	// already pure in added's probe — intersecting cannot split it) and
	// partition() shares the pointer instead of intersecting.
	collapse bool
	partOnce sync.Once
	// res[i] is the outcome for cand[i]; holds collects the candidates
	// that held globally, for the next level's pruning.
	res   []vaResult
	holds []int
}

// partition materializes the node's partition on first use, deriving it
// from the parent chain (depth-1 nodes carry their column's partition).
// Safe for concurrent callers: each node's intersection runs once, and the
// recursion only walks toward depth 1, so the Onces cannot deadlock.
func (nd *vnode) partition(m *miner) *relstore.Partition {
	nd.partOnce.Do(func() {
		if nd.part == nil {
			parent := nd.parent.partition(m)
			if nd.collapse {
				nd.part = parent
				m.stats.partsCollapsed.Add(1)
			} else {
				nd.part = parent.Intersect(m.probes[nd.added])
				m.stats.partsIntersected.Add(1)
			}
		}
	})
	return nd.part
}

// vaResult is the outcome of one (node, RHS candidate) check — the unit of
// parallel work, so one expensive dependency check cannot serialize a
// whole level.
type vaResult struct {
	holds bool
	emits []Candidate
}

func (m *miner) mineVariable(ctx context.Context) ([]Candidate, error) {
	if m.arity < 2 || m.n == 0 {
		return nil, ctx.Err()
	}
	level := make([]*vnode, 0, m.arity)
	for p := 0; p < m.arity; p++ {
		cand := make([]int, 0, m.arity-1)
		for a := 0; a < m.arity; a++ {
			if a != p {
				cand = append(cand, a)
			}
		}
		level = append(level, &vnode{xs: []int{p}, part: m.parts[p], cand: cand})
	}
	var out []Candidate
	for depth := 1; len(level) > 0; depth++ {
		// Partitions are NOT derived here: checkCandidate materializes them
		// lazily via nd.partition, so nodes whose verdicts the closure
		// derives skip the intersection entirely.
		// Check every (node, candidate) pair in parallel; results land in
		// the pair's own slot so the merge below is order-deterministic.
		type pair struct {
			nd *vnode
			ai int
		}
		var pairs []pair
		for _, nd := range level {
			nd.res = make([]vaResult, len(nd.cand))
			for ai := range nd.cand {
				pairs = append(pairs, pair{nd, ai})
			}
		}
		if err := par.Each(ctx, m.workers, len(pairs), func(i int) error {
			return m.checkCandidate(ctx, pairs[i].nd, pairs[i].ai)
		}); err != nil {
			return nil, err
		}
		for _, nd := range level {
			for ai, a := range nd.cand {
				r := nd.res[ai]
				if r.holds {
					nd.holds = append(nd.holds, a)
					// Exact global FDs join the closure cover the next
					// levels prune with; approximate holds (g3 < 1) do not
					// compose under Armstrong's axioms and stay out.
					if m.exact != nil && len(r.emits) == 1 && r.emits[0].Confidence >= 1 {
						m.exact.add(nd.xs, a)
					}
				}
				out = append(out, r.emits...)
			}
			nd.res = nil
			if nd.part != nil {
				// The partition exists, so children never need the parent
				// chain; release it for the collector.
				nd.parent = nil
			}
		}
		if depth == m.opts.MaxLHS {
			break
		}
		level = m.generateVNodes(level)
	}
	return out, nil
}

// checkCandidate decides X → a for one (node, candidate) pair: the global
// partition purity test first, conditional mining when it fails.
func (m *miner) checkCandidate(ctx context.Context, nd *vnode, ai int) error {
	a := nd.cand[ai]
	m.stats.vaComputed.Add(1)
	// Closure short-circuit: when the exact cover from completed levels
	// already entails X → a, the dependency provably holds on the data
	// (Armstrong soundness over FDs that each held exactly), so the
	// verdict — and the emitted candidate — is exactly what the purity
	// scan would produce, without materializing or scanning the partition.
	if m.exact != nil && m.exact.implies(nd.xs, a) {
		m.stats.verdictsDerived.Add(1)
		nd.res[ai] = vaResult{
			holds: true,
			emits: []Candidate{{
				CFD:        wildcardCFD(m.sc, nd.xs, a, -1, types.Null),
				Kind:       "global-fd",
				Support:    m.n,
				Confidence: 1.0,
			}},
		}
		return nil
	}
	probe := m.probes[a]
	stop := func() bool { return ctx.Err() != nil }
	part := nd.partition(m)
	pure, aborted := part.Refines(probe, cancelStride, stop)
	conf, holds := 1.0, pure
	if !pure && !aborted && m.opts.MinConfidence < 1 {
		var kept int
		kept, aborted = part.Keep(probe, cancelStride, stop)
		conf = float64(kept) / float64(m.n)
		holds = conf >= m.opts.MinConfidence
	}
	if aborted {
		return ctx.Err()
	}
	if holds {
		nd.res[ai] = vaResult{
			holds: true,
			emits: []Candidate{{
				CFD:        wildcardCFD(m.sc, nd.xs, a, -1, types.Null),
				Kind:       "global-fd",
				Support:    m.n,
				Confidence: conf,
			}},
		}
		return nil
	}
	emits, err := m.mineConditional(ctx, nd, a)
	if err != nil {
		return err
	}
	nd.res[ai] = vaResult{emits: emits}
	return nil
}

// mineConditional retries a failed X → a under single-attribute conditions
// B=b, B ∈ X: for each frequent non-null class of π_B (by Key order)
// it checks the dependency on the class's rows, emitting
// [B=b, rest=_] -> [a=_] up to MaxPatternsPerFD patterns per (X, a).
func (m *miner) mineConditional(ctx context.Context, nd *vnode, a int) ([]Candidate, error) {
	var emits []Candidate
	sc := condScratch{rest: make([]int, 0, len(nd.xs)-1)}
	for _, b := range nd.xs {
		if len(emits) >= m.opts.MaxPatternsPerFD {
			break
		}
		for _, cl := range m.frequent[b] {
			if len(emits) >= m.opts.MaxPatternsPerFD {
				break
			}
			rows := m.parts[b].Class(cl)
			rep := classValue(m.col.Col(b), rows)
			conf, ok, err := m.condCheck(ctx, &sc, nd.xs, b, a, rows)
			if err != nil {
				return nil, err
			}
			if ok {
				emits = append(emits, Candidate{
					CFD:        wildcardCFD(m.sc, nd.xs, a, b, rep),
					Kind:       "conditional-fd",
					Support:    len(rows),
					Confidence: conf,
				})
			}
		}
	}
	return emits, nil
}

// condScratch is one conditional (X, a) check's scratch, reused across the
// condition classes it tries: the grouping attributes, the key buffer and
// the group maps are emptied per class, not allocated per class.
type condScratch struct {
	rest  []int
	buf   []byte
	seen1 map[uint32]uint32 // exact, one rest attribute: its code → a's code
	seen  map[string]uint32 // exact, more: packed rest codes → a's code
	pairs map[string]int32  // approximate: packed rest and a codes → rows
	best  map[string]int32  // approximate: packed rest codes → plurality rows
}

// key packs row r's rest-attribute codes into the scratch buffer.
func (sc *condScratch) key(probes [][]uint32, r int32) []byte {
	sc.buf = sc.buf[:0]
	for _, x := range sc.rest {
		sc.buf = binary.LittleEndian.AppendUint32(sc.buf, probes[x][r])
	}
	return sc.buf
}

// emptied returns m ready for the next class, or nil for the caller to
// make afresh: clearing costs a map's capacity, not its length, so a map
// one large class grew is dropped rather than cleared for every small
// class after it.
func emptied[K comparable, V any](m map[K]V) map[K]V {
	if len(m) > 256 {
		return nil
	}
	clear(m)
	return m
}

// condCheck decides X → a on the given row subset (a B=b condition class;
// B is constant there, so grouping uses X \ {B}). It returns the g3
// confidence over the subset and whether it clears MinConfidence.
func (m *miner) condCheck(ctx context.Context, sc *condScratch, xs []int, b, a int, rows []int32) (float64, bool, error) {
	sc.rest = sc.rest[:0]
	for _, x := range xs {
		if x != b {
			sc.rest = append(sc.rest, x)
		}
	}
	probeA := m.probes[a]

	if m.opts.MinConfidence >= 1 {
		// Purity per group; first conflict fails.
		switch len(sc.rest) {
		case 0:
			want := probeA[rows[0]]
			for i, r := range rows {
				if i%cancelStride == 0 && ctx.Err() != nil {
					return 0, false, ctx.Err()
				}
				if probeA[r] != want {
					return 0, false, nil
				}
			}
		case 1:
			probeX := m.probes[sc.rest[0]]
			if sc.seen1 = emptied(sc.seen1); sc.seen1 == nil {
				sc.seen1 = make(map[uint32]uint32, 16)
			}
			for i, r := range rows {
				if i%cancelStride == 0 && ctx.Err() != nil {
					return 0, false, ctx.Err()
				}
				if av, ok := sc.seen1[probeX[r]]; ok {
					if av != probeA[r] {
						return 0, false, nil
					}
				} else {
					sc.seen1[probeX[r]] = probeA[r]
				}
			}
		default:
			if sc.seen = emptied(sc.seen); sc.seen == nil {
				sc.seen = make(map[string]uint32, 16)
			}
			for i, r := range rows {
				if i%cancelStride == 0 && ctx.Err() != nil {
					return 0, false, ctx.Err()
				}
				k := sc.key(m.probes, r)
				if av, ok := sc.seen[string(k)]; ok {
					if av != probeA[r] {
						return 0, false, nil
					}
				} else {
					sc.seen[string(k)] = probeA[r]
				}
			}
		}
		return 1.0, true, nil
	}

	// Approximate path: count rows per (group, a-class) and keep each
	// group's plurality. Counts grow by one, so a group's plurality grows
	// exactly when a pair count passes it: kept sums the pluralities as
	// the rows go by.
	if sc.pairs = emptied(sc.pairs); sc.pairs == nil {
		sc.pairs = map[string]int32{}
	}
	if sc.best = emptied(sc.best); sc.best == nil {
		sc.best = map[string]int32{}
	}
	kept := 0
	for i, r := range rows {
		if i%cancelStride == 0 && ctx.Err() != nil {
			return 0, false, ctx.Err()
		}
		g := sc.key(m.probes, r)
		pair := binary.LittleEndian.AppendUint32(g, probeA[r])
		sc.buf = pair
		c := sc.pairs[string(pair)] + 1
		sc.pairs[string(pair)] = c
		if c > sc.best[string(pair[:len(g)])] {
			sc.best[string(pair[:len(g)])] = c
			kept++
		}
	}
	conf := float64(kept) / float64(len(rows))
	return conf, conf >= m.opts.MinConfidence, nil
}

// generateVNodes builds level ℓ+1 by prefix join: two level-ℓ nodes
// sharing their first ℓ-1 attributes combine, every ℓ-subset of the result
// must itself be a live node (a missing subset means everything it could
// contribute is already implied), and the candidate set is the
// intersection of the subsets' candidates minus what any subset already
// determines. Nodes with no candidates left are dropped — their whole
// up-set is non-minimal. New nodes whose added attribute the exact-FD
// closure of the parent set already determines are marked to collapse:
// their partition is the parent's, pointer-shared (see vnode.collapse).
func (m *miner) generateVNodes(level []*vnode) []*vnode {
	byKey := make(map[string]*vnode, len(level))
	for _, nd := range level {
		byKey[xsKeyOfInts(nd.xs)] = nd
	}
	var next []*vnode
	for i, ndA := range level {
		var parentClo bitset // closure(ndA.xs), computed on first use
		for _, ndB := range level[i+1:] {
			if ell := len(ndA.xs) - 1; !slices.Equal(ndA.xs[:ell], ndB.xs[:ell]) {
				break // level is sorted; prefix group is contiguous
			}
			xs := make([]int, len(ndA.xs)+1)
			copy(xs, ndA.xs)
			xs[len(xs)-1] = ndB.xs[len(ndB.xs)-1]
			cand := candidateRHS(xs, byKey)
			if len(cand) == 0 {
				continue
			}
			nd := &vnode{
				xs:     xs,
				cand:   cand,
				parent: ndA,
				added:  xs[len(xs)-1],
			}
			if m.exact != nil {
				if parentClo == nil {
					parentClo = m.exact.closure(bitsOf(m.arity, ndA.xs))
				}
				nd.collapse = parentClo.has(nd.added)
			}
			next = append(next, nd)
		}
	}
	return next
}

// candidateRHS intersects the subsets' candidate sets for xs. It returns
// nil when any ℓ-subset is missing from the level (its contributions are
// implied) or no candidate survives.
func candidateRHS(xs []int, byKey map[string]*vnode) []int {
	subs := make([]*vnode, len(xs))
	sub := make([]int, len(xs)-1)
	for skip := range xs {
		k := 0
		for i, x := range xs {
			if i != skip {
				sub[k] = x
				k++
			}
		}
		nd := byKey[xsKeyOfInts(sub)]
		if nd == nil {
			return nil
		}
		subs[skip] = nd
	}
	// Arity is small: linear membership tests beat building sets.
	var cand []int
	for _, a := range subs[0].cand {
		if slices.Contains(xs, a) {
			continue
		}
		ok := true
		for _, nd := range subs {
			if !slices.Contains(nd.cand, a) || slices.Contains(nd.holds, a) {
				ok = false
				break
			}
		}
		if ok {
			cand = append(cand, a)
		}
	}
	return cand
}

func xsKeyOfInts(xs []int) string {
	buf := make([]byte, 0, 4*len(xs))
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
	}
	return string(buf)
}

// ---------------------------------------------------------------------------
// Constant CFDs: the itemset lattice.

// citem is one frequent item: an (attribute, Equal-class) pair whose class
// covers at least MinSupport rows.
type citem struct {
	pos  int
	val  types.Value
	rows []int32
}

// clattice is the constant lattice's read-only index for one mine: the
// frequent items, where each position's run of them starts, and which
// item an Equal-class code names. Its workers share it without locking.
type clattice struct {
	// items lists the frequent items in (position, Key) order.
	items []citem
	// first[p] is the index of position p's first item; position p's items
	// are items[first[p]:first[p+1]] (first has arity+1 entries).
	first []int
	// itemOf[p][eq] is the index of the item whose class is Equal-class
	// code eq of column p, or -1; codes past its end name no item. An
	// item's rows are exactly its code's class of π_p, so counting a cover's
	// rows by itemOf is intersecting the cover with every item of p.
	itemOf [][]int32
}

// cnode is one itemset node: item indices (ascending by the items slice's
// (pos, Key) order, hence ascending attribute positions) and the cover.
type cnode struct {
	items []int
	rows  []int32
	// Outputs of the parallel phase, merged in node order.
	consts   []constHit
	children []cnode
}

// constHit records a column found constant over a node's cover.
type constHit struct {
	pos int
	val types.Value
}

func (m *miner) mineConstant(ctx context.Context) ([]Candidate, error) {
	lat := m.constLattice()
	level := make([]cnode, len(lat.items))
	singles := make([]int, len(lat.items))
	for i, it := range lat.items {
		singles[i] = i
		level[i] = cnode{items: singles[i : i+1 : i+1], rows: it.rows}
	}
	var out []Candidate
	implied := map[string]bool{}
	for depth := 1; depth <= m.opts.MaxLHS && len(level) > 0; depth++ {
		grow := depth < m.opts.MaxLHS
		if err := par.Each(ctx, m.workers, len(level), func(i int) error {
			nd := &level[i]
			if err := m.constHits(ctx, lat, nd); err != nil {
				return err
			}
			if grow {
				nd.children = m.growCNode(lat, nd)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		// Minimality and emission are sequential in node order: a rule is
		// pruned iff a proper sub-itemset already implies the same RHS.
		// Pruned itemsets are marked implied too — implication must
		// propagate transitively down the lattice, or a depth-ℓ+2 superset
		// whose only marked ancestor is ℓ levels up would slip through.
		var next []cnode
		for _, nd := range level {
			for _, h := range nd.consts {
				redundant := subsetImplies(implied, nd.items, h.pos)
				implied[string(appendItemsetKey(nil, nd.items, -1, h.pos))] = true
				if redundant {
					continue
				}
				out = append(out, Candidate{
					CFD:        constantCFD(m.sc, lat.items, nd.items, h),
					Kind:       "constant",
					Support:    len(nd.rows),
					Confidence: 1.0,
				})
			}
			next = append(next, nd.children...)
		}
		level = next
	}
	return out, nil
}

// constLattice indexes the frequent items: every non-null one-column class
// covering at least MinSupport rows, in (position, Key) order.
func (m *miner) constLattice() *clattice {
	lat := &clattice{first: make([]int, m.arity+1), itemOf: make([][]int32, m.arity)}
	for p := 0; p < m.arity; p++ {
		lat.first[p] = len(lat.items)
		if len(m.frequent[p]) == 0 {
			continue
		}
		col, part := m.col.Col(p), m.parts[p]
		// The table runs to the largest frequent code, not the code space:
		// a wide column with a few frequent values stays a short table.
		var space uint32
		for _, cl := range m.frequent[p] {
			space = max(space, m.probes[p][part.Class(cl)[0]]+1)
		}
		itemOf := make([]int32, space)
		for i := range itemOf {
			itemOf[i] = -1
		}
		for _, cl := range m.frequent[p] {
			rows := part.Class(cl)
			itemOf[m.probes[p][rows[0]]] = int32(len(lat.items))
			lat.items = append(lat.items, citem{pos: p, val: classValue(col, rows), rows: rows})
		}
		lat.itemOf[p] = itemOf
	}
	lat.first[m.arity] = len(lat.items)
	return lat
}

// constHits finds the columns constant (and non-null) over the node's
// cover, skipping the node's own positions as the walk meets them.
func (m *miner) constHits(ctx context.Context, lat *clattice, nd *cnode) error {
	k := 0
	for p := 0; p < m.arity; p++ {
		if k < len(nd.items) && lat.items[nd.items[k]].pos == p {
			k++
			continue
		}
		col := m.col.Col(p)
		probe := m.probes[p]
		want := probe[nd.rows[0]]
		if nullEq, hasNull := col.NullCode(); hasNull && want == nullEq {
			continue // null-led covers never emit
		}
		constant := true
		for i, r := range nd.rows {
			if i%cancelStride == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			if probe[r] != want {
				constant = false
				break
			}
		}
		if constant {
			// Emit the first covered row's exact value, bit-identical to
			// what a row scan would report.
			nd.consts = append(nd.consts, constHit{pos: p, val: col.Value(col.Code(int(nd.rows[0])))})
		}
	}
	return nil
}

// growCNode returns the node's children: its itemset joined with every
// frequent item on a later position whose class meets the cover in at
// least MinSupport rows. One pass per later position counts the cover's
// rows per item on Equal-class codes; a second scatters the kept items'
// rows into one backing array, so each child's cover is an ascending run
// of it, in item order. The children, their item lists and their covers
// take one allocation each, whatever the number of items.
func (m *miner) growCNode(lat *clattice, nd *cnode) []cnode {
	lastPos := lat.items[nd.items[len(nd.items)-1]].pos
	lo := lat.first[lastPos+1]
	if lo == len(lat.items) {
		return nil
	}
	// at[j-lo] counts item j's rows in the cover, then becomes its write
	// cursor, or -1 when the item falls short of MinSupport.
	at := make([]int32, len(lat.items)-lo)
	scan := func(visit func(j int, r int32)) {
		for q := lastPos + 1; q < m.arity; q++ {
			if lat.first[q] == lat.first[q+1] {
				continue
			}
			probe, itemOf := m.probes[q], lat.itemOf[q]
			for _, r := range nd.rows {
				if c := probe[r]; c < uint32(len(itemOf)) && itemOf[c] >= 0 {
					visit(int(itemOf[c])-lo, r)
				}
			}
		}
	}
	scan(func(j int, _ int32) { at[j]++ })
	kids, total := 0, int32(0)
	for j, c := range at {
		if int(c) < m.opts.MinSupport {
			at[j] = -1
			continue
		}
		at[j] = total
		total += c
		kids++
	}
	if kids == 0 {
		return nil
	}
	rows := make([]int32, total)
	scan(func(j int, r int32) {
		if at[j] >= 0 {
			rows[at[j]] = r
			at[j]++
		}
	})
	width := len(nd.items) + 1
	items := make([]int, kids*width)
	children := make([]cnode, 0, kids)
	start := int32(0)
	for j, end := range at {
		if end < 0 {
			continue
		}
		set := items[:width:width]
		items = items[width:]
		copy(set, nd.items)
		set[width-1] = lo + j
		children = append(children, cnode{items: set, rows: rows[start:end:end]})
		start = end
	}
	return children
}

// subsetImplies reports whether a proper sub-itemset already emitted a
// rule for rhsPos.
func subsetImplies(implied map[string]bool, set []int, rhsPos int) bool {
	if len(set) == 1 {
		return false
	}
	var buf [64]byte
	for skip := range set {
		if implied[string(appendItemsetKey(buf[:0], set, skip, rhsPos))] {
			return true
		}
	}
	return false
}

// appendItemsetKey appends the key of (set without its skip-th item,
// rhsPos) to dst; skip -1 keeps every item.
func appendItemsetKey(dst []byte, set []int, skip, rhsPos int) []byte {
	for i, it := range set {
		if i != skip {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(it))
		}
	}
	return binary.LittleEndian.AppendUint32(dst, uint32(rhsPos)|0x80000000)
}

// wildcardCFD builds the variable CFD xs -> a: every LHS cell a wildcard,
// except that the cell at position cond (if non-negative) carries condVal.
func wildcardCFD(sc *schema.Relation, xs []int, a, cond int, condVal types.Value) *cfd.CFD {
	names := sc.AttrNames()
	lhsAttrs := make([]string, len(xs))
	pats := make([]cfd.PatternValue, len(xs))
	for i, x := range xs {
		lhsAttrs[i], pats[i] = names[x], cfd.Wild
		if x == cond {
			pats[i] = cfd.Constant(condVal)
		}
	}
	id := fmt.Sprintf("var_%s_%s", strings.Join(lhsAttrs, "_"), names[a])
	if cond >= 0 {
		id += "_cond"
	}
	return cfd.New(id, sc.Name, lhsAttrs, []string{names[a]},
		cfd.PatternTuple{LHS: pats, RHS: []cfd.PatternValue{cfd.Wild}})
}

// constantCFD builds the [items] -> [p=v] rule: every LHS cell a constant,
// the RHS the constant found over the cover.
func constantCFD(sc *schema.Relation, items []citem, set []int, h constHit) *cfd.CFD {
	lhsAttrs := make([]string, len(set))
	pats := make([]cfd.PatternValue, len(set))
	for i, it := range set {
		lhsAttrs[i] = sc.Attrs[items[it].pos].Name
		pats[i] = cfd.Constant(items[it].val)
	}
	return cfd.New(
		fmt.Sprintf("const_%s_%d", strings.Join(lhsAttrs, "_"), h.pos),
		sc.Name, lhsAttrs, []string{sc.Attrs[h.pos].Name},
		cfd.PatternTuple{LHS: pats, RHS: []cfd.PatternValue{cfd.Constant(h.val)}})
}
