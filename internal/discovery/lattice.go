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
// single-attribute conditions B=b over the frequent classes of B's PLI.
// Level ℓ+1 nodes are generated by prefix join from level ℓ (all ℓ-subsets
// must survive) and each new partition is one Intersect of its parent's.
//
// Constant CFDs: an itemset lattice over the PLI classes themselves — a
// frequent item is a (attribute, Equal-class) pair whose class covers >=
// MinSupport rows; itemset covers refine by sorted-list intersection, and
// an itemset emits [items] -> [p=v] when column p is constant over its
// cover and no proper sub-itemset already implies p.
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
	"sync/atomic"

	"semandaq/internal/cfd"
	"semandaq/internal/fdset"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// cancelStride is how many rows a worker scans between context polls,
// matching the detect engines' stride.
const cancelStride = 4096

// miner holds the per-run state of one lattice search: the pinned
// snapshot's columnar view, the per-attribute probe vectors and PLI class
// orders (shared, immutable during the run), and the resolved options.
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
	// frequent[p] lists column p's non-null PLI classes covering at least
	// MinSupport rows, by representative Key: the deterministic enumeration
	// order for condition values and items.
	frequent [][]int
	// Incremental refresh state (see incremental.go): reuse is the previous
	// run's read-only caches (nil on a cold mine), rec collects this run's
	// decisions for the next one (nil outside a Session), stats counts what
	// was reused (always non-nil).
	reuse *reuseState
	rec   *recorder
	stats *mineStats
	// exact accumulates the exact (confidence 1.0) global FDs emitted by
	// completed levels; nil under the disableClosure test hook. The lattice
	// consults it for closure pruning: a node whose added attribute is in
	// the closure of its parent's set shares the parent's partition instead
	// of paying an O(n) Intersect, and a candidate already implied holds
	// without a purity scan. Writes happen only in the sequential per-level
	// merge; the parallel check phase only reads.
	exact *fdset.Set
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
		frequent: make([][]int, snap.Schema().Arity()),
	}
	if !opts.disableClosure {
		m.exact = fdset.New(m.arity)
	}
	// Materialize every column's probe vector, PLI and frequent classes up
	// front, one goroutine per column: all of them are needed by both
	// lattices, and the probe and PLI builds are cached on the snapshot so a
	// second mining pass over the same version pays only the sort of the
	// classes it reads. Each build stage is an indivisible sync.Once unit,
	// so cancellation is polled between stages — a dead request stops
	// paying the cold build within one column-stage, and the stages already
	// built stay cached for the next caller. Callers must check ctx after
	// newMiner returns.
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
			m.frequent[p] = frequentClasses(c, opts.MinSupport)
		}(p)
	}
	wg.Wait()
	return m
}

// frequentClasses lists col's non-null PLI classes covering at least
// minSupport rows, ordered by their representative's Key(). Class-mates
// share their Key(), so any member's stands for the class, and distinct
// classes have distinct keys, so the order is total.
func frequentClasses(col *relstore.Column, minSupport int) []int {
	pli := col.PLI()
	// Built even when no class is frequent, so the patcher carries the key
	// table to the next version instead of a later reader rebuilding it.
	col.EnsureKeys()
	var out []int
	for cl := 0; cl < pli.NumClasses(); cl++ {
		if len(pli.Class(cl)) >= minSupport && !col.PLIClassValue(cl).IsNull() {
			out = append(out, cl)
		}
	}
	key := func(cl int) string { return col.KeyOf(col.Code(int(pli.Class(cl)[0]))) }
	slices.SortFunc(out, func(a, b int) int { return strings.Compare(key(a), key(b)) })
	return out
}

// forEach fans n independent node tasks across the miner's workers and
// returns the first error. fn must be safe to run concurrently for
// distinct indices; results must be written only into the task's own node
// so merge order stays deterministic.
func (m *miner) forEach(ctx context.Context, n int, fn func(i int) error) error {
	workers := min(m.workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := fn(i); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
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
	// every candidate check is answered from the incremental cache never
	// pays the intersection — nor do its ancestors.
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
// from the parent chain (depth-1 nodes carry their column PLI directly).
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
		level = append(level, &vnode{xs: []int{p}, part: m.col.Col(p).PLI(), cand: cand})
	}
	var out []Candidate
	for depth := 1; len(level) > 0; depth++ {
		// Partitions are NOT derived here: checkCandidate materializes them
		// lazily via nd.partition, so cache-answered nodes skip the
		// intersection entirely.
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
		if err := m.forEach(ctx, len(pairs), func(i int) error {
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
						m.exact.Add(nd.xs, a)
					}
				}
				if m.rec != nil {
					// Cache a private clone: the report's Candidates stay
					// the caller's, the cached CFDs stay ours.
					m.rec.va[vaKey(nd.xs, a)] = r.clone()
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
	if m.reuse != nil && m.reuse.unchanged(nd.xs, a) {
		if r, ok := m.reuse.va[vaKey(nd.xs, a)]; ok {
			m.stats.vaReused.Add(1)
			nd.res[ai] = r.clone()
			return nil
		}
	}
	m.stats.vaComputed.Add(1)
	// Closure short-circuit: when the exact cover from completed levels
	// already entails X → a, the dependency provably holds on the data
	// (Armstrong soundness over FDs that each held exactly), so the
	// verdict — and the emitted candidate — is exactly what the purity
	// scan would produce, without materializing or scanning the partition.
	if m.exact != nil && m.exact.Implies(nd.xs, a) {
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
	if aborted {
		return ctx.Err()
	}
	conf := 1.0
	holds := pure
	if !pure && m.opts.MinConfidence < 1 {
		conf = float64(part.Keep(probe)) / float64(m.n)
		holds = conf >= m.opts.MinConfidence
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
// B=b, B ∈ X: for each frequent non-null class of B's PLI (by Key order)
// it checks the dependency on the class's rows, emitting
// [B=b, rest=_] -> [a=_] up to MaxPatternsPerFD patterns per (X, a).
func (m *miner) mineConditional(ctx context.Context, nd *vnode, a int) ([]Candidate, error) {
	var emits []Candidate
	for _, b := range nd.xs {
		if len(emits) >= m.opts.MaxPatternsPerFD {
			break
		}
		colB := m.col.Col(b)
		pli := colB.PLI()
		for _, cl := range m.frequent[b] {
			if len(emits) >= m.opts.MaxPatternsPerFD {
				break
			}
			rep, rows := colB.PLIClassValue(cl), pli.Class(cl)
			conf, ok, err := m.condCheck(ctx, nd.xs, b, a, rows)
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

// condCheck decides X → a on the given row subset (a B=b condition class;
// B is constant there, so grouping uses X \ {B}). It returns the g3
// confidence over the subset and whether it clears MinConfidence.
func (m *miner) condCheck(ctx context.Context, xs []int, b, a int, rows []int32) (float64, bool, error) {
	rest := make([]int, 0, len(xs)-1)
	for _, x := range xs {
		if x != b {
			rest = append(rest, x)
		}
	}
	probeA := m.probes[a]
	exact := m.opts.MinConfidence >= 1

	// groupKey packs the rest-attribute codes of one row; with zero or one
	// rest attribute the key is direct.
	var buf []byte
	groupKey := func(r int32) string {
		buf = buf[:0]
		for _, x := range rest {
			buf = binary.LittleEndian.AppendUint32(buf, m.probes[x][r])
		}
		return string(buf)
	}

	if exact {
		// Purity per group; first conflict fails.
		switch len(rest) {
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
			probeX := m.probes[rest[0]]
			seen := make(map[uint32]uint32, 16)
			for i, r := range rows {
				if i%cancelStride == 0 && ctx.Err() != nil {
					return 0, false, ctx.Err()
				}
				if av, ok := seen[probeX[r]]; ok {
					if av != probeA[r] {
						return 0, false, nil
					}
				} else {
					seen[probeX[r]] = probeA[r]
				}
			}
		default:
			seen := make(map[string]uint32, 16)
			for i, r := range rows {
				if i%cancelStride == 0 && ctx.Err() != nil {
					return 0, false, ctx.Err()
				}
				k := groupKey(r)
				if av, ok := seen[k]; ok {
					if av != probeA[r] {
						return 0, false, nil
					}
				} else {
					seen[k] = probeA[r]
				}
			}
		}
		return 1.0, true, nil
	}

	// Approximate path: per (group, a-class) counts; keep each group's
	// plurality.
	counts := map[string]map[uint32]int32{}
	for i, r := range rows {
		if i%cancelStride == 0 && ctx.Err() != nil {
			return 0, false, ctx.Err()
		}
		k := groupKey(r)
		g := counts[k]
		if g == nil {
			g = map[uint32]int32{}
			counts[k] = g
		}
		g[probeA[r]]++
	}
	kept := 0
	for _, g := range counts {
		best := int32(0)
		for _, c := range g {
			if c > best {
				best = c
			}
		}
		kept += int(best)
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
		var parentClo fdset.Bits // closure(ndA.xs), computed on first use
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
					parentClo = m.exact.Closure(fdset.BitsOf(m.arity, ndA.xs))
				}
				nd.collapse = parentClo.Has(nd.added)
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
// covers at least MinSupport rows. cl is the class's PLI index — stable
// across versions for unchanged columns, so (pos, cl) identifies the item
// in the incremental caches.
type citem struct {
	pos  int
	cl   int
	val  types.Value
	rows []int32
}

// cnode is one itemset node: item indices (ascending by the items slice's
// (pos, Key) order, hence ascending attribute positions) and the cover.
type cnode struct {
	items []int
	rows  []int32
	// key is the itemset's (pos, class)-pair identity for the incremental
	// caches.
	key string
	// Outputs of the parallel phase, merged in node order. verd records
	// every RHS verdict (constant or not) for the next run's cache.
	consts   []constHit
	children []*cnode
	verd     []posVerdict
}

// posVerdict pairs an RHS position with its constant verdict for recording.
type posVerdict struct {
	pos int
	v   constVerdict
}

// constHit records a column found constant over a node's cover.
type constHit struct {
	pos int
	val types.Value
}

func (m *miner) mineConstant(ctx context.Context) ([]Candidate, error) {
	items := m.frequentItems()
	// itemsAfter[p] is the index of the first item on a strictly later
	// position — the join range for a node whose last item sits on p.
	itemsAfter := make([]int, m.arity)
	for p, idx := 0, 0; p < m.arity; p++ {
		for idx < len(items) && items[idx].pos <= p {
			idx++
		}
		itemsAfter[p] = idx
	}

	level := make([]*cnode, len(items))
	for i := range items {
		level[i] = &cnode{items: []int{i}, rows: items[i].rows, key: itemPairKey("", items[i])}
	}
	var out []Candidate
	implied := map[string]bool{}
	for depth := 1; depth <= m.opts.MaxLHS && len(level) > 0; depth++ {
		grow := depth < m.opts.MaxLHS
		if err := m.forEach(ctx, len(level), func(i int) error {
			if err := m.constHits(ctx, items, level[i]); err != nil {
				return err
			}
			if grow {
				m.growCNode(items, itemsAfter, level[i])
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if m.rec != nil {
			// Record this level's verdicts and the children's covers for the
			// next run — sequentially, after the parallel phase.
			for _, nd := range level {
				for _, pv := range nd.verd {
					m.rec.verdict[verdictKey(nd.key, pv.pos)] = pv.v
				}
				nd.verd = nil
				for _, ch := range nd.children {
					m.rec.putCover(ch.key, ch.rows)
				}
			}
		}
		// Minimality and emission are sequential in node order: a rule is
		// pruned iff a proper sub-itemset already implies the same RHS.
		// Pruned itemsets are marked implied too — implication must
		// propagate transitively down the lattice, or a depth-ℓ+2 superset
		// whose only marked ancestor is ℓ levels up would slip through.
		for _, nd := range level {
			for _, h := range nd.consts {
				redundant := m.subsetImplies(implied, items, nd.items, h.pos)
				implied[itemsetKey(items, nd.items, h.pos)] = true
				if redundant {
					continue
				}
				out = append(out, Candidate{
					CFD:        constantCFD(m.sc, items, nd.items, h),
					Kind:       "constant",
					Support:    len(nd.rows),
					Confidence: 1.0,
				})
			}
		}
		var next []*cnode
		for _, nd := range level {
			next = append(next, nd.children...)
			nd.children = nil
		}
		level = next
	}
	return out, nil
}

// frequentItems enumerates the single frequent items in (position, Key)
// order: every non-null PLI class covering at least MinSupport rows.
func (m *miner) frequentItems() []citem {
	var items []citem
	for p := 0; p < m.arity; p++ {
		col := m.col.Col(p)
		pli := col.PLI()
		for _, cl := range m.frequent[p] {
			items = append(items, citem{pos: p, cl: cl, val: col.PLIClassValue(cl), rows: pli.Class(cl)})
		}
	}
	return items
}

// constHits finds the columns constant (and non-null) over the node's
// cover.
func (m *miner) constHits(ctx context.Context, items []citem, nd *cnode) error {
	inLHS := make(map[int]bool, len(nd.items))
	for _, it := range nd.items {
		inLHS[items[it].pos] = true
	}
	colsOK := m.reuse != nil && m.reuse.itemsetUnchanged(items, nd.items)
	for p := 0; p < m.arity; p++ {
		if inLHS[p] {
			continue
		}
		// A cached verdict is valid iff neither the itemset's columns (the
		// cover) nor p (the scanned values) changed.
		if colsOK && !m.reuse.changed[p] {
			if v, ok := m.reuse.verdict[verdictKey(nd.key, p)]; ok {
				m.stats.verdictReused.Add(1)
				if v.constant {
					nd.consts = append(nd.consts, constHit{pos: p, val: v.val})
				}
				nd.verd = append(nd.verd, posVerdict{pos: p, v: v})
				continue
			}
		}
		m.stats.verdictComputed.Add(1)
		col := m.col.Col(p)
		probe := m.probes[p]
		nullEq, hasNull := col.NullCode()
		want := probe[nd.rows[0]]
		if hasNull && want == nullEq {
			// Null-led covers never emit; cache the negative so a reused
			// node does not re-scan.
			nd.verd = append(nd.verd, posVerdict{pos: p})
			continue
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
		v := constVerdict{constant: constant}
		if constant {
			// Emit the first covered row's exact value, bit-identical to
			// what a row scan would report.
			v.val = col.Value(col.Code(int(nd.rows[0])))
			nd.consts = append(nd.consts, constHit{pos: p, val: v.val})
		}
		nd.verd = append(nd.verd, posVerdict{pos: p, v: v})
	}
	return nil
}

// growCNode joins the node with every frequent item on a later attribute
// position, keeping children whose cover intersection clears MinSupport.
func (m *miner) growCNode(items []citem, itemsAfter []int, nd *cnode) {
	last := items[nd.items[len(nd.items)-1]].pos
	colsOK := m.reuse != nil && m.reuse.itemsetUnchanged(items, nd.items)
	for j := itemsAfter[last]; j < len(items); j++ {
		key := itemPairKey(nd.key, items[j])
		var inter []int32
		if colsOK && !m.reuse.changed[items[j].pos] {
			// Row positions are stable and no member column changed, so the
			// previous run's cover is this run's cover.
			if c, ok := m.reuse.cover[key]; ok {
				inter = c
				m.stats.coverReused.Add(1)
			}
		}
		if inter == nil {
			inter = intersectSorted32(nd.rows, items[j].rows)
			m.stats.coverComputed.Add(1)
		}
		if len(inter) < m.opts.MinSupport {
			continue
		}
		child := &cnode{
			items: append(append(make([]int, 0, len(nd.items)+1), nd.items...), j),
			rows:  inter,
			key:   key,
		}
		nd.children = append(nd.children, child)
	}
}

// subsetImplies reports whether a proper sub-itemset already emitted a
// rule for rhsPos.
func (m *miner) subsetImplies(implied map[string]bool, items []citem, set []int, rhsPos int) bool {
	if len(set) == 1 {
		return false
	}
	sub := make([]int, len(set)-1)
	for skip := range set {
		k := 0
		for i, it := range set {
			if i != skip {
				sub[k] = it
				k++
			}
		}
		if implied[itemsetKey(items, sub, rhsPos)] {
			return true
		}
	}
	return false
}

func itemsetKey(items []citem, set []int, rhsPos int) string {
	buf := make([]byte, 0, 4*len(set)+4)
	for _, it := range set {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(it))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rhsPos)|0x80000000)
	return string(buf)
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

// intersectSorted32 intersects two ascending row-index slices.
func intersectSorted32(a, b []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
