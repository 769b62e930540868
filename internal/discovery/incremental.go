// Incremental lattice refresh: a Session remembers, per (table, options),
// what the last mining run decided and why, keyed by the attribute columns
// each decision depended on. When the table mutates and Discover runs
// again, relstore.Table.ChangesSince names the columns whose cells changed;
// every lattice decision touching only unchanged columns is replayed from
// the cache, and — because node partitions are materialized lazily — the
// partitions, intersections and purity scans behind those decisions are
// never rebuilt. Only nodes whose LHS or RHS columns actually changed are
// re-verified, so Discover on a 1M-tuple table after 100 edits to one
// column re-scans that column's lattice neighborhood, not the table.
//
// The cache is sound because every cached unit depends only on artifacts
// that are bitwise stable for unchanged columns under a stable row set:
//
//   - a variable-lattice check (X → a: purity, confidence, conditional
//     patterns) reads the PLIs, probes and frequent classes of X ∪ {a}
//     plus the resolved options — cached under the column set, reused iff
//     no member column changed;
//   - a constant-lattice itemset is identified by its (position, PLI class
//     index) pairs — classes are indexed in order of their first rows, a
//     function of the column's rows alone, so the key survives for
//     unchanged columns — and carries its row cover and a
//     verdict per candidate RHS column; a changed RHS column invalidates
//     only that column's verdicts (re-scanning the cached cover), not the
//     itemset.
//
// Reuse never changes the mining walk, only short-circuits its per-node
// work, so the produced Report is byte-identical (DeepEqual) to a cold
// Mine over the same snapshot — the oracle harness and the discovery
// cross-check tests assert exactly that at every intermediate version.
package discovery

import (
	"context"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

// coverCacheBudget bounds the total row indices retained across cached
// itemset covers (int32 each), so a wide constant lattice cannot pin
// unbounded memory between runs. Covers past the budget are simply not
// cached — the next run recomputes those intersections.
const coverCacheBudget = 4 << 20

// constVerdict is the cached outcome of "is column pos constant over this
// itemset's cover": the exact first-row value when it is.
type constVerdict struct {
	constant bool
	val      types.Value
}

// reuseState is the read-only face of the previous run a miner consults:
// which columns changed since, and the caches keyed as described in the
// package comment. All maps are from the previous run and never written
// during a mine.
type reuseState struct {
	changed []bool
	va      map[string]vaResult
	cover   map[string][]int32
	verdict map[string]constVerdict
}

// unchanged reports whether no column of xs (nor extra, if >= 0) changed.
func (r *reuseState) unchanged(xs []int, extra int) bool {
	for _, x := range xs {
		if r.changed[x] {
			return false
		}
	}
	return extra < 0 || !r.changed[extra]
}

// itemsetUnchanged reports whether none of the itemset's attribute
// positions changed.
func (r *reuseState) itemsetUnchanged(items []citem, set []int) bool {
	for _, it := range set {
		if r.changed[items[it].pos] {
			return false
		}
	}
	return true
}

// recorder collects the caches the *next* run will reuse. The miner fills
// it sequentially (after each level's parallel phase), so no locking.
type recorder struct {
	va          map[string]vaResult
	cover       map[string][]int32
	verdict     map[string]constVerdict
	coverBudget int
}

func newRecorder() *recorder {
	return &recorder{
		va:          map[string]vaResult{},
		cover:       map[string][]int32{},
		verdict:     map[string]constVerdict{},
		coverBudget: coverCacheBudget,
	}
}

func (r *recorder) putCover(key string, rows []int32) {
	if len(rows) > r.coverBudget {
		return
	}
	r.coverBudget -= len(rows)
	r.cover[key] = rows
}

// mineStats counts reuse and closure pruning during one run; fields are
// atomic because the lattice phases are parallel.
type mineStats struct {
	vaReused, vaComputed           atomic.Int64
	verdictReused, verdictComputed atomic.Int64
	coverReused, coverComputed     atomic.Int64
	// Closure-pruning profile (lattice.go): partitions materialized by a
	// real Intersect vs collapsed onto the parent's partition because the
	// exact-FD cover proved the added attribute redundant, and candidate
	// verdicts derived from the cover without a purity scan.
	partsIntersected, partsCollapsed atomic.Int64
	verdictsDerived                  atomic.Int64
}

// vaKey identifies one variable-lattice (X, a) check.
func vaKey(xs []int, a int) string {
	buf := make([]byte, 0, 4*len(xs)+4)
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(a)|0x80000000)
	return string(buf)
}

// itemPairKey appends one (position, class) item to an itemset key.
func itemPairKey(key string, it citem) string {
	buf := make([]byte, 0, len(key)+8)
	buf = append(buf, key...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(it.pos))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(it.cl))
	return string(buf)
}

// verdictKey identifies one (itemset, RHS column) constant check.
func verdictKey(nodeKey string, p int) string {
	buf := make([]byte, 0, len(nodeKey)+4)
	buf = append(buf, nodeKey...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
	return string(buf)
}

// clone returns a vaResult safe to hand across a cache boundary: the
// Candidates' CFDs are deep-copied so neither a caller mutating a served
// report nor a later run can corrupt the cached rules.
func (r vaResult) clone() vaResult {
	if len(r.emits) == 0 {
		return r
	}
	emits := make([]Candidate, len(r.emits))
	copy(emits, r.emits)
	for i := range emits {
		emits[i].CFD = emits[i].CFD.Clone()
	}
	return vaResult{holds: r.holds, emits: emits}
}

// SessionStats describes what the last Session.Discover run reused.
type SessionStats struct {
	// FullRuns / IncrementalRuns / ReportHits classify how runs resolved:
	// cold mine, cache-assisted mine, or same-version report served as is.
	FullRuns        int64 `json:"full_runs"`
	IncrementalRuns int64 `json:"incremental_runs"`
	ReportHits      int64 `json:"report_hits"`
	// Last-run reuse counters.
	VAChecksReused        int64 `json:"va_checks_reused"`
	VAChecksComputed      int64 `json:"va_checks_computed"`
	ConstVerdictsReused   int64 `json:"const_verdicts_reused"`
	ConstVerdictsComputed int64 `json:"const_verdicts_computed"`
	CoversReused          int64 `json:"covers_reused"`
	CoversComputed        int64 `json:"covers_computed"`
	// Closure-pruning counters for the last run (see miner.exact in lattice.go):
	// lattice partitions paid for with an O(n) Intersect, partitions
	// collapsed onto their parent because the exact-FD cover proved the
	// intersection a no-op, and verdicts derived from the cover without a
	// partition scan.
	PartitionsIntersected int64 `json:"partitions_intersected"`
	PartitionsCollapsed   int64 `json:"partitions_collapsed"`
	VerdictsDerived       int64 `json:"verdicts_derived"`
}

// Session is the incremental serving path for Discover on one table: it
// caches the last report and the per-column-set decision caches behind it,
// and refreshes them with O(changed columns) mining work when the table
// mutates in place. A Session is safe for concurrent use; runs serialize.
type Session struct {
	mu      sync.Mutex
	tab     *relstore.Table
	rawOpts Options // as passed by the caller, pre-defaulting
	report  *Report
	va      map[string]vaResult
	cover   map[string][]int32
	verdict map[string]constVerdict
	stats   SessionStats
}

// NewSession creates an incremental discovery session over tab.
func NewSession(tab *relstore.Table) *Session {
	return &Session{tab: tab}
}

// Discover mines the table's current version, reusing the previous run's
// decisions wherever the change log proves them still valid. The report is
// byte-identical to Mine over the same snapshot; callers must treat it as
// immutable (it may be served again while the version holds).
func (s *Session) Discover(ctx context.Context, opts Options) (*Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.tab.Snapshot()
	if s.report != nil && s.rawOpts == opts && s.report.Version == snap.Version() {
		s.stats.ReportHits++
		return s.report, nil
	}
	var reuse *reuseState
	if s.report != nil && s.rawOpts == opts {
		// ChangesSince reads the live version, which a concurrent writer may
		// have advanced past snap's — that only over-approximates the changed
		// set, never under.
		if changed, rowsStable, ok := s.tab.ChangesSince(s.report.Version); ok && rowsStable {
			reuse = &reuseState{changed: changed, va: s.va, cover: s.cover, verdict: s.verdict}
		}
	}
	rec := newRecorder()
	stats := &mineStats{}
	rep, err := mineSession(ctx, snap, opts, reuse, rec, stats)
	if err != nil {
		return nil, err
	}
	s.report, s.rawOpts = rep, opts
	s.va, s.cover, s.verdict = rec.va, rec.cover, rec.verdict
	if reuse != nil {
		s.stats.IncrementalRuns++
	} else {
		s.stats.FullRuns++
	}
	s.stats.VAChecksReused = stats.vaReused.Load()
	s.stats.VAChecksComputed = stats.vaComputed.Load()
	s.stats.ConstVerdictsReused = stats.verdictReused.Load()
	s.stats.ConstVerdictsComputed = stats.verdictComputed.Load()
	s.stats.CoversReused = stats.coverReused.Load()
	s.stats.CoversComputed = stats.coverComputed.Load()
	s.stats.PartitionsIntersected = stats.partsIntersected.Load()
	s.stats.PartitionsCollapsed = stats.partsCollapsed.Load()
	s.stats.VerdictsDerived = stats.verdictsDerived.Load()
	return rep, nil
}

// LastStats returns the session's cumulative run classification and the
// most recent run's reuse counters. Stats live outside the Report on
// purpose: the report must stay byte-identical to a cold Mine.
func (s *Session) LastStats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
