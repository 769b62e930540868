// Discovery's serving path: a Session keeps, per table, the last report and
// the options it was mined under, and serves it again while the table's
// version holds. Any other call is a cold Mine of the pinned snapshot, so
// the report is byte-identical (DeepEqual) to Mine over the same version —
// the oracle harness and the discovery tests assert exactly that at every
// intermediate version.
package discovery

import (
	"context"
	"sync"
	"sync/atomic"

	"semandaq/internal/relstore"
)

// mineStats counts one run's lattice work; fields are atomic because the
// lattice phases are parallel.
type mineStats struct {
	vaComputed atomic.Int64
	// Closure-pruning profile (lattice.go): partitions materialized by a
	// real Intersect vs collapsed onto the parent's partition because the
	// exact-FD cover proved the added attribute redundant, and candidate
	// verdicts derived from the cover without a purity scan.
	partsIntersected, partsCollapsed atomic.Int64
	verdictsDerived                  atomic.Int64
}

// SessionStats describes how a Session's runs resolved and what the last
// mine did.
type SessionStats struct {
	// FullRuns / ReportHits classify how runs resolved: a mine, or the
	// same-version report served as is.
	FullRuns   int64 `json:"full_runs"`
	ReportHits int64 `json:"report_hits"`
	// VAChecksReused is always 0: a Session replays no lattice decision.
	// It stays for readers that still report a reuse share.
	VAChecksReused   int64 `json:"va_checks_reused"`
	VAChecksComputed int64 `json:"va_checks_computed"`
	// Closure-pruning counters for the last run (see miner.exact in lattice.go):
	// lattice partitions paid for with an O(n) Intersect, partitions
	// collapsed onto their parent because the exact-FD cover proved the
	// intersection a no-op, and verdicts derived from the cover without a
	// partition scan.
	PartitionsIntersected int64 `json:"partitions_intersected"`
	PartitionsCollapsed   int64 `json:"partitions_collapsed"`
	VerdictsDerived       int64 `json:"verdicts_derived"`
}

// Session is the serving path for Discover on one table: it caches the
// last report and serves it while the table's version and the options
// hold. A Session is safe for concurrent use; runs serialize.
type Session struct {
	mu      sync.Mutex
	tab     *relstore.Table
	rawOpts Options // as passed by the caller, pre-defaulting
	report  *Report
	stats   SessionStats
}

// NewSession creates a discovery session over tab.
func NewSession(tab *relstore.Table) *Session {
	return &Session{tab: tab}
}

// Discover mines the table's current version, or serves the previous
// report when neither the version nor the options moved. The report is
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
	stats := &mineStats{}
	rep, err := mine(ctx, snap, opts, stats)
	if err != nil {
		return nil, err
	}
	s.report, s.rawOpts = rep, opts
	s.stats.FullRuns++
	s.stats.VAChecksComputed = stats.vaComputed.Load()
	s.stats.PartitionsIntersected = stats.partsIntersected.Load()
	s.stats.PartitionsCollapsed = stats.partsCollapsed.Load()
	s.stats.VerdictsDerived = stats.verdictsDerived.Load()
	return rep, nil
}

// LastStats returns the session's cumulative run classification and the
// most recent mine's counters. Stats live outside the Report on purpose:
// the report must stay byte-identical to a cold Mine.
func (s *Session) LastStats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
