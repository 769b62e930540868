// Package discovery mines CFDs from reference data. Semandaq's constraint
// engine accepts CFDs "either explicitly specified by users or
// automatically discovered from reference data" (paper §2); this package
// implements the discovery path in the style of the CFDMiner / CTANE
// family: constant CFDs from association rules, and variable CFDs from
// (conditioned) functional-dependency checks over attribute-set
// partitions.
//
// The engine is a level-wise lattice search over position list indexes
// (stripped partitions, relstore.Partition) built from the snapshot's
// columnar dictionary codes: an FD check is a partition purity test in
// integer codes, attribute sets refine by partition intersection, and
// candidate RHS sets propagate down the lattice so non-minimal rules are
// pruned before they are ever checked (free-set/minimality pruning). Each
// lattice level expands in parallel across Workers goroutines with
// per-stride context checks, and the whole search runs over one pinned
// relstore.Snapshot — the Report carries the snapshot version it mined,
// joining the system-wide versioning contract.
//
// The reference the lattice is checked against is internal/cfddef: the
// search policy above executed by definition on the rows, with equality
// required at every depth (crosscheck_test.go, FuzzMineDefinition).
package discovery

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"semandaq/internal/cfd"
	"semandaq/internal/par"
	"semandaq/internal/relstore"
)

// Options tunes the search. The zero value selects every default; the
// defaulting rule is: only non-positive fields are replaced, so every
// explicitly set positive value wins — in particular MinSupport: 1 means
// "every value is frequent" and is honored, never clamped to the
// max(2, N/100) default.
type Options struct {
	// MinSupport is the minimum number of tuples a pattern's condition
	// must cover. Non-positive selects the default max(2, N/100); any
	// explicit positive value — including 1 — is used as given.
	MinSupport int
	// MaxLHS bounds the size of the embedded FD's LHS (the lattice depth).
	// Non-positive selects the default 2; any positive depth is allowed.
	MaxLHS int
	// MaxPatternsPerFD bounds how many condition patterns one embedded FD
	// may accumulate. Non-positive selects the default 8.
	MaxPatternsPerFD int
	// MinConfidence is the minimum confidence for the embedded-FD checks
	// (global and conditional): confidence is the fraction of covered
	// tuples kept when each LHS group retains only its plurality RHS
	// value (the g3 measure). Non-positive selects the default 1.0 —
	// exact dependencies only; values below 1 admit approximate CFDs.
	// Constant CFDs are always mined exactly (confidence 1).
	MinConfidence float64
	// Workers is the goroutine count for per-level parallel lattice
	// expansion. Non-positive selects runtime.GOMAXPROCS; any count is
	// capped at 8 × GOMAXPROCS (par.Workers), and a level runs at most one
	// worker per task.
	Workers int
	// disableClosure is the closure tests' hook: it turns off FD-closure
	// pruning of the variable lattice (partition collapse and derived
	// verdicts, see lattice.go) so they can hold the two runs identical.
	// The report is byte-identical either way and does not echo it.
	disableClosure bool
}

// withDefaults resolves the defaulting rule against a table of n tuples:
// only non-positive fields are replaced (see Options), and Workers is
// capped. The result is fully resolved — Report.Options echoes it, so
// Workers names the most goroutines any level of the search ran with.
func (o Options) withDefaults(n int) Options {
	if o.MinSupport <= 0 {
		o.MinSupport = max(2, n/100)
	}
	if o.MaxLHS <= 0 {
		o.MaxLHS = 2
	}
	if o.MaxPatternsPerFD <= 0 {
		o.MaxPatternsPerFD = 8
	}
	if o.MinConfidence <= 0 {
		o.MinConfidence = 1.0
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	o.Workers = par.Workers(o.Workers, math.MaxInt)
	return o
}

// Candidate is one mined pattern with its evidence.
type Candidate struct {
	// CFD is the single-pattern form of the rule.
	CFD *cfd.CFD
	// Kind is "constant", "global-fd" or "conditional-fd".
	Kind string
	// Support is the number of tuples the pattern's condition covers: the
	// LHS-constant cover for constant rules, the condition class for
	// conditional FDs, the whole table for global FDs.
	Support int
	// Confidence is the kept fraction of the covered tuples under the g3
	// measure; 1.0 means the rule holds exactly on the snapshot.
	Confidence float64
}

// Report is the result of one mining run over one pinned snapshot.
type Report struct {
	// Version is the snapshot version the rules were mined from: the
	// report describes exactly that state of the table, consistent with
	// the version stamp every read path carries.
	Version int64
	// Tuples is the snapshot's row count.
	Tuples int
	// Options echoes the resolved options (after defaulting).
	Options Options
	// Candidates lists every mined pattern with support and confidence,
	// in mining order (variable rules level by level, then constants).
	Candidates []Candidate
	// CFDs is the registrable rule set: candidates merged by embedded FD
	// (tableaux of one FD combined), IDs assigned disc1, disc2, ...
	CFDs []*cfd.CFD
}

// Mine runs the lattice search over one pinned snapshot and returns the
// versioned report. A cancelled ctx aborts the search between strides and
// returns ctx.Err().
func Mine(ctx context.Context, snap *relstore.Snapshot, opts Options) (*Report, error) {
	return mine(ctx, snap, opts, &mineStats{})
}

// MineStats profiles one cold mining run's lattice work — the counters
// the closure tests gate on. It lives outside the Report on purpose:
// reports are DeepEqual-compared across engines and sessions, and the
// work profile legitimately differs while the output must not.
type MineStats struct {
	// VAChecksComputed is the number of (node, RHS candidate) checks run.
	VAChecksComputed int64
	// PartitionsIntersected counts lattice partitions materialized by a
	// real O(n) Intersect; PartitionsCollapsed counts those shared from
	// the parent because the exact-FD cover proved the intersection a
	// no-op. VerdictsDerived counts candidate verdicts answered from the
	// cover without any partition scan.
	PartitionsIntersected int64
	PartitionsCollapsed   int64
	VerdictsDerived       int64
}

// MineWithStats is Mine plus the run's lattice work profile.
func MineWithStats(ctx context.Context, snap *relstore.Snapshot, opts Options) (*Report, MineStats, error) {
	stats := &mineStats{}
	rep, err := mine(ctx, snap, opts, stats)
	if err != nil {
		return nil, MineStats{}, err
	}
	return rep, MineStats{
		VAChecksComputed:      stats.vaComputed.Load(),
		PartitionsIntersected: stats.partsIntersected.Load(),
		PartitionsCollapsed:   stats.partsCollapsed.Load(),
		VerdictsDerived:       stats.verdictsDerived.Load(),
	}, nil
}

// mine is Mine counting its lattice work into stats.
func mine(ctx context.Context, snap *relstore.Snapshot, opts Options, stats *mineStats) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err // don't pay the columnar/partition builds for a dead request
	}
	opts = opts.withDefaults(snap.Len())
	m := newMiner(ctx, snap, opts)
	m.stats = stats
	if err := ctx.Err(); err != nil {
		return nil, err // the cold build stopped early; its outputs are partial
	}
	variable, err := m.mineVariable(ctx)
	if err != nil {
		return nil, err
	}
	constant, err := m.mineConstant(ctx)
	if err != nil {
		return nil, err
	}
	// Variable rules first, then constants: the order tableaux of a shared
	// embedded FD accumulate in, and so the disc<i> IDs, are part of the
	// report.
	candidates := append(variable, constant...)
	all := make([]*cfd.CFD, len(candidates))
	for i, c := range candidates {
		all[i] = c.CFD
	}
	merged := cfd.MergeByFD(all)
	for i, c := range merged {
		c.ID = fmt.Sprintf("disc%d", i+1)
	}
	opts.disableClosure = false
	return &Report{
		Version:    snap.Version(),
		Tuples:     snap.Len(),
		Options:    opts,
		Candidates: candidates,
		CFDs:       merged,
	}, nil
}
