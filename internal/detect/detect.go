// Package detect implements Semandaq's error detector: it finds all CFD
// violations in a table and computes the per-tuple violation count vio(t)
// exactly as the paper defines it.
//
// Two kinds of violations exist (Semandaq §2, "Error Detector"):
//
//   - single-tuple violations: a tuple matching a pattern's LHS whose RHS
//     value differs from the pattern's RHS constant — the tuple conflicts
//     with the CFD all by itself;
//   - multi-tuple violations: tuples that agree on the embedded FD's LHS,
//     match a wildcard-RHS pattern, and disagree on the RHS — the FD-style
//     conflict.
//
// vio(t) starts at 0, is incremented by 1 per CFD for which t is a
// single-tuple violation, and by the cardinality of the set of tuples that
// jointly conflict with t per CFD with a multi-tuple violation.
//
// The package provides two interchangeable detectors producing one
// factorised report: SQLDetector generates the two SQL queries of the TODS
// paper per merged CFD and runs them on the sqleng engine (the paper's
// technique, end to end), resolving Qv's violating keys to classes of the
// LHS partition on codes; ColumnarDetector evaluates over the table's
// columnar snapshot with the factorised core — dictionary-code pattern
// matching, Equal-class grouping (the parallel engine is the same
// detector with Workers > 1). The Tracker maintains the same report under
// updates. The reference all three are checked against is
// internal/cfddef, which runs the definition above literally.
package detect

import (
	"context"
	"fmt"
	"slices"

	"semandaq/internal/cfd"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// cancelStride is how many tuples the scan loops process between context
// checks: frequent enough that a cancelled 1M-tuple scan aborts within a
// few thousand rows, rare enough to stay invisible in profiles.
const cancelStride = 4096

// Kind distinguishes the two violation classes.
type Kind int

// The violation kinds.
const (
	SingleTuple Kind = iota
	MultiTuple
)

// String names the kind.
func (k Kind) String() string {
	if k == SingleTuple {
		return "single-tuple"
	}
	return "multi-tuple"
}

// Violation records one tuple's involvement in one CFD violation.
type Violation struct {
	CFDID string
	Kind  Kind
	// Pattern is the index of the violated pattern tuple in the (merged,
	// normalized) CFD's tableau; -1 when not attributable to one pattern.
	Pattern int
	TupleID relstore.TupleID
	// Attr is the RHS attribute in conflict.
	Attr string
	// Partners is, for multi-tuple violations, the number of tuples that
	// jointly conflict with this one (the vio(t) increment).
	Partners int
	// Expected is the pattern's RHS constant for single-tuple violations.
	Expected types.Value
	// Got is the tuple's conflicting RHS value.
	Got types.Value
}

// Group describes one multi-tuple violation group: the tuples sharing an
// LHS value that disagree on the RHS. The audit layer's "arguably clean"
// classification needs the per-value counts.
type Group struct {
	CFDID string
	// Attr is the RHS attribute the group disagrees on.
	Attr string
	// LHSAttrs names the embedded FD's LHS attributes (parallel to
	// LHSValues); the repair layer uses them to break group memberships.
	LHSAttrs []string
	// LHSValues is the shared LHS value vector.
	LHSValues []types.Value
	// Members lists the group's tuples.
	Members []relstore.TupleID
	// RHSOf maps each member to its RHS value key.
	RHSOf map[relstore.TupleID]string
	// RHSCounts counts members per RHS value key.
	RHSCounts map[string]int
	// MajorityKey is the RHS value key held by the largest sub-group
	// (ties broken by key order for determinism).
	MajorityKey string
}

// MajoritySize returns the size of the largest agreeing sub-group.
func (g *Group) MajoritySize() int { return g.RHSCounts[g.MajorityKey] }

// CFDStats summarizes one CFD's violations.
type CFDStats struct {
	SingleTuple int // tuples with a single-tuple violation
	MultiTuple  int // tuples involved in multi-tuple violations
	Groups      int // multi-tuple violation groups
}

// Report is the full detection result over one table.
type Report struct {
	Table      string
	TupleCount int
	// Version is the table version the report reflects: every engine
	// evaluates one pinned snapshot, so all violations, groups and counts
	// in a report describe exactly this version even while concurrent
	// writers keep mutating the live table.
	Version    int64
	Violations []Violation
	// Vio is vio(t) for every tuple with vio(t) > 0.
	Vio map[relstore.TupleID]int
	// PerCFD indexes statistics by (normalized) CFD ID.
	PerCFD map[string]*CFDStats
	Groups []*Group
}

// DirtyTuples returns the IDs with vio(t) > 0, ascending.
func (r *Report) DirtyTuples() []relstore.TupleID {
	ids := make([]relstore.TupleID, 0, len(r.Vio))
	for id := range r.Vio {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// TotalViolations returns the number of violation records.
func (r *Report) TotalViolations() int { return len(r.Violations) }

// MaxVio returns the largest vio(t); 0 on a clean table.
func (r *Report) MaxVio() int {
	m := 0
	for _, v := range r.Vio {
		if v > m {
			m = v
		}
	}
	return m
}

// Detector finds CFD violations in a table.
type Detector interface {
	// Detect checks the table against the CFDs and returns the report.
	// Detection is cancellable: when ctx is done mid-scan the engine
	// returns ctx.Err() promptly instead of finishing the pass. The
	// engine pins the table's current snapshot up front, so the report
	// reflects a single version (stamped in Report.Version).
	Detect(ctx context.Context, tab *relstore.Table, cfds []*cfd.CFD) (*Report, error)
}

// SnapshotDetector is implemented by detectors that can evaluate an
// explicitly pinned snapshot. Callers that need several reads to agree on
// one table version (audit classifies rows against the report it just
// detected; explore drills into it) snapshot once and drive everything off
// it. All built-in engines implement it; Detect(tab) is shorthand for
// DetectSnapshot(tab.Snapshot()).
type SnapshotDetector interface {
	DetectSnapshot(ctx context.Context, snap *relstore.Snapshot, cfds []*cfd.CFD) (*Report, error)
}

// FactorDetector is implemented by detectors whose native result is the
// factorised report (every built-in engine): callers that can consume it —
// the facade's report cache, the detect endpoint's digest, the factorised
// audit — take it un-exploded instead of paying for DetectSnapshot's flat
// form.
type FactorDetector interface {
	DetectFactorised(ctx context.Context, snap *relstore.Snapshot, cfds []*cfd.CFD) (*FactorReport, error)
}

// EngineDetector is what NewDetector builds: every engine kind detects a
// table, a pinned snapshot, and the snapshot's factorised report, and the
// compiler holds each engine to all three.
type EngineDetector interface {
	Detector
	SnapshotDetector
	FactorDetector
}

// Prepared is a normalized, merged CFD with its attribute positions
// resolved against a schema.
type Prepared struct {
	CFD    *cfd.CFD
	LHSPos []int
	RHSPos int // single RHS attribute after normalization
}

// Prepare validates, normalizes (single-attribute RHS) and merges the CFDs
// by embedded FD, then resolves attribute positions against the schema.
// Detection, the audit and the explorer all read a CFD set through it, so
// their pattern indexes and CFD IDs line up.
func Prepare(sc *schema.Relation, cfds []*cfd.CFD) ([]Prepared, error) {
	var normalized []*cfd.CFD
	for _, c := range cfds {
		if err := c.Validate(sc); err != nil {
			return nil, err
		}
		normalized = append(normalized, c.Normalize()...)
	}
	merged := cfd.MergeByFD(normalized)
	out := make([]Prepared, 0, len(merged))
	for _, c := range merged {
		lhsPos, err := sc.Positions(c.LHS)
		if err != nil {
			return nil, err
		}
		rhsPos, err := sc.Positions(c.RHS)
		if err != nil {
			return nil, err
		}
		out = append(out, Prepared{CFD: c, LHSPos: lhsPos, RHSPos: rhsPos[0]})
	}
	return out, nil
}

// lhsKey encodes an LHS value vector as a grouping key, in the shared
// collision-free encoding (types.Value.AppendGroupKey): with a plain
// separator, values containing the separator byte could make distinct LHS
// vectors collide into one group.
func lhsKey(vals []types.Value) string {
	var scratch [64]byte
	buf := scratch[:0]
	for _, v := range vals {
		buf = v.AppendGroupKey(buf)
	}
	return string(buf)
}

// majorityKey picks the most frequent RHS key, ties broken by key order.
func majorityKey(counts map[string]int) string {
	best, bestN := "", -1
	for k, n := range counts {
		if n > bestN || (n == bestN && k < best) {
			best, bestN = k, n
		}
	}
	return best
}

// Equivalent reports whether two reports agree on vio(t) and per-CFD
// statistics; used by tests to cross-check the detectors.
func Equivalent(a, b *Report) error {
	if a.TupleCount != b.TupleCount {
		return fmt.Errorf("tuple counts differ: %d vs %d", a.TupleCount, b.TupleCount)
	}
	if len(a.Vio) != len(b.Vio) {
		return fmt.Errorf("dirty tuple counts differ: %d vs %d", len(a.Vio), len(b.Vio))
	}
	for id, n := range a.Vio {
		if b.Vio[id] != n {
			return fmt.Errorf("vio(%d) differs: %d vs %d", id, n, b.Vio[id])
		}
	}
	if len(a.PerCFD) != len(b.PerCFD) {
		return fmt.Errorf("per-CFD sizes differ: %d vs %d", len(a.PerCFD), len(b.PerCFD))
	}
	for id, s := range a.PerCFD {
		o, ok := b.PerCFD[id]
		if !ok {
			return fmt.Errorf("CFD %s missing from second report", id)
		}
		if *s != *o {
			return fmt.Errorf("CFD %s stats differ: %+v vs %+v", id, *s, *o)
		}
	}
	return nil
}
