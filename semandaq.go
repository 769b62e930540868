// Package semandaq is a data quality system based on conditional functional
// dependencies (CFDs), reproducing Fan, Geerts, Jia, "Semandaq: A Data
// Quality System Based on Conditional Functional Dependencies" (VLDB 2008)
// and the algorithms of its companion papers (TODS 2008 detection and
// static analysis; VLDB 2007 cost-based repair).
//
// The top-level type is System: load relational data, register CFDs (the
// constraint engine checks the set is satisfiable), then detect violations
// with automatically generated SQL, audit the data's quality, explore
// violations interactively, repair the data with a cost-based heuristic,
// and monitor updates incrementally.
//
// Three interchangeable detection engines produce the same report:
// SQLDetection (the paper's generated-SQL technique), ColumnarDetection
// (the factorised evaluation over the table's columnar snapshot: patterns
// match on dictionary codes, groups are classes of the columns' partition
// indexes) and ParallelDetection (the same evaluation with its per-CFD
// passes fanned over the CPU cores). The engine name "native" is accepted
// as an alias of "columnar". docs/ENGINES.md has the full matrix and
// when-to-use guidance.
//
// Requests take a context.Context and functional options, so callers can
// cancel long scans (a dropped HTTP client, a CLI timeout) and tune each
// call without mutating the shared session:
//
//	sys := semandaq.New()
//	sys.LoadCSV("customer", file)
//	sys.RegisterCFDText("customer", `
//	    customer: [CNT=UK, ZIP=_] -> [STR=_]
//	    customer: [CC=44]         -> [CNT=UK]
//	`)
//	report, _ := sys.Detect(ctx, "customer", semandaq.WithEngine(semandaq.SQLDetection))
//	audit, _  := sys.Audit(ctx, "customer")
//	repair, _ := sys.Repair(ctx, "customer")
//
// DetectStream yields the report's violation records one at a time, in
// the canonical (tuple, CFD, kind, pattern) order, from the same cached or
// monitor-tracked report Detect reads, without exploding it:
//
//	for v, err := range sys.DetectStream(ctx, "customer") { ... }
//
// Discover mines CFDs from trusted reference data — a level-wise lattice
// search over the snapshot's partition indexes, parallel across workers
// and pinned to one table version:
//
//	rep, _ := sys.Discover(ctx, "customer", semandaq.WithMinSupport(100))
//	_ = sys.RegisterCFDs("customer", rep.CFDs) // rep.Version says what was mined
//
// The store serves live traffic: System.Insert, Delete and SetCell mutate
// tables while detection, audit, exploration and discovery keep running.
// Each is an update batch of one on the session's one write path, which
// ApplyUpdates and the repair applies share: validated whole, and routed
// through the table's data monitor when one is active. Repair keeps its
// candidate on the table's record until ApplyPendingRepair lands it; a
// reload of the table drops it. Every
// read path evaluates an immutable, pinned Snapshot, so each report
// reflects exactly one table version and carries it in its Version field.
//
// This package re-exports the library's public surface; implementation
// lives under internal/.
package semandaq

import (
	"semandaq/internal/audit"
	"semandaq/internal/cfd"
	"semandaq/internal/consistency"
	"semandaq/internal/core"
	"semandaq/internal/datagen"
	"semandaq/internal/detect"
	"semandaq/internal/discovery"
	"semandaq/internal/explore"
	"semandaq/internal/monitor"
	"semandaq/internal/relstore"
	"semandaq/internal/repair"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// System is one Semandaq data-quality session: tables, constraints and the
// operations of the paper's architecture (Fig. 1).
type System = core.Semandaq

// New creates a System with no tables.
func New() *System { return core.New() }

// Constraint model.
type (
	// CFD is a conditional functional dependency: an embedded FD X → Y
	// plus a pattern tableau of constants and wildcards.
	CFD = cfd.CFD
	// PatternTuple is one tableau row.
	PatternTuple = cfd.PatternTuple
	// PatternValue is one tableau cell: a constant or the wildcard "_".
	PatternValue = cfd.PatternValue
)

// Wild is the "don't care" pattern cell.
var Wild = cfd.Wild

// Constant builds a constant pattern cell.
func Constant(v Value) PatternValue { return cfd.Constant(v) }

// ParseCFD parses one CFD line, e.g.
// "customer: [CNT=UK, ZIP=_] -> [STR=_]".
func ParseCFD(line string) (*CFD, error) { return cfd.ParseLine(line) }

// ParseCFDSet parses a multi-line CFD specification, merging patterns that
// share an embedded FD.
func ParseCFDSet(text string) ([]*CFD, error) { return cfd.ParseSet(text) }

// NewFD builds the CFD form of a classical FD (all-wildcard pattern).
func NewFD(id, table string, lhs, rhs []string) *CFD { return cfd.NewFD(id, table, lhs, rhs) }

// Data model.
type (
	// Table is one mutable relation instance with stable tuple IDs.
	// Stored rows are copy-on-write, so read snapshots stay stable while
	// writers proceed.
	Table = relstore.Table
	// Snapshot is an immutable, versioned read view of a table: every
	// read path (detection, streaming, audit, explore, discovery)
	// evaluates one pinned Snapshot, so results reflect exactly one table
	// version and carry it in their Version field.
	Snapshot = relstore.Snapshot
	// Tuple is one row.
	Tuple = relstore.Tuple
	// TupleID identifies a tuple for its whole life.
	TupleID = relstore.TupleID
	// Value is a typed scalar (string/int/float/bool/NULL).
	Value = types.Value
	// Schema describes a relation.
	Schema = schema.Relation
)

// NewSchema builds a relation schema from attribute names.
func NewSchema(name string, attrs ...string) *Schema { return schema.New(name, attrs...) }

// Value constructors.
var (
	// Null is the NULL value.
	Null = types.Null
)

// String builds a string value.
func String(s string) Value { return types.NewString(s) }

// Int builds an integer value.
func Int(i int64) Value { return types.NewInt(i) }

// Float builds a float value.
func Float(f float64) Value { return types.NewFloat(f) }

// Bool builds a boolean value.
func Bool(b bool) Value { return types.NewBool(b) }

// Detection.
type (
	// DetectionReport is the result of violation detection, including the
	// per-tuple counts vio(t).
	DetectionReport = detect.Report
	// DetectionDigest is a report's wire summary — totals, per-CFD
	// statistics and vio(t) — as System.DetectDigest returns it without
	// materializing the violation records.
	DetectionDigest = detect.Digest
	// Violation is one tuple's involvement in one CFD violation.
	Violation = detect.Violation
	// ViolationGroup is one multi-tuple violation group.
	ViolationGroup = detect.Group
	// Tracker maintains violations incrementally under updates.
	Tracker = detect.Tracker
	// DetectorKind selects the detection implementation.
	DetectorKind = core.DetectorKind
	// Option configures one request (Detect, DetectStream, Audit, Repair,
	// Monitor); build them with WithEngine, WithWorkers, WithCFDs,
	// WithLimit and WithCleansed.
	Option = core.Option
)

// Request options.
var (
	// WithEngine selects the detection engine for one request; without it
	// every read, the stream included, uses ColumnarDetection.
	WithEngine = core.WithEngine
	// WithWorkers overrides the parallel engine's worker count for one
	// request (n <= 0 means GOMAXPROCS).
	WithWorkers = core.WithWorkers
	// WithCFDs scopes a request to the registered CFDs with these IDs.
	WithCFDs = core.WithCFDs
	// WithLimit caps the violation records returned or streamed.
	WithLimit = core.WithLimit
	// WithCleansed selects the monitor's incremental-repair mode.
	WithCleansed = core.WithCleansed
	// WithMinSupport sets discovery's minimum pattern cover; explicit
	// positive values — including 1 — always win over the default.
	WithMinSupport = core.WithMinSupport
	// WithMaxLHS bounds discovery's embedded-FD LHS size (lattice depth).
	WithMaxLHS = core.WithMaxLHS
	// WithMinConfidence admits approximate CFDs below confidence 1.
	WithMinConfidence = core.WithMinConfidence
	// WithMaxPatterns bounds condition patterns per discovered FD.
	WithMaxPatterns = core.WithMaxPatterns
)

// Detection engine choices.
const (
	// SQLDetection runs the two generated SQL queries per CFD (the
	// paper's technique).
	SQLDetection = core.SQLDetection
	// ParallelDetection is ColumnarDetection with its per-CFD passes
	// fanned over all CPU cores; the report is identical to
	// SQLDetection's. Tune the goroutine count with System.SetWorkers.
	ParallelDetection = core.ParallelDetection
	// ColumnarDetection runs the sequential columnar-snapshot scan with
	// dictionary-code group keys; the report is identical to
	// SQLDetection's.
	ColumnarDetection = core.ColumnarDetection
)

// NewTracker starts incremental detection over a table.
func NewTracker(tab *Table, cfds []*CFD) (*Tracker, error) {
	return detect.NewTracker(tab, cfds)
}

// Static analysis.
type (
	// ConsistencyReport is the satisfiability verdict for a CFD set.
	ConsistencyReport = consistency.Report
	// Domains declares finite attribute domains for the analysis.
	Domains = consistency.Domains
)

// CheckConsistency decides satisfiability of a CFD set over a schema.
func CheckConsistency(sc *Schema, cfds []*CFD, domains Domains) (*ConsistencyReport, error) {
	return consistency.Check(sc, cfds, domains)
}

// Audit, exploration, repair, monitoring, discovery.
type (
	// QualityReport is the audit result: verified/probably/arguably clean
	// classification, per-attribute bars, violation pie and statistics.
	QualityReport = audit.Report
	// Explorer answers the Fig. 2 drill-down and Fig. 3 quality map.
	Explorer = explore.Explorer
	// RepairResult is a candidate repair with its modifications.
	RepairResult = repair.Result
	// Modification is one repaired cell with ranked alternatives.
	Modification = repair.Modification
	// Monitor watches updates and keeps quality from degrading.
	Monitor = monitor.Monitor
	// MonitorUpdate is one element of a monitored update batch.
	MonitorUpdate = monitor.Update
	// DiscoveryOptions tunes CFD mining from reference data.
	DiscoveryOptions = discovery.Options
	// DiscoveryReport is the result of System.Discover: the mined CFD set
	// plus every candidate's support and confidence, stamped with the
	// snapshot version the rules were mined from.
	DiscoveryReport = discovery.Report
	// DiscoveryCandidate is one mined pattern with its evidence.
	DiscoveryCandidate = discovery.Candidate
	// GeneratorConfig configures the synthetic customer-data generator.
	GeneratorConfig = datagen.Config
	// Dataset is a generated clean/dirty pair with ground truth.
	Dataset = datagen.Dataset
)

// Monitor update kinds.
const (
	OpInsert = monitor.OpInsert
	OpDelete = monitor.OpDelete
	OpSet    = monitor.OpSet
)

// Sentinel errors, for errors.Is. The session's write API
// (System.Insert/Delete/SetCell/ApplyUpdates) routes writes through a
// table's active monitor when one exists; while a monitor is being
// (re)started the write path refuses with ErrMonitorBusy instead of racing
// the tracker handover, and ApplyUpdates without a monitor returns
// ErrNoMonitor. Every request naming an unregistered table returns
// ErrNoTable, one over a table without constraints ErrNoCFDs, and a
// WithCFDs id that names none of them ErrUnknownCFD. ApplyPendingRepair
// with no candidate repair on the table returns ErrNoPendingRepair.
var (
	ErrMonitorBusy     = core.ErrMonitorBusy
	ErrNoMonitor       = core.ErrNoMonitor
	ErrNoTable         = core.ErrNoTable
	ErrNoCFDs          = core.ErrNoCFDs
	ErrUnknownCFD      = core.ErrUnknownCFD
	ErrNoPendingRepair = core.ErrNoPendingRepair
)

// GenerateCustomers builds the synthetic customer workload used by the
// examples and benches (deterministic; optional injected noise).
func GenerateCustomers(cfg GeneratorConfig) *Dataset { return datagen.Generate(cfg) }

// StandardCFDs returns the paper's running-example constraint set for the
// generated customer schema.
func StandardCFDs() []*CFD { return datagen.StandardCFDs() }
