// Package core wires Semandaq's components (Fig. 1 of the paper) into one
// facade: a store of relational tables, the constraint engine with its
// static analysis, the SQL-based error detector, the data auditor, the data
// cleanser, the data monitor and the data explorer. The CLI, the HTTP
// server, the examples and the benches all drive this type.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"slices"
	"sort"
	"strings"
	"sync"

	"semandaq/internal/audit"
	"semandaq/internal/cfd"
	"semandaq/internal/consistency"
	"semandaq/internal/detect"
	"semandaq/internal/discovery"
	"semandaq/internal/explore"
	"semandaq/internal/lockcheck"
	"semandaq/internal/monitor"
	"semandaq/internal/relstore"
	"semandaq/internal/repair"
	"semandaq/internal/types"
)

// ErrMonitorBusy is returned by the mutation API and ActiveMonitor while a
// monitor for the table is being started or replaced: the new tracker is
// seeding from a snapshot, and neither direct writes nor updates to the
// outgoing monitor can be admitted without desynchronizing it. Callers
// should retry shortly (the HTTP layer maps it to 409 Conflict).
var ErrMonitorBusy = errors.New("semandaq: monitor is being (re)started; retry shortly")

// ErrNoMonitor is returned by ApplyUpdates when the table has no active
// monitor.
var ErrNoMonitor = errors.New("semandaq: no active monitor for table")

// The request errors a caller may need to tell apart (the HTTP layer maps
// them to 404, 409 and 400): the named table is not registered, the table
// has no constraints to evaluate yet, a WithCFDs id names none of them.
var (
	ErrNoTable    = errors.New("semandaq: no table")
	ErrNoCFDs     = errors.New("semandaq: no CFDs registered")
	ErrUnknownCFD = errors.New("semandaq: no CFD")
)

// ErrNoPendingRepair is returned by ApplyPendingRepair when the table's
// record holds no candidate repair: none was computed on this instance of
// the table, or it was applied (the HTTP layer maps it to 409).
var ErrNoPendingRepair = errors.New("semandaq: no pending repair")

// Semandaq is one data-quality session over a catalog of tables.
type Semandaq struct {
	mu lockcheck.Mutex[Semandaq]
	// tables is the catalog: one record per registered table, by
	// lowercased name.
	tables map[string]*tableState
	// workers is the ParallelDetection worker count; 0 means GOMAXPROCS.
	workers int
}

// tableState is the session's record of one registered table instance:
// the paper's per-relation state (its CFDs, its monitor, its detection
// results, its candidate repair) and the table itself. Registering a table
// installs a fresh record, so nothing bound to a replaced instance — its
// monitor, cached reports, discovery session, pending repair — can serve
// the new one.
type tableState struct {
	tab *relstore.Table
	// gate serializes the session's mutations of the table: a write reads
	// the monitor (and takes the pending repair it applies) and lands,
	// directly or through the monitor's tracker, while holding it, and
	// starting a monitor sets starting under it, so no write can slip
	// between the snapshot a new tracker seeds from and the moment it
	// takes over. A reload's record inherits the gate.
	gate *lockcheck.Mutex[tableGate]

	// The rest is read and written under Semandaq.mu.

	// cfds is the registered constraint set. It is replaced as a whole,
	// never edited in place, so a request may share it.
	cfds []*cfd.CFD
	// monitor is the active data monitor (nil: none); starting marks a
	// monitor being started, when mutations are refused (ErrMonitorBusy).
	monitor  *monitor.Monitor
	starting bool
	// version and entries are the report cache: the detections of one
	// table version under cfds, one entry per report producer (cacheKind).
	// A fill for a newer version drops the older one's entries, so a
	// superseded report — and the columnar snapshot it pins — becomes
	// collectable as soon as its readers let go.
	version int64
	entries map[DetectorKind]*reportEntry
	// discovery serves the previous mining run's report while the
	// table's version holds; made on first use.
	discovery *discovery.Session
	// pending holds the modifications of the candidate repair Repair last
	// computed on this instance, for ApplyPendingRepair (nil: none; a
	// repair with no modifications is pending too); not the result, whose
	// working table would stay alive until applied.
	pending *[]repair.Modification
}

// tableGate is the lock class of the per-table mutation gates.
type tableGate struct{}

// reportEntry is one detection result: the factorised report every engine
// and the monitor's tracker produce. Its flat form is exploded lazily,
// once, and only for callers that ask the facade for a *detect.Report; the
// detect endpoint, the audit and the explorer (also built once, lazily)
// never do.
type reportEntry struct {
	fr   *detect.FactorReport
	once sync.Once
	rep  *detect.Report

	exOnce sync.Once
	ex     *explore.Explorer
	exErr  error
}

// flat returns the entry's flat report, exploded on first use.
func (e *reportEntry) flat() *detect.Report {
	e.once.Do(func() { e.rep = e.fr.Explode() })
	return e.rep
}

// explorer returns the entry's explorer over snap, the snapshot of its
// version, building it on first use from the factorised report.
func (e *reportEntry) explorer(snap *relstore.Snapshot, cfds []*cfd.CFD) (*explore.Explorer, error) {
	e.exOnce.Do(func() {
		e.ex, e.exErr = explore.NewFactorised(snap, cfds, e.fr)
	})
	return e.ex, e.exErr
}

// digest returns the entry's wire digest with the violation count clipped
// to limit (0: unclipped), as limited() clips the flat report's records.
func (e *reportEntry) digest(limit int) *detect.Digest {
	d := e.fr.Digest()
	if limit > 0 {
		d.Violations = min(d.Violations, limit)
	}
	return d
}

// cacheKind maps an engine kind to its report producer: the columnar and
// parallel kinds run the same factorised core with a worker-independent
// result, so they share one cache entry.
func cacheKind(kind DetectorKind) DetectorKind {
	if kind == ParallelDetection {
		return ColumnarDetection
	}
	return kind
}

// cachedEntry returns st's cached entry for the kind at exactly the given
// version, when st's constraint set is still cfds.
func (s *Semandaq) cachedEntry(st *tableState, cfds []*cfd.CFD, kind DetectorKind, version int64) (*reportEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st.entries == nil || st.version != version || !sameCFDSet(st.cfds, cfds) {
		return nil, false
	}
	e, ok := st.entries[cacheKind(kind)]
	return e, ok
}

// cacheEntry stores e as st's report at version for the kinds, superseding
// entries of older versions. It lands only while cfds is still st's set: a
// detection that resolved a replaced set is dropped, as is one that lost
// the race to a newer version. A fill into a replaced record lands where no
// later request looks, since every request resolves the current record.
func (s *Semandaq) cacheEntry(st *tableState, cfds []*cfd.CFD, version int64, e *reportEntry, kinds ...DetectorKind) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !sameCFDSet(st.cfds, cfds) || version < st.version {
		return
	}
	if st.entries == nil || st.version < version {
		st.version, st.entries = version, map[DetectorKind]*reportEntry{}
	}
	for _, kind := range kinds {
		st.entries[cacheKind(kind)] = e
	}
}

// New creates a Semandaq instance with no tables.
func New() *Semandaq { return &Semandaq{tables: map[string]*tableState{}} }

// SetWorkers sets the goroutine count ParallelDetection uses; n <= 0 —
// zero included — resets to the default (runtime.GOMAXPROCS). The
// detection result does not depend on the worker count, so cached reports
// stay valid.
func (s *Semandaq) SetWorkers(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 {
		n = 0
	}
	s.workers = n
}

// Workers returns the configured ParallelDetection worker count; 0 means
// the GOMAXPROCS default.
func (s *Semandaq) Workers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.workers
}

// LoadCSV reads a CSV stream into a new table.
func (s *Semandaq) LoadCSV(name string, r io.Reader) (*relstore.Table, error) {
	tab, err := relstore.ReadCSV(name, r)
	if err != nil {
		return nil, err
	}
	s.RegisterTable(tab)
	return tab, nil
}

// RegisterTable adds an existing table to the session, replacing any table
// of the same name. It installs a fresh record: the replaced instance's
// monitor, cached reports and discovery session stay with its record — a
// monitor left in place would keep routing writes into the orphaned old
// table, and a cached report could alias the new table's version counter.
// Of the replaced table's constraints, exactly those that still validate
// against the new schema stay registered (all of them, the same pointers,
// on a same-schema reload); one naming a column the new table lacks would
// fail every later request, RegisterCFDs included.
func (s *Semandaq) RegisterTable(tab *relstore.Table) {
	key := strings.ToLower(tab.Schema().Name)
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &tableState{tab: tab, gate: &lockcheck.Mutex[tableGate]{}}
	if old := s.tables[key]; old != nil {
		st.gate = old.gate
		st.cfds = slices.DeleteFunc(slices.Clone(old.cfds), func(c *cfd.CFD) bool { return c.Validate(tab.Schema()) != nil })
	}
	s.tables[key] = st
}

// record returns the table's current record and its constraint set, read
// together.
func (s *Semandaq) record(name string) (*tableState, []*cfd.CFD, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.tables[strings.ToLower(name)]
	if st == nil {
		return nil, nil, fmt.Errorf("%w %q", ErrNoTable, name)
	}
	return st, st.cfds, nil
}

// Table returns a registered table.
func (s *Semandaq) Table(name string) (*relstore.Table, error) {
	st, _, err := s.record(name)
	if err != nil {
		return nil, err
	}
	return st.tab, nil
}

// Tables lists the registered table names.
func (s *Semandaq) Tables() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, st := range s.tables {
		out = append(out, st.tab.Schema().Name)
	}
	sort.Strings(out)
	return out
}

// RegisterCFDs attaches constraints to a table after validating them
// against its schema and checking the whole resulting set for
// satisfiability — the constraint engine's "does this make sense" gate.
// On an unsatisfiable set nothing is registered and the conflict is
// returned inside the error. The new set and an empty report cache are
// swapped in together.
func (s *Semandaq) RegisterCFDs(table string, cfds []*cfd.CFD) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.tables[strings.ToLower(table)]
	if st == nil {
		return fmt.Errorf("%w %q", ErrNoTable, table)
	}
	for _, c := range cfds {
		if err := c.Validate(st.tab.Schema()); err != nil {
			return err
		}
		if c.Table == "" {
			c.Table = st.tab.Schema().Name
		}
	}
	all := append(slices.Clip(st.cfds), cfds...)
	rep, err := consistency.Check(st.tab.Schema(), all, nil)
	if err != nil {
		return err
	}
	if !rep.Satisfiable {
		return fmt.Errorf("semandaq: CFD set for %s is unsatisfiable: %s", table, rep.Conflict)
	}
	st.cfds, st.entries = all, nil
	return nil
}

// RegisterCFDText parses the text CFD syntax and registers the result.
func (s *Semandaq) RegisterCFDText(table, text string) ([]*cfd.CFD, error) {
	cfds, err := cfd.ParseSet(text)
	if err != nil {
		return nil, err
	}
	if err := s.RegisterCFDs(table, cfds); err != nil {
		return nil, err
	}
	return cfds, nil
}

// CFDs returns a copy of the constraints registered for a table.
func (s *Semandaq) CFDs(table string) []*cfd.CFD {
	_, cfds, _ := s.record(table)
	return append([]*cfd.CFD{}, cfds...)
}

// CheckConsistency re-runs the satisfiability analysis, optionally with
// finite attribute domains.
func (s *Semandaq) CheckConsistency(table string, domains consistency.Domains) (*consistency.Report, error) {
	st, cfds, err := s.record(table)
	if err != nil {
		return nil, err
	}
	return consistency.Check(st.tab.Schema(), cfds, domains)
}

// DetectorKind selects the detection implementation. It aliases
// internal/detect's engine kind; detect.NewDetector does the dispatch.
type DetectorKind = detect.EngineKind

// The available detectors.
const (
	// SQLDetection generates and runs the two SQL queries per CFD (the
	// paper's technique).
	SQLDetection = detect.SQLEngine
	// ParallelDetection is ColumnarDetection with the per-CFD passes
	// fanned over runtime.GOMAXPROCS workers; same report, same cache entry.
	ParallelDetection = detect.ParallelEngine
	// ColumnarDetection runs the factorised evaluation over the table's
	// columnar snapshot (dictionary-code matching, Equal-class grouping);
	// the report is identical to SQLDetection's.
	ColumnarDetection = detect.ColumnarEngine
)

// DefaultEngine is the engine blocking requests use when WithEngine is not
// given: the single-worker columnar evaluation.
const DefaultEngine = ColumnarDetection

// ParseDetectorKind maps the CLI/HTTP engine names ("sql", "parallel",
// "columnar", and "native" as an alias of "columnar") to a DetectorKind.
func ParseDetectorKind(s string) (DetectorKind, error) {
	return detect.ParseEngineKind(s)
}

// requestCFDs resolves a request's table record and its constraints,
// applying the WithCFDs scoping in registration order. An unscoped request
// shares the record's set.
func (s *Semandaq) requestCFDs(table string, o requestOptions) (*tableState, []*cfd.CFD, error) {
	st, cfds, err := s.record(table)
	if err != nil {
		return nil, nil, err
	}
	if len(cfds) == 0 {
		return nil, nil, fmt.Errorf("%w for %s", ErrNoCFDs, table)
	}
	if len(o.cfdIDs) > 0 {
		want := make(map[string]bool, len(o.cfdIDs))
		for _, id := range o.cfdIDs {
			want[id] = true
		}
		scoped := cfds[:0:0]
		for _, c := range cfds {
			if want[c.ID] {
				scoped = append(scoped, c)
				delete(want, c.ID)
			}
		}
		if len(want) > 0 {
			missing := make([]string, 0, len(want))
			for id := range want {
				missing = append(missing, id)
			}
			sort.Strings(missing)
			return nil, nil, fmt.Errorf("%w %s registered for %s", ErrUnknownCFD, strings.Join(missing, ", "), table)
		}
		cfds = scoped
	}
	return st, cfds, nil
}

// sameCFDSet reports whether two sets hold exactly the same constraint
// instances, in registration order: a monitor's or a cached report's and a
// request's. Pointer identity is the right test: RegisterCFDs hands the
// record, the monitor and the request the same *cfd.CFD values, and any
// re-registration creates new ones.
func sameCFDSet(a, b []*cfd.CFD) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// limited returns rep with its violation records truncated to k (k <= 0:
// unchanged). The truncation is a shallow copy with the slice capacity
// clipped, so neither mutation nor append through the returned report can
// reach the cached full report; vio(t) and the per-CFD statistics still
// describe the full scan.
func limited(rep *detect.Report, k int) *detect.Report {
	if k <= 0 || len(rep.Violations) <= k {
		return rep
	}
	out := *rep
	out.Violations = rep.Violations[:k:k]
	return &out
}

// Detect runs violation detection on a table with its registered CFDs:
//
//	rep, err := s.Detect(ctx, "customer",
//	    core.WithEngine(core.ParallelDetection), core.WithWorkers(8))
//
// Without options it uses DefaultEngine, every registered CFD and the
// session's worker count. A cancelled ctx aborts the scan mid-flight and
// returns ctx.Err(). Unscoped reports are cached until the table changes;
// WithCFDs-scoped requests bypass the cache. The columnar kinds compute and
// cache the factorised report; Detect explodes it to the flat form on
// first use — callers that only need totals and vio(t) should take
// DetectDigest, which never does.
func (s *Semandaq) Detect(ctx context.Context, table string, opts ...Option) (*detect.Report, error) {
	o := s.resolve(DefaultEngine, opts)
	e, _, _, err := s.detectRequest(ctx, table, o)
	if err != nil {
		return nil, err
	}
	return limited(e.flat(), o.limit), nil
}

// DetectDigest is Detect for callers that put the result on the wire (the
// detect endpoint): same options, scoping, cache, monitor fast path and
// version pinning, but the result is the report's digest — totals, per-CFD
// statistics and vio(t) — taken straight from whichever form the producer
// built, so a factorised report is never exploded for it. WithLimit clips
// Digest.Violations as it clips Detect's records.
func (s *Semandaq) DetectDigest(ctx context.Context, table string, opts ...Option) (*detect.Digest, error) {
	o := s.resolve(DefaultEngine, opts)
	e, _, _, err := s.detectRequest(ctx, table, o)
	if err != nil {
		return nil, err
	}
	return e.digest(o.limit), nil
}

// detectRequest scopes the request's constraints, pins the table's current
// snapshot and detects over it. Audit and Explore drive their own scans
// from the returned snapshot, which makes the report and those scans
// consistent by construction.
func (s *Semandaq) detectRequest(ctx context.Context, table string, o requestOptions) (*reportEntry, *relstore.Snapshot, []*cfd.CFD, error) {
	st, cfds, err := s.requestCFDs(table, o)
	if err != nil {
		return nil, nil, nil, err
	}
	snap := st.tab.Snapshot()
	e, err := s.detectEntry(ctx, st, snap, cfds, o)
	return e, snap, cfds, err
}

// detectEntry is detection after option resolution and CFD scoping: cache
// lookup, engine dispatch, cache fill, all on the record the request
// resolved. The whole evaluation runs over the given pinned snapshot of
// st's table, so the returned entry reflects exactly snap.Version() (and
// says so in its report's Version). Only complete results are cached: a
// cancelled run leaves no entry behind.
func (s *Semandaq) detectEntry(ctx context.Context, st *tableState, snap *relstore.Snapshot,
	cfds []*cfd.CFD, o requestOptions) (*reportEntry, error) {
	cacheable := len(o.cfdIDs) == 0
	if cacheable {
		if e, ok := s.cachedEntry(st, cfds, o.kind, snap.Version()); ok {
			return e, nil
		}
		// Incremental-first serving: when the table's active monitor tracks
		// exactly the requested constraints, its tracker has maintained the
		// violation state in O(delta) per write, and its factorised report
		// is identical to a batch detection's (the mutation cross-check
		// tier). Its edge narrows as dirt accumulates, since it assembles
		// every violating group's rows from the tracked ids by binary
		// search: on the 10 000-row datagen table (fastest of five runs) it
		// took 0.12 ms against a factorised detection's 0.48 ms after one
		// steward-sized batch of typos and flips (494 dirty tuples), and
		// 1.2 ms against 1.4 ms after twelve (3 311). Served only when
		// the tracker's version matches the pinned snapshot's, so a racing
		// write falls through to the batch engine instead of answering for
		// the wrong version. The report does not depend on the engine, so it
		// is cached for every kind.
		if m, err := s.monitorOf(st); err == nil && m != nil && sameCFDSet(m.CFDs(), cfds) {
			if fr, ok := m.FactorReport(snap); ok {
				e := &reportEntry{fr: fr}
				s.cacheEntry(st, cfds, fr.Version, e, detect.EngineKinds()...)
				return e, nil
			}
		}
	}
	// The SQL engine reads only what its run pins: the snapshot and the
	// tableaux, so it needs no store.
	det, err := detect.NewDetector(o.kind, detect.Config{Workers: o.workers})
	if err != nil {
		return nil, err
	}
	// Every engine kind evaluates a pinned snapshot to the factorised report.
	fr, err := det.DetectFactorised(ctx, snap, cfds)
	if err != nil {
		return nil, err
	}
	e := &reportEntry{fr: fr}
	if cacheable {
		s.cacheEntry(st, cfds, snap.Version(), e, o.kind)
	}
	return e, nil
}

// DetectStream yields the violation records of Detect's report, in its
// canonical (tuple, CFD, kind, pattern) order: the same options, scoping,
// cache, monitor fast path and version pinning as Detect, read one record
// at a time from the factorised report, so a stream of a version just read
// (or of a monitored table) starts at once and none is ever exploded.
// WithLimit stops it after k records; breaking out of the loop ends it, and
// a done ctx ends it with ctx.Err().
func (s *Semandaq) DetectStream(ctx context.Context, table string, opts ...Option) iter.Seq2[detect.Violation, error] {
	return func(yield func(detect.Violation, error) bool) {
		seq, _, err := s.DetectStreamVersion(ctx, table, opts...)
		if err != nil {
			yield(detect.Violation{}, err)
			return
		}
		for v, err := range seq {
			if !yield(v, err) {
				return
			}
		}
	}
}

// DetectStreamVersion is DetectStream with the pinned table version
// surfaced, so callers relaying violations (the NDJSON endpoint) can stamp
// their output with it. Request and detection errors are returned eagerly:
// the stream reads a finished report, and its only error is a done ctx,
// polled per record.
func (s *Semandaq) DetectStreamVersion(ctx context.Context, table string, opts ...Option) (iter.Seq2[detect.Violation, error], int64, error) {
	o := s.resolve(DefaultEngine, opts)
	e, _, _, err := s.detectRequest(ctx, table, o)
	if err != nil {
		return nil, 0, err
	}
	seq := func(yield func(detect.Violation, error) bool) {
		n := 0
		for v := range e.fr.Records() {
			if err := ctx.Err(); err != nil {
				yield(detect.Violation{}, err)
				return
			}
			if !yield(v, nil) {
				return
			}
			if n++; o.limit > 0 && n >= o.limit {
				return
			}
		}
	}
	return seq, e.fr.Version, nil
}

// DetectionSQL returns the SQL statements Detect would generate (the
// explain view of the error detector).
func (s *Semandaq) DetectionSQL(table string) ([]string, error) {
	st, cfds, err := s.requestCFDs(table, requestOptions{})
	if err != nil {
		return nil, err
	}
	return detect.GenerateSQL(st.tab, cfds)
}

// Audit produces the data quality report (detecting first if needed). The
// classification scan and the detection run over one pinned snapshot, so
// the audit is single-version consistent even under concurrent writers.
// WithEngine/WithWorkers/WithCFDs select how and over which constraints;
// WithLimit is ignored — the audit needs the full violation set.
func (s *Semandaq) Audit(ctx context.Context, table string, opts ...Option) (*audit.Report, error) {
	e, snap, cfds, err := s.detectRequest(ctx, table, s.resolve(DefaultEngine, opts))
	if err != nil {
		return nil, err
	}
	return audit.AuditFactorised(snap, cfds, e.fr)
}

// Explore returns the drill-down explorer over the current detection state,
// one per cached report. It always detects with DefaultEngine, whose entry
// is factorised, so the explorer never needs a flat report. The explorer's
// scans and the report it drills into
// share one pinned snapshot, so every level reflects the same version.
func (s *Semandaq) Explore(ctx context.Context, table string) (*explore.Explorer, error) {
	e, snap, cfds, err := s.detectRequest(ctx, table, s.resolve(DefaultEngine, nil))
	if err != nil {
		return nil, err
	}
	return e.explorer(snap, cfds)
}

// Repair computes a candidate repair (the original table is not modified;
// review, then ApplyPendingRepair or ApplyRepair). Its modifications become
// the pending repair of the table instance it read, replacing any earlier
// one; a reload installs a record with none. WithCFDs scopes the
// constraints being repaired; a cancelled ctx aborts the repairer's
// detect-resolve passes and leaves the pending repair as it was. The
// repairer's first pass reads the default engine's report of the version
// it clones, which a read of that version has usually cached.
func (s *Semandaq) Repair(ctx context.Context, table string, opts ...Option) (*repair.Result, error) {
	o := s.resolve(DefaultEngine, opts)
	st, cfds, err := s.requestCFDs(table, o)
	if err != nil {
		return nil, err
	}
	e, err := s.detectEntry(ctx, st, st.tab.Snapshot(), cfds, o)
	if err != nil {
		return nil, err
	}
	res, err := repair.NewRepairer().RepairFrom(ctx, st.tab, cfds, e.fr)
	if err != nil {
		return nil, err
	}
	mods := res.Modifications
	s.mu.Lock()
	st.pending = &mods
	s.mu.Unlock()
	return res, nil
}

// ApplyRepair commits reviewed modifications to the live table, as one
// update batch on the session's write path (see write). The modifications
// repair.Fresh finds stale under the table's gate are skipped and
// reported; the rest land, and with a monitor active its tracker follows
// them and, in cleansed mode, its incremental repair runs once, after the
// whole batch. Returns ErrMonitorBusy while a monitor is being
// (re)started.
func (s *Semandaq) ApplyRepair(table string, mods []repair.Modification) (int, []repair.Modification, error) {
	return s.applyReviewed(table, func(*tableState) ([]repair.Modification, error) { return mods, nil })
}

// ApplyPendingRepair is ApplyRepair of the table's pending repair: the
// modifications Repair last computed on the table instance the write
// resolves, taken from its record under the gate. It returns
// ErrNoPendingRepair when there are none, so a repair reviewed on a table
// that a reload has since replaced applies to nothing. A pending repair is
// consumed once taken; ErrMonitorBusy comes first and leaves it pending.
func (s *Semandaq) ApplyPendingRepair(table string) (int, []repair.Modification, error) {
	return s.applyReviewed(table, func(st *tableState) ([]repair.Modification, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		p := st.pending
		if p == nil {
			return nil, fmt.Errorf("%w for %s", ErrNoPendingRepair, table)
		}
		st.pending = nil
		return *p, nil
	})
}

// applyReviewed lands, as one batch, the reviewed modifications take
// returns under the table's gate that are still fresh, and returns how
// many landed and the stale rest.
func (s *Semandaq) applyReviewed(table string, take func(st *tableState) ([]repair.Modification, error)) (int, []repair.Modification, error) {
	var fresh, stale []repair.Modification
	_, err := s.write(table, nil, nil, func(st *tableState, _ *monitor.Monitor) ([]monitor.Update, error) {
		mods, err := take(st)
		if err != nil {
			return nil, err
		}
		fresh, stale = repair.Fresh(st.tab.Snapshot(), mods)
		batch := make([]monitor.Update, len(fresh))
		for i, mod := range fresh {
			batch[i] = monitor.Update{Op: monitor.OpSet, ID: mod.TupleID, Attr: mod.Attr, Value: mod.New}
		}
		return batch, nil
	})
	if err != nil {
		return 0, nil, err
	}
	return len(fresh), stale, nil
}

// Monitor starts a data monitor on the table and registers it as the
// table's active monitor: from then on the session's mutation API (Insert,
// Delete, SetCell, ApplyUpdates) routes writes through it, keeping
// incremental detection in sync with the data. Starting a monitor where
// one is already active replaces it; while the replacement's tracker is
// seeding, mutations and ActiveMonitor return ErrMonitorBusy instead of
// racing the handover. WithCleansed(true) selects incremental repair over
// incremental detection; WithCFDs scopes the monitored constraints. A done
// ctx prevents the monitor from starting. The tracker's seed is the one served
// row-scale pass that polls no context: monitor.New takes none.
func (s *Semandaq) Monitor(ctx context.Context, table string, opts ...Option) (*monitor.Monitor, error) {
	o := s.resolve(DefaultEngine, opts)
	st, cfds, err := s.requestCFDs(table, o)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Set the starting flag under the table's mutation gate: in-flight
	// writes finish first, later writes see the flag and back off, so the
	// snapshot the new tracker seeds from cannot miss a concurrent write.
	st.gate.Lock()
	s.mu.Lock()
	busy := st.starting
	st.starting = true
	s.mu.Unlock()
	st.gate.Unlock()
	if busy {
		return nil, ErrMonitorBusy
	}
	defer func() {
		s.mu.Lock()
		st.starting = false
		s.mu.Unlock()
	}()
	m, err := monitor.New(st.tab, cfds, o.cleansed)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tables[strings.ToLower(table)] != st {
		return nil, fmt.Errorf("semandaq: table %q was replaced while its monitor was starting", table)
	}
	st.monitor = m
	return m, nil
}

// ActiveMonitor returns the table's registered monitor, or nil when none
// has been started, and ErrNoTable for a table that is not registered.
// While a monitor is being started or replaced it returns ErrMonitorBusy:
// the outgoing monitor is about to be detached and updates routed to it
// would be lost to the replacement's tracker.
func (s *Semandaq) ActiveMonitor(table string) (*monitor.Monitor, error) {
	st, _, err := s.record(table)
	if err != nil {
		return nil, err
	}
	return s.monitorOf(st)
}

// monitorOf is ActiveMonitor on a record.
func (s *Semandaq) monitorOf(st *tableState) (*monitor.Monitor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st.starting {
		return nil, ErrMonitorBusy
	}
	return st.monitor, nil
}

// StopMonitor detaches the table's active monitor; it reports whether one
// was registered. Subsequent mutations write the table directly.
func (s *Semandaq) StopMonitor(table string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.tables[strings.ToLower(table)]
	if st == nil || st.monitor == nil {
		return false
	}
	st.monitor = nil
	return true
}

// ApplyUpdates runs one update batch through the table's active monitor,
// on the session's write path (see write). It returns ErrNoMonitor when
// none is registered and ErrMonitorBusy while a monitor is being
// (re)started.
func (s *Semandaq) ApplyUpdates(table string, batch []monitor.Update) (*monitor.BatchResult, error) {
	res, err := s.write(table, nil, nil, func(_ *tableState, m *monitor.Monitor) ([]monitor.Update, error) {
		if m == nil {
			return nil, ErrNoMonitor
		}
		return batch, nil
	})
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// Insert appends a row to the table, a batch of one on the session's write
// path (see write): with a monitor active, incremental detection sees the
// row at once. It returns the new tuple's ID and the table version after
// the write.
func (s *Semandaq) Insert(table string, row relstore.Tuple) (relstore.TupleID, int64, error) {
	var id [1]relstore.TupleID
	res, err := s.write(table, []monitor.Update{{Op: monitor.OpInsert, Row: row}}, id[:0], nil)
	if err != nil {
		return 0, 0, err
	}
	return res.Inserted[0], res.Version, nil
}

// Delete removes the tuple, a batch of one on the session's write path
// (see Insert). It returns the table version after the write.
func (s *Semandaq) Delete(table string, id relstore.TupleID) (int64, error) {
	res, err := s.write(table, []monitor.Update{{Op: monitor.OpDelete, ID: id}}, nil, nil)
	return res.Version, err
}

// SetCell updates one attribute of a tuple, a batch of one on the
// session's write path (see Insert). It returns the table version after
// the write.
func (s *Semandaq) SetCell(table string, id relstore.TupleID, attr string, v types.Value) (int64, error) {
	res, err := s.write(table, []monitor.Update{{Op: monitor.OpSet, ID: id, Attr: attr, Value: v}}, nil, nil)
	return res.Version, err
}

// write is the session's one write path: Insert, Delete, SetCell,
// ApplyUpdates and both repair applies land here. It resolves the table's
// current record and takes the record's mutation gate, which serializes
// the write against the session's others, then lands batch — or, when
// prep is set, the batch prep makes under the gate from the record and its
// active monitor (nil: none). With a monitor the batch goes through
// Monitor.Apply, which validates it; without one it is validated by the
// same monitor.Validate and written to the table update by update, the
// IDs it inserts appended to ids (whose capacity spares an allocation).
// Either way a batch with a bad update changes nothing. Refused with
// ErrMonitorBusy while a monitor is being (re)started.
func (s *Semandaq) write(table string, batch []monitor.Update, ids []relstore.TupleID,
	prep func(st *tableState, m *monitor.Monitor) ([]monitor.Update, error)) (monitor.BatchResult, error) {
	st, _, err := s.record(table)
	if err != nil {
		return monitor.BatchResult{}, err
	}
	st.gate.Lock()
	defer st.gate.Unlock()
	m, err := s.monitorOf(st)
	if err != nil {
		return monitor.BatchResult{}, err
	}
	if prep != nil {
		if batch, err = prep(st, m); err != nil {
			return monitor.BatchResult{}, err
		}
	}
	if m != nil {
		res, err := m.Apply(batch)
		if err != nil {
			return monitor.BatchResult{}, err
		}
		return *res, nil
	}
	tab := st.tab
	if err := monitor.Validate(tab, batch); err != nil {
		return monitor.BatchResult{}, err
	}
	for _, u := range batch {
		switch u.Op {
		case monitor.OpInsert:
			var id relstore.TupleID
			id, err = tab.Insert(u.Row)
			ids = append(ids, id)
		case monitor.OpDelete:
			tab.Delete(u.ID) // live: validated under the gate
		case monitor.OpSet:
			_, err = tab.SetCell(u.ID, tab.Schema().MustPos(u.Attr), u.Value)
		}
		if err != nil {
			return monitor.BatchResult{}, err
		}
	}
	return monitor.BatchResult{Inserted: ids, Version: tab.Version()}, nil
}

// Discover mines constraints from a reference table with the PLI lattice
// miner:
//
//	rep, err := s.Discover(ctx, "customer",
//	    core.WithMinSupport(100), core.WithMaxLHS(3), core.WithWorkers(8))
//
// The search runs over one pinned snapshot of the table and the returned
// discovery.Report carries that snapshot's version alongside every mined
// candidate's support and confidence. No constraint is registered — inspect
// the report and RegisterCFDs explicitly. WithMinConfidence below 1 admits
// approximate CFDs; WithWorkers tunes the per-level parallel expansion
// (defaulting to the session's worker count).
// A cancelled ctx aborts the search mid-level and returns ctx.Err().
func (s *Semandaq) Discover(ctx context.Context, refTable string, opts ...Option) (*discovery.Report, error) {
	o := s.resolve(DefaultEngine, opts)
	st, _, err := s.record(refTable)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if st.discovery == nil {
		st.discovery = discovery.NewSession(st.tab)
	}
	sess := st.discovery
	s.mu.Unlock()
	// Route through the table's discovery session, which answers an
	// unchanged version without mining at all. The report is identical to
	// a cold Mine over the same snapshot (the discovery cross-check tier).
	// The returned report may be served again while the version holds;
	// treat it as immutable.
	return sess.Discover(ctx, discovery.Options{
		MinSupport:       o.minSupport,
		MaxLHS:           o.maxLHS,
		MaxPatternsPerFD: o.maxPatterns,
		MinConfidence:    o.minConfidence,
		Workers:          o.workers,
	})
}
