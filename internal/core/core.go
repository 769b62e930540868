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

// Semandaq is one data-quality session over a store of tables.
type Semandaq struct {
	mu    lockcheck.Mutex[Semandaq]
	store *relstore.Store
	// cfds maps lowercased table name to its registered constraints.
	cfds map[string][]*cfd.CFD
	// reports caches the last detection per table (lowercased name): one
	// table version at a time, one entry per report producer.
	reports map[string]*tableReports
	// workers is the ParallelDetection worker count; 0 means GOMAXPROCS.
	workers int
	// monitors holds the active data monitor per table (lowercased name):
	// the session's mutation API routes writes through it so incremental
	// detection stays in sync with the data.
	monitors map[string]*monitor.Monitor
	// monitorBusy marks tables whose monitor is currently being started or
	// replaced; mutations are refused (ErrMonitorBusy) until seeding ends.
	monitorBusy map[string]bool
	// gates serializes the session's mutations per table: a write checks
	// for an active monitor and lands (directly or through the monitor's
	// tracker) while holding the table's gate, and starting a monitor
	// flips monitorBusy under the same gate — so no write can slip
	// between the snapshot a new tracker seeds from and the moment it
	// takes over.
	gates map[string]*lockcheck.Mutex[tableGate]
	// sessions holds the discovery session per table (lowercased name):
	// Discover serves the previous run's report while the table's version
	// holds.
	sessions map[string]*tableSession
}

// tableSession binds a discovery session to the table instance it was
// created over, so a replaced table never serves the old session's report.
type tableSession struct {
	tab  *relstore.Table
	sess *discovery.Session
}

// tableReports is one table's report cache. It holds a single version:
// filling an entry for a newer version drops every entry of the older one,
// so a superseded report — and the columnar snapshot a factorised one pins
// — becomes collectable as soon as its readers let go.
type tableReports struct {
	version int64
	entries map[DetectorKind]*reportEntry // by cacheKind
}

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

// cachedEntry returns the table's cached entry for the kind at exactly the
// given version.
func (s *Semandaq) cachedEntry(key string, kind DetectorKind, version int64) (*reportEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tr := s.reports[key]
	if tr == nil || tr.version != version {
		return nil, false
	}
	e, ok := tr.entries[cacheKind(kind)]
	return e, ok
}

// cacheEntry stores e as the table's report for the kind at version,
// superseding entries of older versions. A fill that lost the race to a
// newer version is dropped instead of evicting it.
func (s *Semandaq) cacheEntry(key string, kind DetectorKind, version int64, e *reportEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tr := s.reports[key]
	if tr == nil || tr.version < version {
		tr = &tableReports{version: version, entries: map[DetectorKind]*reportEntry{}}
		s.reports[key] = tr
	}
	if tr.version == version {
		tr.entries[cacheKind(kind)] = e
	}
}

// New creates a Semandaq instance over an empty store.
func New() *Semandaq { return NewWithStore(relstore.NewStore()) }

// NewWithStore creates a Semandaq instance over an existing store.
func NewWithStore(store *relstore.Store) *Semandaq {
	return &Semandaq{
		store:       store,
		cfds:        map[string][]*cfd.CFD{},
		reports:     map[string]*tableReports{},
		monitors:    map[string]*monitor.Monitor{},
		monitorBusy: map[string]bool{},
		gates:       map[string]*lockcheck.Mutex[tableGate]{},
		sessions:    map[string]*tableSession{},
	}
}

// tableGate is the lock class of the per-table mutation gates.
type tableGate struct{}

// gate returns the per-table mutation gate, creating it on first use.
func (s *Semandaq) gate(key string) *lockcheck.Mutex[tableGate] {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.gates[key]
	if !ok {
		g = &lockcheck.Mutex[tableGate]{}
		s.gates[key] = g
	}
	return g
}

// Store exposes the underlying store.
func (s *Semandaq) Store() *relstore.Store { return s.store }

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
// of the same name. Per-table state bound to the replaced instance — its
// active monitor and cached reports — is detached: a monitor left
// registered would keep routing writes into the orphaned old table, and a
// cached report could alias the new table's version counter. Of the
// replaced table's constraints, exactly those that still validate against
// the new schema stay registered (all of them, the same pointers, on a
// same-schema reload); one naming a column the new table lacks would fail
// every later request, RegisterCFDs included.
func (s *Semandaq) RegisterTable(tab *relstore.Table) {
	key := strings.ToLower(tab.Schema().Name)
	g := s.gate(key)
	g.Lock()
	defer g.Unlock()
	s.store.Put(tab)
	s.mu.Lock()
	delete(s.monitors, key)
	delete(s.sessions, key)
	delete(s.reports, key)
	if cur := s.cfds[key]; len(cur) > 0 {
		s.cfds[key] = slices.DeleteFunc(cur, func(c *cfd.CFD) bool { return c.Validate(tab.Schema()) != nil })
	}
	s.mu.Unlock()
}

// Table returns a registered table.
func (s *Semandaq) Table(name string) (*relstore.Table, error) {
	tab, ok := s.store.Table(name)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrNoTable, name)
	}
	return tab, nil
}

// Tables lists the registered table names (excluding detection artifacts).
func (s *Semandaq) Tables() []string {
	var out []string
	for _, n := range s.store.Names() {
		if strings.HasPrefix(n, "_tp_") || strings.HasPrefix(n, "cfd_tp_") {
			continue
		}
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RegisterCFDs attaches constraints to a table after validating them
// against its schema and checking the whole resulting set for
// satisfiability — the constraint engine's "does this make sense" gate.
// On an unsatisfiable set nothing is registered and the conflict is
// returned inside the error.
func (s *Semandaq) RegisterCFDs(table string, cfds []*cfd.CFD) error {
	tab, err := s.Table(table)
	if err != nil {
		return err
	}
	for _, c := range cfds {
		if err := c.Validate(tab.Schema()); err != nil {
			return err
		}
		if c.Table == "" {
			c.Table = tab.Schema().Name
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToLower(table)
	all := append(append([]*cfd.CFD{}, s.cfds[key]...), cfds...)
	rep, err := consistency.Check(tab.Schema(), all, nil)
	if err != nil {
		return err
	}
	if !rep.Satisfiable {
		return fmt.Errorf("semandaq: CFD set for %s is unsatisfiable: %s", table, rep.Conflict)
	}
	s.cfds[key] = all
	delete(s.reports, key)
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

// CFDs returns the constraints registered for a table.
func (s *Semandaq) CFDs(table string) []*cfd.CFD {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*cfd.CFD{}, s.cfds[strings.ToLower(table)]...)
}

// CheckConsistency re-runs the satisfiability analysis, optionally with
// finite attribute domains.
func (s *Semandaq) CheckConsistency(table string, domains consistency.Domains) (*consistency.Report, error) {
	tab, err := s.Table(table)
	if err != nil {
		return nil, err
	}
	return consistency.Check(tab.Schema(), s.CFDs(table), domains)
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

// requestCFDs resolves a request's table and its constraints, applying the
// WithCFDs scoping in registration order.
func (s *Semandaq) requestCFDs(table string, o requestOptions) (*relstore.Table, []*cfd.CFD, error) {
	tab, err := s.Table(table)
	if err != nil {
		return nil, nil, err
	}
	cfds := s.CFDs(table)
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
	return tab, cfds, nil
}

// sameCFDSet reports whether the monitor tracks exactly the requested
// constraint instances, in registration order. Pointer identity is the
// right test: RegisterCFDs hands both the monitor and the request the same
// *cfd.CFD values, and any re-registration creates new ones.
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
	tab, cfds, err := s.requestCFDs(table, o)
	if err != nil {
		return nil, nil, nil, err
	}
	snap := tab.Snapshot()
	e, err := s.detectEntry(ctx, table, snap, cfds, o)
	return e, snap, cfds, err
}

// detectEntry is detection after option resolution and CFD scoping: cache
// lookup, engine dispatch, cache fill. The whole evaluation runs over the
// given pinned snapshot, so the returned entry reflects exactly
// snap.Version() (and says so in its report's Version). Only complete
// results are cached: a cancelled run leaves no entry behind.
func (s *Semandaq) detectEntry(ctx context.Context, table string, snap *relstore.Snapshot,
	cfds []*cfd.CFD, o requestOptions) (*reportEntry, error) {
	cacheable := len(o.cfdIDs) == 0
	key := strings.ToLower(table)
	if cacheable {
		if e, ok := s.cachedEntry(key, o.kind, snap.Version()); ok {
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
		if m, err := s.ActiveMonitor(table); err == nil && m != nil && sameCFDSet(m.CFDs(), cfds) {
			if fr, ok := m.FactorReport(snap); ok {
				e := &reportEntry{fr: fr}
				for _, kind := range detect.EngineKinds() {
					s.cacheEntry(key, kind, fr.Version, e)
				}
				return e, nil
			}
		}
	}
	det, err := detect.NewDetector(o.kind, detect.Config{Workers: o.workers, Store: s.store})
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
		s.cacheEntry(key, o.kind, snap.Version(), e)
	}
	return e, nil
}

// DetectStream runs violation detection as a stream: the returned iterator
// yields each violation as the engine finds it, never materializing the
// full report — on a million-tuple table the first violation arrives while
// the scan is still running. Breaking out of the loop (or a done ctx)
// cancels the underlying scan. The default engine is ParallelDetection,
// whose factorised core yields straight into the stream; engines without a
// streaming path (sql) fall back to a blocking pass whose report is
// then replayed. Over a full iteration the yielded set equals the blocking
// report's Violations, in engine order.
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
// surfaced: the returned stream evaluates exactly that version, so callers
// relaying violations (the NDJSON endpoint) can stamp their output with
// it. Request-shape errors (unknown table, unknown CFD id, unknown
// engine) are returned eagerly instead of through the stream.
func (s *Semandaq) DetectStreamVersion(ctx context.Context, table string, opts ...Option) (iter.Seq2[detect.Violation, error], int64, error) {
	o := s.resolve(ParallelDetection, opts)
	tab, cfds, err := s.requestCFDs(table, o)
	if err != nil {
		return nil, 0, err
	}
	det, err := detect.NewDetector(o.kind, detect.Config{Workers: o.workers, Store: s.store})
	if err != nil {
		return nil, 0, err
	}
	snap := tab.Snapshot()
	seq := func(yield func(detect.Violation, error) bool) {
		n := 0
		if str, ok := det.(detect.SnapshotStreamer); ok {
			for v, err := range str.DetectStreamSnapshot(ctx, snap, cfds) {
				if err != nil {
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
			return
		}
		// Non-streaming engine: replay a blocking pass through the
		// iterator. detectEntry keeps the report cache in play, so a
		// repeated sql stream on an unchanged table is served from
		// cache.
		e, err := s.detectEntry(ctx, table, snap, cfds, o)
		if err != nil {
			yield(detect.Violation{}, err)
			return
		}
		for _, v := range limited(e.flat(), o.limit).Violations {
			if err := ctx.Err(); err != nil {
				yield(detect.Violation{}, err)
				return
			}
			if !yield(v, nil) {
				return
			}
		}
	}
	return seq, snap.Version(), nil
}

// DetectionSQL returns the SQL statements Detect would generate (the
// explain view of the error detector).
func (s *Semandaq) DetectionSQL(table string) ([]string, error) {
	tab, err := s.Table(table)
	if err != nil {
		return nil, err
	}
	cfds := s.CFDs(table)
	if len(cfds) == 0 {
		return nil, fmt.Errorf("%w for %s", ErrNoCFDs, table)
	}
	return detect.GenerateSQL(tab, cfds)
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
// review then ApplyRepair). WithCFDs scopes the constraints being
// repaired; a cancelled ctx aborts the repairer's detect-resolve passes.
// The repairer's first pass reads the default engine's report of the
// version it clones, which a read of that version has usually cached.
func (s *Semandaq) Repair(ctx context.Context, table string, opts ...Option) (*repair.Result, error) {
	o := s.resolve(DefaultEngine, opts)
	tab, cfds, err := s.requestCFDs(table, o)
	if err != nil {
		return nil, err
	}
	e, err := s.detectEntry(ctx, table, tab.Snapshot(), cfds, o)
	if err != nil {
		return nil, err
	}
	return repair.NewRepairer().RepairFrom(ctx, tab, cfds, e.fr)
}

// ApplyRepair commits reviewed modifications to the live table, through
// the session's write path, under the table's mutation gate. The
// modifications repair.Fresh finds stale are skipped and reported; the
// rest land, through repair.Apply or — with a monitor active — as one
// update batch through its tracker (the violation index follows the
// repair, and in cleansed mode its incremental repair runs once, after the
// whole batch). Returns ErrMonitorBusy while a monitor is being
// (re)started.
func (s *Semandaq) ApplyRepair(table string, mods []repair.Modification) (int, []repair.Modification, error) {
	applied := 0
	var skipped []repair.Modification
	err := s.withTableWrite(table, func(tab *relstore.Table, m *monitor.Monitor) error {
		if m == nil {
			var err error
			applied, skipped, err = repair.Apply(tab, mods)
			return err
		}
		fresh, stale, err := repair.Fresh(tab.Snapshot(), mods)
		if err != nil {
			return err
		}
		batch := make([]monitor.Update, len(fresh))
		for i, mod := range fresh {
			batch[i] = monitor.Update{Op: monitor.OpSet, ID: mod.TupleID, Attr: mod.Attr, Value: mod.New}
		}
		if _, err := m.Apply(batch); err != nil {
			return err
		}
		applied, skipped = len(fresh), stale
		return nil
	})
	return applied, skipped, err
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
	tab, cfds, err := s.requestCFDs(table, o)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := strings.ToLower(table)
	// Flip the busy flag under the table's mutation gate: in-flight writes
	// finish first, later writes see the flag and back off, so the
	// snapshot the new tracker seeds from cannot miss a concurrent write.
	g := s.gate(key)
	g.Lock()
	s.mu.Lock()
	if s.monitorBusy[key] {
		s.mu.Unlock()
		g.Unlock()
		return nil, ErrMonitorBusy
	}
	s.monitorBusy[key] = true
	s.mu.Unlock()
	g.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.monitorBusy, key)
		s.mu.Unlock()
	}()
	m, err := monitor.New(tab, cfds, o.cleansed)
	if err != nil {
		return nil, err
	}
	if cur, ok := s.store.Table(table); !ok || cur != tab {
		return nil, fmt.Errorf("semandaq: table %q was replaced while its monitor was starting", table)
	}
	s.mu.Lock()
	s.monitors[key] = m
	s.mu.Unlock()
	return m, nil
}

// withTableWrite resolves the table and runs fn under the table's mutation
// gate with the active monitor (nil when none). It is the single write-path
// preamble: serialized against the session's other writes and refused with
// ErrMonitorBusy while a monitor is being (re)started.
func (s *Semandaq) withTableWrite(table string, fn func(tab *relstore.Table, m *monitor.Monitor) error) error {
	tab, err := s.Table(table)
	if err != nil {
		return err
	}
	g := s.gate(strings.ToLower(table))
	g.Lock()
	defer g.Unlock()
	m, err := s.ActiveMonitor(table)
	if err != nil {
		return err
	}
	return fn(tab, m)
}

// ActiveMonitor returns the table's registered monitor, or nil when none
// has been started. While a monitor is being started or replaced it
// returns ErrMonitorBusy: the outgoing monitor is about to be detached and
// updates routed to it would be lost to the replacement's tracker.
func (s *Semandaq) ActiveMonitor(table string) (*monitor.Monitor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToLower(table)
	if s.monitorBusy[key] {
		return nil, ErrMonitorBusy
	}
	return s.monitors[key], nil
}

// StopMonitor detaches the table's active monitor; it reports whether one
// was registered. Subsequent mutations write the table directly.
func (s *Semandaq) StopMonitor(table string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToLower(table)
	_, ok := s.monitors[key]
	delete(s.monitors, key)
	return ok
}

// ApplyUpdates runs one update batch through the table's active monitor.
// It returns ErrNoMonitor when none is registered and ErrMonitorBusy while
// a monitor is being (re)started. The batch runs under the table's
// mutation gate, serialized against the session's other writes.
func (s *Semandaq) ApplyUpdates(table string, batch []monitor.Update) (*monitor.BatchResult, error) {
	var res *monitor.BatchResult
	err := s.withTableWrite(table, func(_ *relstore.Table, m *monitor.Monitor) error {
		if m == nil {
			return ErrNoMonitor
		}
		var err error
		res, err = m.Apply(batch)
		return err
	})
	return res, err
}

// Insert appends a row to the table through the session's write path: via
// the active monitor when one exists (incremental detection sees the row
// immediately), directly into the store otherwise. It returns the new
// tuple's ID and the table version after the write.
func (s *Semandaq) Insert(table string, row relstore.Tuple) (relstore.TupleID, int64, error) {
	var id relstore.TupleID
	var version int64
	err := s.withTableWrite(table, func(tab *relstore.Table, m *monitor.Monitor) error {
		if m != nil {
			res, err := m.Apply([]monitor.Update{{Op: monitor.OpInsert, Row: row}})
			if err != nil {
				return err
			}
			id, version = res.Inserted[0], res.Version
			return nil
		}
		var err error
		if id, err = tab.Insert(row); err != nil {
			return err
		}
		version = tab.Version()
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	return id, version, nil
}

// Delete removes the tuple through the session's write path (see Insert).
// It returns the table version after the write.
func (s *Semandaq) Delete(table string, id relstore.TupleID) (int64, error) {
	var version int64
	err := s.withTableWrite(table, func(tab *relstore.Table, m *monitor.Monitor) error {
		if m != nil {
			res, err := m.Apply([]monitor.Update{{Op: monitor.OpDelete, ID: id}})
			if err != nil {
				return err
			}
			version = res.Version
			return nil
		}
		if !tab.Delete(id) {
			return fmt.Errorf("semandaq: no tuple %d in %s", id, table)
		}
		version = tab.Version()
		return nil
	})
	if err != nil {
		return 0, err
	}
	return version, nil
}

// SetCell updates one attribute of a tuple through the session's write
// path (see Insert). It returns the table version after the write.
func (s *Semandaq) SetCell(table string, id relstore.TupleID, attr string, v types.Value) (int64, error) {
	var version int64
	err := s.withTableWrite(table, func(tab *relstore.Table, m *monitor.Monitor) error {
		if m != nil {
			res, err := m.Apply([]monitor.Update{{Op: monitor.OpSet, ID: id, Attr: attr, Value: v}})
			if err != nil {
				return err
			}
			version = res.Version
			return nil
		}
		pos, ok := tab.Schema().Pos(attr)
		if !ok {
			return fmt.Errorf("semandaq: no attribute %q in %s", attr, table)
		}
		if _, err := tab.SetCell(id, pos, v); err != nil {
			return err
		}
		version = tab.Version()
		return nil
	})
	if err != nil {
		return 0, err
	}
	return version, nil
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
	tab, err := s.Table(refTable)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Route through the table's discovery session, which answers an
	// unchanged version without mining at all. The report is identical to
	// a cold Mine over the same snapshot (the discovery cross-check tier).
	// The returned report may be served again while the version holds;
	// treat it as immutable.
	return s.discoverySession(refTable, tab).Discover(ctx, discovery.Options{
		MinSupport:       o.minSupport,
		MaxLHS:           o.maxLHS,
		MaxPatternsPerFD: o.maxPatterns,
		MinConfidence:    o.minConfidence,
		Workers:          o.workers,
	})
}

// discoverySession returns the table's discovery session,
// creating or replacing it when the registered table instance changed.
func (s *Semandaq) discoverySession(name string, tab *relstore.Table) *discovery.Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToLower(name)
	ts, ok := s.sessions[key]
	if !ok || ts.tab != tab {
		ts = &tableSession{tab: tab, sess: discovery.NewSession(tab)}
		s.sessions[key] = ts
	}
	return ts.sess
}
