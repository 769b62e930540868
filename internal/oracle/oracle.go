// Package oracle is the reusable incremental-vs-batch cross-check harness:
// it decodes byte strings into mutation sequences over a seeded schema,
// applies them through the incremental serving stack (the detect.Tracker,
// which also drives the relstore overlay fold, plus a discovery Session) and
// to a naive row model — the live ids and one Tuple each — and asserts at
// every intermediate version that the served state cannot be told from a
// cold batch build of the model (relstore.BuildSnapshot; the table stores its
// data only in the columns the fold writes, so the model is the one place a
// wrong value would show):
//
//   - the served Snapshot/Columnar artifacts (one-column partitions
//     included) and decoded rows equal the model's batch build up to a
//     renaming of dictionary codes (relstore.DiffSnapshots);
//   - the tracker's materialized report, and its factorised report over
//     either snapshot exploded, equal the factorised core's exploded report
//     (ColumnarDetector at 1, 2 and 8 workers) and the SQL engine's report,
//     each over the model's snapshot and over the folded one the server
//     serves (DeepEqual) — lossless, schedule-independent and blind to code
//     numbering — and its vio(t) and per-CFD counts, and the tracker's own
//     VioMap and DirtyCount, equal the definition's (cfddef.Check);
//   - the discovery session's report, and a cold Mine over the
//     served snapshot, equal a cold Mine over the model's (DeepEqual).
//
// The detect-package cross-check tests and the FuzzIncrementalOracle fuzz
// target both drive this harness. Values are drawn from small per-column
// alphabets that include the adversarial representations (INT 1 vs FLOAT
// 1.0, NaN, NULL) so the Equal-vs-exact distinction the patcher relies on
// is always in play.
package oracle

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"

	"semandaq/internal/cfd"
	"semandaq/internal/cfddef"
	"semandaq/internal/detect"
	"semandaq/internal/discovery"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// Config seeds one harness: the schema, a value alphabet per column, the
// constraints the tracker maintains, the number of seed rows inserted
// before the tracker attaches, and the discovery options the session runs.
type Config struct {
	Schema    *schema.Relation
	Domain    [][]types.Value
	CFDs      []*cfd.CFD
	SeedRows  int
	Discovery discovery.Options
}

// DefaultConfig returns the standard oracle workload: a 3-attribute
// relation under two variable and one constant CFD, with tiny domains so
// multi-tuple groups constantly flip between clean and violating, and with
// Equal-but-not-identical numerics and NaN in V, an RHS and an LHS cell.
func DefaultConfig() Config {
	cfds, err := cfd.ParseSet(`
f: [K=_] -> [V=_]
f: [K=k0] -> [W=good]
f: [V=_] -> [W=_]
`)
	if err != nil {
		panic(err) // static text; cannot fail
	}
	return Config{
		Schema: schema.New("f", "K", "V", "W"),
		Domain: [][]types.Value{
			{types.NewString("k0"), types.NewString("k1"), types.NewString("k2")},
			{types.NewString("v0"), types.NewString("v1"), types.NewInt(1),
				types.NewFloat(1.0), types.NewFloat(math.NaN()), types.Null},
			{types.NewString("good"), types.NewString("bad"), types.Null},
		},
		CFDs:      cfds,
		SeedRows:  8,
		Discovery: discovery.Options{MinSupport: 2, MaxLHS: 2, Workers: 2},
	}
}

// Harness is one live oracle run: the table, the incremental maintainers
// over it, and the row model — the live ids ascending, a Tuple each, and the
// version — that the mutation decoder targets and the checks compare to.
type Harness struct {
	Cfg     Config
	Tab     *relstore.Table
	Tracker *detect.Tracker
	Sess    *discovery.Session
	ids     []relstore.TupleID
	rows    []relstore.Tuple
	version int64
	novel   int // never-seen values decoded so far
}

// New builds the table, inserts the seed rows (cycling the domain), and
// attaches the tracker and the discovery session.
func New(cfg Config) (*Harness, error) {
	tab := relstore.NewTable(cfg.Schema)
	for i := 0; i < cfg.SeedRows; i++ {
		row := make(relstore.Tuple, cfg.Schema.Arity())
		for j := range row {
			row[j] = cfg.Domain[j][(i+j)%len(cfg.Domain[j])]
		}
		tab.MustInsert(row)
	}
	h, err := Attach(tab, cfg.CFDs, cfg.Discovery)
	if err != nil {
		return nil, err
	}
	h.Cfg = cfg
	return h, nil
}

// Attach wraps an existing table — e.g. a datagen workload at a chosen
// noise rate — in a harness: tracker and discovery session attach to the
// table as it stands, and the row model starts from its rows. The returned
// harness has no decoder domain; callers drive their own mutations through
// the harness's Insert, Delete and SetCell and call the Check methods.
func Attach(tab *relstore.Table, cfds []*cfd.CFD, opts discovery.Options) (*Harness, error) {
	tr, err := detect.NewTracker(tab, cfds)
	if err != nil {
		return nil, err
	}
	snap := tab.Snapshot()
	return &Harness{
		Cfg:     Config{Schema: tab.Schema(), CFDs: cfds, Discovery: opts},
		Tab:     tab,
		Tracker: tr,
		Sess:    discovery.NewSession(tab),
		ids:     slices.Clone(snap.IDs()),
		rows:    snap.Rows(),
		version: snap.Version(),
	}, nil
}

// Insert adds row through the tracker and to the model.
func (h *Harness) Insert(row relstore.Tuple) (relstore.TupleID, error) {
	id, err := h.Tracker.Insert(row)
	if err != nil {
		return 0, err
	}
	h.ids = append(h.ids, id)
	h.rows = append(h.rows, slices.Clone(row))
	h.version++
	return id, nil
}

// Delete removes id through the tracker and from the model.
func (h *Harness) Delete(id relstore.TupleID) error {
	if err := h.Tracker.Delete(id); err != nil {
		return err
	}
	i, _ := slices.BinarySearch(h.ids, id)
	h.ids = slices.Delete(h.ids, i, i+1)
	h.rows = slices.Delete(h.rows, i, i+1)
	h.version++
	return nil
}

// SetCell sets id's attr through the tracker and in the model; like the
// table, the model keeps a cell that Equals v as it is.
func (h *Harness) SetCell(id relstore.TupleID, attr string, v types.Value) error {
	if err := h.Tracker.SetCell(id, attr, v); err != nil {
		return err
	}
	i, _ := slices.BinarySearch(h.ids, id)
	j := h.Cfg.Schema.MustPos(attr)
	if !h.rows[i][j].Equal(v) {
		h.rows[i][j] = v
		h.version++
	}
	return nil
}

// model is the cold side of every check: a batch build of the row model.
func (h *Harness) model() *relstore.Snapshot {
	return relstore.BuildSnapshot(h.Cfg.Schema, h.version, h.ids, h.rows)
}

// Drive decodes data as a mutation program and applies it through the
// tracker, invoking check after every checkEvery ops and once at the end.
// The decoding is total: any byte string is a valid program (reads past
// the end yield zero), which is what makes it a fuzz alphabet. A value
// byte of 0xC0 or above decodes to a string the table has never held, so a
// program can grow dictionaries and strand dead codes without bound.
func (h *Harness) Drive(data []byte, checkEvery int, check func() error) error {
	if checkEvery <= 0 {
		checkEvery = 1
	}
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	value := func(j int) types.Value {
		if b := next(); b < 0xC0 {
			return h.Cfg.Domain[j][int(b)%len(h.Cfg.Domain[j])]
		}
		h.novel++
		return types.NewString(fmt.Sprintf("n%d", h.novel))
	}
	arity := h.Cfg.Schema.Arity()
	nops := 0
	for pos < len(data) {
		op := int(next()) % 4
		if len(h.ids) == 0 {
			op = 0 // only inserts make sense on an empty table
		}
		var err error
		switch op {
		case 0: // insert
			row := make(relstore.Tuple, arity)
			for j := range row {
				row[j] = value(j)
			}
			_, err = h.Insert(row)
		case 1: // delete
			err = h.Delete(h.ids[int(next())%len(h.ids)])
		default: // set cell (two opcodes: sets dominate real workloads)
			id := h.ids[int(next())%len(h.ids)]
			j := int(next()) % arity
			err = h.SetCell(id, h.Cfg.Schema.Attrs[j].Name, value(j))
		}
		if err != nil {
			return err
		}
		if nops++; nops%checkEvery == 0 {
			if err := check(); err != nil {
				return fmt.Errorf("after op %d (version %d): %w", nops, h.Tab.Version(), err)
			}
		}
	}
	return check()
}

// Check asserts every incremental artifact matches its cold rebuild at the
// table's current version. It is the union of the per-layer oracles; use
// the narrower methods to scope a failure.
func (h *Harness) Check(ctx context.Context) error {
	if err := h.CheckStore(); err != nil {
		return err
	}
	if err := h.CheckDetect(ctx); err != nil {
		return err
	}
	return h.CheckDiscovery(ctx)
}

// CheckStore asserts the (folded) snapshot's rows and all its columnar
// artifacts, one-column partitions included, equal a batch build of the
// row model up to a renaming of dictionary codes.
func (h *Harness) CheckStore() error {
	if err := relstore.DiffSnapshots(h.Tab.Snapshot(), h.model()); err != nil {
		return fmt.Errorf("relstore: served snapshot != batch build of the row model: %w", err)
	}
	return nil
}

// CheckDetect asserts the tracker's materialized report is DeepEqual to
// batch detection — the columnar engine at 1, 2 and 8 workers and the SQL
// engine, on both the row model's snapshot and the folded one the serving
// path hands out — and so is its factorised report over each of the two
// snapshots, exploded; and that the report's vio(t) and per-CFD counts, and
// the tracker's own VioMap and DirtyCount, are the definition's
// (cfddef.Check over the row model), and a tracker seeded from the table
// now serves the same.
func (h *Harness) CheckDetect(ctx context.Context) error {
	got := h.Tracker.Report()
	model := h.model()
	vio, per := cfddef.Check(model, h.Cfg.CFDs)
	if !maps.Equal(got.Vio, vio) {
		return fmt.Errorf("detect: tracker report's vio(t) %v != the definition's %v", got.Vio, vio)
	}
	if len(got.PerCFD) != len(per) {
		return fmt.Errorf("detect: tracker report has %d per-CFD entries, the definition %d", len(got.PerCFD), len(per))
	}
	for id, n := range per {
		if st := got.PerCFD[id]; st == nil || cfddef.Counts(*st) != n {
			return fmt.Errorf("detect: CFD %s counts %+v in the tracker report, %+v by the definition", id, st, n)
		}
	}
	// The tracker's own vio(t) bookkeeping, which the updates endpoint and a
	// cleansed monitor read, not only the report recomputed from columns.
	if v := h.Tracker.VioMap(); !maps.Equal(v, vio) || h.Tracker.DirtyCount() != len(vio) {
		return fmt.Errorf("detect: tracker vio(t) %v (dirty %d) != the definition's %v", v, h.Tracker.DirtyCount(), vio)
	}
	// A tracker seeded from the table as it stands — grouped on its
	// snapshot's Equal classes, whatever edit history numbered their codes
	// — holds what this one built update by update.
	seeded, err := detect.NewTracker(h.Tab, h.Cfg.CFDs)
	if err != nil {
		return err
	}
	if v := seeded.VioMap(); !maps.Equal(v, vio) || seeded.DirtyCount() != len(vio) {
		return fmt.Errorf("detect: seeded tracker vio(t) %v (dirty %d) != the definition's %v", v, seeded.DirtyCount(), vio)
	}
	if rep := seeded.Report(); !deepEqual(rep, got) {
		return fmt.Errorf("detect: seeded tracker's report != the updated tracker's\nseeded: %+v\nupdated: %+v", rep, got)
	}
	// The factorised core, exploded, at several worker counts, and the SQL
	// engine: the report must depend neither on how the passes were
	// scheduled nor on the edit history behind the snapshot's codes.
	store := relstore.NewStore()
	store.Put(h.Tab)
	engines := map[string]detect.SnapshotDetector{
		"columnar, 1 worker":  detect.ColumnarDetector{Workers: 1},
		"columnar, 2 workers": detect.ColumnarDetector{Workers: 2},
		"columnar, 8 workers": detect.ColumnarDetector{Workers: 8},
		"sql":                 detect.NewSQLDetector(store),
	}
	for side, snap := range map[string]*relstore.Snapshot{"model": model, "served": h.Tab.Snapshot()} {
		// The tracker's factorised report over either snapshot of its version.
		fr, ok := h.Tracker.FactorReport(snap)
		if !ok {
			return fmt.Errorf("detect: tracker refused the %s snapshot of its own version %d", side, snap.Version())
		}
		if err := CheckRecords(fr); err != nil {
			return err
		}
		if rep := fr.Explode(); !deepEqual(rep, got) {
			return fmt.Errorf("detect: tracker's factorised report over the %s snapshot != its report\nfactorised: %+v\nreport: %+v", side, rep, got)
		}
		for name, engine := range engines {
			rep, err := engine.DetectSnapshot(ctx, snap, h.Cfg.CFDs)
			if err != nil {
				return err
			}
			if !deepEqual(rep, got) {
				if err := detect.Equivalent(rep, got); err != nil {
					return fmt.Errorf("detect: tracker diverged from the %s engine over the %s snapshot: %w", name, side, err)
				}
				return fmt.Errorf("detect: tracker report != %s engine over %s snapshot\ntracker: %+v\nengine: %+v", name, side, got, rep)
			}
		}
	}
	return nil
}

// CheckRecords asserts, without Records' merge, that fr.Records() yields
// the report's records in the canonical order: strictly increasing under
// detect.CompareViolations and, as a multiset, the single-tuple rows plus
// one row per group member.
func CheckRecords(fr *detect.FactorReport) error {
	var got []detect.Violation
	for v := range fr.Records() {
		if n := len(got); n > 0 && detect.CompareViolations(got[n-1], v) >= 0 {
			return fmt.Errorf("detect: record %d %+v does not follow %+v in the canonical order", n, v, got[n-1])
		}
		got = append(got, v)
	}
	want := append([]detect.Violation(nil), fr.Violations...)
	for _, g := range fr.FactorGroups {
		for i := range g.Rows {
			want = append(want, detect.Violation{CFDID: g.CFDID, Kind: detect.MultiTuple, Pattern: -1,
				TupleID: g.MemberAt(i), Attr: g.Attr, Partners: g.Size() - g.RHSCounts[g.RHSKeyAt(i)]})
		}
	}
	slices.SortFunc(want, detect.CompareViolations)
	if !deepEqual(got, want) {
		return fmt.Errorf("detect: Records yielded %d records, not the report's %d single-tuple and member rows", len(got), len(want))
	}
	return nil
}

// CheckDiscovery asserts the session's (possibly re-served) report
// and a cold Mine over the served snapshot are both DeepEqual to a cold
// Mine over the row model's.
func (h *Harness) CheckDiscovery(ctx context.Context) error {
	want, err := discovery.Mine(ctx, h.model(), h.Cfg.Discovery)
	if err != nil {
		return err
	}
	session, err := h.Sess.Discover(ctx, h.Cfg.Discovery)
	if err != nil {
		return err
	}
	served, err := discovery.Mine(ctx, h.Tab.Snapshot(), h.Cfg.Discovery)
	if err != nil {
		return err
	}
	for name, got := range map[string]*discovery.Report{"session report": session, "mine over served snapshot": served} {
		if !deepEqual(got, want) {
			return fmt.Errorf("discovery: %s != cold mine over the row model (got %d/%d candidates/cfds, want %d/%d)",
				name, len(got.Candidates), len(got.CFDs), len(want.Candidates), len(want.CFDs))
		}
	}
	return nil
}
