package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"semandaq/internal/audit"
	"semandaq/internal/detect"
	"semandaq/internal/explore"
	"semandaq/internal/types"
)

// allKinds is the engine matrix of the cache tests.
var allKinds = []DetectorKind{SQLDetection, ColumnarDetection, ParallelDetection}

// TestReportCacheHoldsOneVersion is the cache-hygiene contract: however
// many edit→detect rounds run through however many engines, a table's
// cache never holds a superseded version — a dead factorised report would
// pin a whole old columnar snapshot — and the columnar kinds share an entry.
func TestReportCacheHoldsOneVersion(t *testing.T) {
	s, _ := datasetSession(t)
	ctx := context.Background()
	tab, _ := s.Table("customer")
	ids := tab.Snapshot().IDs()
	for round := 0; round < 5; round++ {
		if _, err := s.SetCell("customer", ids[round], "CITY", types.NewString("Nowhere")); err != nil {
			t.Fatal(err)
		}
		for _, kind := range allKinds {
			if _, err := s.DetectDigest(ctx, "customer", WithEngine(kind)); err != nil {
				t.Fatal(err)
			}
			s.mu.Lock()
			st := s.tables["customer"]
			if st.version != tab.Version() {
				t.Fatalf("round %d %v: cache holds version %d, table is at %d", round, kind, st.version, tab.Version())
			}
			if len(st.entries) > 2 {
				t.Fatalf("round %d: %d entries for one version, want at most 2 (sql, columnar)", round, len(st.entries))
			}
			s.mu.Unlock()
		}
		col, _ := cached(s, ColumnarDetection, tab.Version())
		par, _ := cached(s, ParallelDetection, tab.Version())
		if col == nil || col != par || col.fr == nil {
			t.Fatalf("round %d: columnar and parallel do not share one factorised entry", round)
		}
	}
	// A fill for a version the cache has moved past must not evict the
	// newer one.
	st, cfds, _ := s.record("customer")
	s.cacheEntry(st, cfds, tab.Version()-1, &reportEntry{}, SQLDetection)
	if _, ok := cached(s, ColumnarDetection, tab.Version()); !ok {
		t.Error("a stale fill evicted the current version's entries")
	}
	// Both invalidation paths cover the entry shape.
	if err := s.RegisterCFDs("customer", nil); err != nil {
		t.Fatal(err)
	}
	if st.entries != nil {
		t.Error("RegisterCFDs left reports cached")
	}
	if _, err := s.Detect(ctx, "customer"); err != nil {
		t.Fatal(err)
	}
	s.RegisterTable(tab)
	if s.tables["customer"].entries != nil {
		t.Error("RegisterTable left reports cached")
	}
}

// cached is the customer table's cache entry for the kind at version.
func cached(s *Semandaq, kind DetectorKind, version int64) (*reportEntry, bool) {
	st, cfds, _ := s.record("customer")
	return s.cachedEntry(st, cfds, kind, version)
}

// TestDigestMatchesFlatReport pins the digest entry point to the flat
// facade: every engine, cached and WithCFDs-scoped, with and without a
// limit, under a monitor too — the digest is exactly the flat report's.
func TestDigestMatchesFlatReport(t *testing.T) {
	s, ids := datasetSession(t)
	ctx := context.Background()
	check := func(name string, opts ...Option) {
		t.Helper()
		rep, err := s.Detect(ctx, "customer", opts...)
		if err != nil {
			t.Fatal(err)
		}
		d, err := s.DetectDigest(ctx, "customer", opts...)
		if err != nil {
			t.Fatal(err)
		}
		want := flatDigest(rep)
		got := *d
		got.IDs, got.Vio = nil, nil
		for i, n := range d.Vio { // the factorised digest also lists clean tuples, at 0
			if n > 0 {
				got.IDs, got.Vio = append(got.IDs, d.IDs[i]), append(got.Vio, n)
			}
		}
		if !reflect.DeepEqual(&got, want) {
			t.Errorf("%s: digest differs from the flat report's\ngot:  %+v\nwant: %+v", name, got, *want)
		}
	}
	for _, kind := range allKinds {
		check(kind.String(), WithEngine(kind))
		check(kind.String()+" limited", WithEngine(kind), WithLimit(3))
		check(kind.String()+" scoped", WithEngine(kind), WithCFDs(ids[0], ids[2]))
	}
	if _, err := s.Monitor(ctx, "customer"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetCell("customer", 1, "CITY", types.NewString("Elsewhere")); err != nil {
		t.Fatal(err)
	}
	check("tracker-served", WithEngine(ColumnarDetection))
}

// flatDigest is the digest a flat report describes: its totals and the
// dirty tuples' vio(t), ascending by id.
func flatDigest(r *detect.Report) *detect.Digest {
	d := &detect.Digest{
		Table:      r.Table,
		TupleCount: r.TupleCount,
		Version:    r.Version,
		Violations: len(r.Violations),
		Dirty:      len(r.Vio),
		MaxVio:     r.MaxVio(),
		PerCFD:     r.PerCFD,
		IDs:        r.DirtyTuples(),
	}
	for _, id := range d.IDs {
		d.Vio = append(d.Vio, int32(r.Vio[id]))
	}
	return d
}

// TestTrackerReportServesEveryKind: on a monitored table the tracker's
// report is engine-independent, so one build per version serves the
// server's default SQL detect, the columnar audit and the drill-down — and
// the explorer over it is built once too. Both equal the batch engines'.
func TestTrackerReportServesEveryKind(t *testing.T) {
	s, _ := datasetSession(t)
	ctx := context.Background()
	if _, err := s.Monitor(ctx, "customer"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetCell("customer", 1, "CITY", types.NewString("Elsewhere")); err != nil {
		t.Fatal(err)
	}
	tab, _ := s.Table("customer")
	rep, err := s.Detect(ctx, "customer", WithEngine(SQLDetection))
	if err != nil {
		t.Fatal(err)
	}
	e, ok := cached(s, SQLDetection, tab.Version())
	if !ok || e.fr == nil {
		t.Fatal("the SQL request was not served from the tracker's factorised report")
	}
	for _, kind := range allKinds {
		if got, _ := cached(s, kind, tab.Version()); got != e {
			t.Errorf("%v: the tracker's report is not cached for this kind", kind)
		}
	}
	got, err := s.Audit(ctx, "customer")
	if err != nil {
		t.Fatal(err)
	}
	ex1, err := s.Explore(ctx, "customer")
	if err != nil {
		t.Fatal(err)
	}
	ex2, err := s.Explore(ctx, "customer")
	if err != nil {
		t.Fatal(err)
	}
	if after, _ := cached(s, ColumnarDetection, tab.Version()); after != e || ex1 != ex2 {
		t.Error("the audit or the drill-down built a second report or explorer for the version")
	}
	batch, err := detect.ColumnarDetector{Workers: 1}.Detect(ctx, tab, s.CFDs("customer"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, batch) {
		t.Error("tracker-served report differs from a batch detection")
	}
	want, err := audit.Audit(tab.Snapshot(), s.CFDs("customer"), batch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("tracker-served audit differs from the batch audit")
	}
}

// TestLazyExplodeRunsOnce hammers one cached factorised entry from
// concurrent Detect, Audit and Explore calls: the flat report is exploded
// once and shared (same pointer), and the audits agree with each other.
func TestLazyExplodeRunsOnce(t *testing.T) {
	s, _ := datasetSession(t)
	ctx := context.Background()
	if _, err := s.DetectDigest(ctx, "customer"); err != nil { // fills the entry, un-exploded
		t.Fatal(err)
	}
	tab, _ := s.Table("customer")
	e, ok := cached(s, DefaultEngine, tab.Version())
	if !ok || e.fr == nil || e.rep != nil {
		t.Fatal("DetectDigest should cache the factorised report without exploding it")
	}
	const workers = 8
	reps := make([]*detect.Report, workers)
	audits := make([]*audit.Report, workers)
	exps := make([]*explore.Explorer, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if reps[w], err = s.Detect(ctx, "customer"); err != nil {
				t.Error(err)
			}
			if audits[w], err = s.Audit(ctx, "customer"); err != nil {
				t.Error(err)
			}
			if exps[w], err = s.Explore(ctx, "customer"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if reps[w] != reps[0] {
			t.Fatalf("caller %d got a different flat report: the explosion ran more than once", w)
		}
		if !reflect.DeepEqual(audits[w], audits[0]) {
			t.Fatalf("caller %d audited differently", w)
		}
	}
	sql, err := s.Detect(ctx, "customer", WithEngine(SQLDetection))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reps[0], sql) {
		t.Error("lazily exploded report differs from the SQL engine's")
	}
	flatAudit, err := audit.Audit(tab.Snapshot(), s.CFDs("customer"), sql)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(audits[0], flatAudit) {
		t.Error("factorised audit differs from the flat audit")
	}
}
