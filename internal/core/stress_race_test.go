package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// The concurrent read/write stress suite. The workload maintains a simple
// invariant: every row ever written satisfies V = "val-" + K, so at EVERY
// table version the FD K -> V holds and a correct single-version reader
// must report zero violations. Column C is unconstrained churn that
// exercises the SetCell copy-on-write path. A reader that tears across
// versions — mixing a row from before a delete with one from after an
// insert, or observing a half-applied cell write — has no such guarantee
// and fails the assertion; before snapshot isolation this test also
// crashed outright under -race.
//
// Readers additionally check that every report is stamped with a version
// and that versions never move backwards.

func valFor(k string) string { return "val-" + k }

func stressRow(rng *rand.Rand, w int) relstore.Tuple {
	k := fmt.Sprintf("k%d", rng.Intn(8))
	return relstore.Tuple{
		types.NewString(k),
		types.NewString(valFor(k)),
		types.NewInt(int64(rng.Intn(1000) + w*10000)),
	}
}

func newStressSession(t *testing.T) *Semandaq {
	t.Helper()
	s := New()
	tab := relstore.NewTable(schema.New("traffic", "K", "V", "C"))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		tab.MustInsert(stressRow(rng, 9))
	}
	s.RegisterTable(tab)
	if _, err := s.RegisterCFDText("traffic", `traffic: [K=_] -> [V=_]`); err != nil {
		t.Fatal(err)
	}
	return s
}

// runStress drives >= 4 writers against blocking detection on every
// engine, the violation stream, and SQL self-join readers.
func runStress(t *testing.T, s *Semandaq, withMonitor bool) {
	ctx := context.Background()
	if withMonitor {
		if _, err := s.Monitor(ctx, "traffic"); err != nil {
			t.Fatal(err)
		}
	}
	// Writers run until every reader has completed its iterations, so each
	// read provably overlaps live write traffic; readers do a fixed number
	// of passes each.
	const writers = 5
	const readerIters = 5
	stopWriting := make(chan struct{})
	var wg, readerWG sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			var mine []relstore.TupleID
			for i := 0; ; i++ {
				select {
				case <-stopWriting:
					return
				default:
				}
				switch {
				// The >= 60 bound keeps the table size flat (~500 rows)
				// however long the readers take: the SQL self-join reader
				// is quadratic in the per-key group size, so an unbounded
				// insert stream would starve it.
				case len(mine) >= 60 || (len(mine) > 3 && rng.Intn(3) == 0):
					id := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					if _, err := s.Delete("traffic", id); err != nil {
						t.Error(err)
						return
					}
				case len(mine) > 0 && rng.Intn(3) == 0:
					// Churn the unconstrained column: whatever C holds, the
					// invariant (and so every report) is unaffected.
					if _, err := s.SetCell("traffic", mine[rng.Intn(len(mine))], "C",
						types.NewInt(int64(rng.Intn(1_000_000)))); err != nil {
						t.Error(err)
						return
					}
				default:
					id, _, err := s.Insert("traffic", stressRow(rng, w))
					if err != nil {
						t.Error(err)
						return
					}
					mine = append(mine, id)
				}
			}
		}(w)
	}

	assertClean := func(where string, version, lastVersion int64) int64 {
		t.Helper()
		if version <= 0 {
			t.Errorf("%s: report not version-stamped (version %d)", where, version)
		}
		if version < lastVersion {
			t.Errorf("%s: version went backwards: %d after %d", where, version, lastVersion)
		}
		return version
	}

	// Blocking detection, one reader per engine.
	for _, kind := range []DetectorKind{SQLDetection, ColumnarDetection, ParallelDetection} {
		readerWG.Add(1)
		go func(kind DetectorKind) {
			defer readerWG.Done()
			last := int64(0)
			for i := 0; i < readerIters; i++ {
				rep, err := s.Detect(ctx, "traffic", WithEngine(kind))
				if err != nil {
					t.Errorf("detect %v: %v", kind, err)
					return
				}
				if n := rep.TotalViolations(); n != 0 {
					t.Errorf("detect %v: %d violations in a workload that is clean at every version (torn read across versions?)", kind, n)
					return
				}
				last = assertClean(fmt.Sprintf("detect %v", kind), rep.Version, last)
			}
		}(kind)
	}

	// Streaming detection.
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		last := int64(0)
		for i := 0; i < readerIters; i++ {
			seq, version, err := s.DetectStreamVersion(ctx, "traffic")
			if err != nil {
				t.Errorf("stream: %v", err)
				return
			}
			for v, err := range seq {
				if err != nil {
					t.Errorf("stream: %v", err)
					return
				}
				t.Errorf("stream yielded violation %+v in an always-clean workload", v)
				return
			}
			last = assertClean("stream", version, last)
		}
	}()

	// SQL self-join readers: any pair of rows agreeing on K must agree on
	// V — one pinned version per query makes the result provably empty.
	for r := 0; r < 2; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for i := 0; i < readerIters; i++ {
				res, err := s.SQL(ctx, `SELECT t1._tid FROM traffic t1, traffic t2 WHERE t1.K = t2.K AND t1.V <> t2.V`)
				if err != nil {
					t.Errorf("sql: %v", err)
					return
				}
				if len(res.Rows) != 0 {
					t.Errorf("sql self-join found %d FD-violating pairs (mixed table versions in one query?)", len(res.Rows))
					return
				}
				if v, ok := res.Versions["traffic"]; !ok || v <= 0 {
					t.Errorf("sql result not version-stamped: %v", res.Versions)
					return
				}
			}
		}()
	}

	// Discovery readers: each Discover routes through the table's
	// incremental session (cache-refresh over the changed columns, full
	// mine after inserts/deletes). Every served report must reflect exactly
	// one pinned version — and in this workload K -> V holds at EVERY
	// version, so a report missing that global FD can only come from mining
	// state torn across versions.
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		last := int64(0)
		for i := 0; i < readerIters; i++ {
			rep, err := s.Discover(ctx, "traffic", WithMinSupport(2), WithMaxLHS(2))
			if err != nil {
				t.Errorf("discover: %v", err)
				return
			}
			found := false
			for _, c := range rep.Candidates {
				if c.Kind == "global-fd" && len(c.CFD.LHS) == 1 && c.CFD.LHS[0] == "K" && c.CFD.RHS[0] == "V" {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("discover: K -> V missing at version %d (mining state torn across versions?)", rep.Version)
				return
			}
			last = assertClean("discover", rep.Version, last)
		}
	}()

	// With a monitor active, its incrementally tracked report must stay
	// clean too, concurrently with the writers feeding it.
	if withMonitor {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for i := 0; i < 3*readerIters; i++ {
				m, err := s.ActiveMonitor("traffic")
				if err != nil || m == nil {
					t.Errorf("monitor gone: %v %v", m, err)
					return
				}
				if rep := m.Report(); rep.TotalViolations() != 0 {
					t.Errorf("tracker report has %d violations", rep.TotalViolations())
					return
				}
			}
		}()
	}

	readerWG.Wait()
	close(stopWriting)
	wg.Wait()

	// Quiesced: one final pass per engine agrees on the final version.
	final := int64(0)
	for _, kind := range []DetectorKind{SQLDetection, ColumnarDetection, ParallelDetection} {
		rep, err := s.Detect(ctx, "traffic", WithEngine(kind))
		if err != nil {
			t.Fatal(err)
		}
		if rep.TotalViolations() != 0 {
			t.Fatalf("final %v report dirty", kind)
		}
		if final == 0 {
			final = rep.Version
		} else if rep.Version != final {
			t.Fatalf("final versions disagree: %v at %d, expected %d", kind, rep.Version, final)
		}
	}
	tab, _ := s.Table("traffic")
	if final != tab.Version() {
		t.Fatalf("final report version %d != table version %d", final, tab.Version())
	}
}

func TestConcurrentReadWriteStress(t *testing.T) {
	runStress(t, newStressSession(t), false)
}

func TestConcurrentReadWriteStressMonitored(t *testing.T) {
	runStress(t, newStressSession(t), true)
}

// TestConcurrentSQLDetections runs four SQL detections at once over a dirty
// table while a writer churns NAME, a column no CFD mentions: the report
// cache misses on every read, and every run must report exactly what a
// quiet run does. Each run pins its tableaux on its own engine (runs that
// shared them through the store replaced and dropped each other's) and
// resolves Qv's keys on the column artefacts — PLIs, probe vectors, key
// tables — that concurrent runs build lazily on one patched lineage.
func TestConcurrentSQLDetections(t *testing.T) {
	s, _ := datasetSession(t)
	ctx := context.Background()
	quiet, err := s.Detect(ctx, "customer", WithEngine(ColumnarDetection))
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := s.Table("customer")
	ids := tab.Snapshot().Columnar().IDs()

	stopWriting := make(chan struct{})
	var writer, readers sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stopWriting:
				return
			default:
			}
			if _, err := s.SetCell("customer", ids[i%len(ids)], "NAME", types.NewString(fmt.Sprintf("renamed%d", i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 6; i++ {
				rep, err := s.Detect(ctx, "customer", WithEngine(SQLDetection))
				if err != nil {
					t.Errorf("concurrent SQL detect: %v", err)
					return
				}
				if rep.TotalViolations() != quiet.TotalViolations() || len(rep.Groups) != len(quiet.Groups) || len(rep.Vio) != len(quiet.Vio) {
					t.Errorf("concurrent SQL detect: %d violations, %d groups, %d dirty; a quiet run has %d, %d, %d",
						rep.TotalViolations(), len(rep.Groups), len(rep.Vio),
						quiet.TotalViolations(), len(quiet.Groups), len(quiet.Vio))
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stopWriting)
	writer.Wait()
}
