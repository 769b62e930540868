package detect

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"semandaq/internal/datagen"
	"semandaq/internal/relstore"
	"semandaq/internal/sqleng"
)

// TestSQLDetectReplaysPerClassWithoutJoinBack is the count face of the SQL
// detector on the shape of the benchmark's sqldetect-sparse table (datagen's
// 20 000-tuple relation, 100 UK street typos, the standard CFDs): the four
// statements — Qv for phi1, phi2 and phi4, Qc for phi3 — decide their
// tableau join once per Equal class of the columns the patterns read (the
// class walk), so at least nine driver rows in ten are served by their
// class's decision; the run groups each column set once, [CNT ZIP] for
// phi1's and phi2's walks and keys, [CNT AC] and [CC CNT], with no
// Intersect; Qv's keys look their classes up in those groupings, so no
// statement joins the groups back and nothing is hashed; the report is the
// columnar detector's; and a factorised detection allocates at most 5 %
// over 2 183, its AllocsPerRun once the engine kept no value-level
// evaluator (2 368 with its closures and maps, 2 508 before one grouping
// served each column set).
func TestSQLDetectReplaysPerClassWithoutJoinBack(t *testing.T) {
	const allocCeiling = 2183 * 105 / 100
	store, tab := sparseCustomers(t, 20000, 100)
	snap, cfds := tab.Snapshot(), datagen.StandardCFDs()
	statements := 0
	d := &SQLDetector{Engine: sqleng.New(store), Trace: func(string) { statements++ }}
	before := relstore.ReadBuildOps()
	rep, err := d.DetectSnapshot(context.Background(), snap, cfds)
	if err != nil {
		t.Fatal(err)
	}
	if ops := relstore.ReadBuildOps().Sub(before); ops.ClassBuilds != 3 || ops.Intersects != 0 {
		t.Errorf("%d class builds and %d Intersects, want 3 and 0: [CNT ZIP], [CNT AC] and [CC CNT] once each", ops.ClassBuilds, ops.Intersects)
	}
	columnar, err := ColumnarDetector{Workers: 1}.DetectSnapshot(context.Background(), snap, cfds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(columnar, rep) {
		t.Error("sql report differs from the columnar one")
	}
	ops, scanned := d.Engine.OpStats(), int64(statements*snap.Len())
	if statements != 4 || len(rep.Groups) == 0 {
		t.Fatalf("%d statements, %d groups: want the four statements of a phi2-only dirty table", statements, len(rep.Groups))
	}
	if ops.ClassRows*10 < scanned*9 {
		t.Errorf("ClassRows = %d of %d driver rows scanned (%d classes decided), want >= 90 %%", ops.ClassRows, scanned, ops.DriverClasses)
	}
	if ops.HashProbes != 0 {
		t.Errorf("HashProbes = %d, want 0: no statement joins the groups back", ops.HashProbes)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := NewSQLDetector(store).DetectFactorised(context.Background(), snap, cfds); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > allocCeiling {
		t.Errorf("a detection made %.0f allocations, the ceiling is %d", allocs, allocCeiling)
	}
}

// BenchmarkSQLDetectSparse times one SQL detection (four statements) on the
// sqldetect-sparse workload's table: 20 000 generated tuples, 100 UK street
// typos, the standard CFDs. Compare with BenchmarkFactorisedDetectSparse,
// the columnar core on the same snapshot.
func BenchmarkSQLDetectSparse(b *testing.B) {
	store, tab := sparseCustomers(b, 20000, 100)
	snap, cfds := tab.Snapshot(), datagen.StandardCFDs()
	d := NewSQLDetector(store)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := d.DetectFactorised(context.Background(), snap, cfds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFactorisedDetectSparse times the columnar core's detection on
// BenchmarkSQLDetectSparse's snapshot and CFDs.
func BenchmarkFactorisedDetectSparse(b *testing.B) {
	_, tab := sparseCustomers(b, 20000, 100)
	snap, cfds := tab.Snapshot(), datagen.StandardCFDs()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := DetectFactorised(context.Background(), snap, cfds); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFactorisedGroupsFromProbes is the bytes face of the factorised core
// on a fresh snapshot, which the reload-clean, redetect-dense and
// steward-cycle workloads detect on: the standard CFDs' LHS sets all have
// two columns, so a detection builds their classes from the probe vectors
// and no single-column PLI, and allocates at most 5 % over 681 000 bytes,
// the least of three fresh runs when the gate was set (772 000 when the
// core built the first LHS column's PLI and intersected it).
func TestFactorisedGroupsFromProbes(t *testing.T) {
	const byteCeiling = 681000 * 105 / 100
	cfds, least := datagen.StandardCFDs(), uint64(math.MaxUint64)
	for range 3 {
		snap := datagen.Generate(datagen.Config{Tuples: 20000, Seed: 1, NoiseRate: 0.05}).Dirty.Snapshot()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		before := relstore.ReadBuildOps()
		if _, err := DetectFactorised(context.Background(), snap, cfds); err != nil {
			t.Fatal(err)
		}
		ops := relstore.ReadBuildOps().Sub(before)
		runtime.ReadMemStats(&m1)
		if ops.PLIBuilds != 0 || ops.Intersects != 0 || ops.ClassBuilds != 2 {
			t.Fatalf("%d PLI builds, %d Intersects, %d class builds; want 0, 0 and 2", ops.PLIBuilds, ops.Intersects, ops.ClassBuilds)
		}
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	if least > byteCeiling {
		t.Errorf("a detection on a fresh snapshot allocated %d bytes, the ceiling is %d", least, byteCeiling)
	}
}
