package core

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"semandaq/internal/consistency"
	"semandaq/internal/datagen"
	"semandaq/internal/detect"
	"semandaq/internal/monitor"
	"semandaq/internal/relstore"
	"semandaq/internal/sqleng"
	"semandaq/internal/types"
)

const customersCSV = `NAME,CNT,CITY,ZIP,STR,CC,AC
Mike,UK,Edinburgh,EH2 4SD,Mayfield,44,131
Rick,UK,Edinburgh,EH2 4SD,Mayfield,44,131
Nora,UK,Edinburgh,EH2 4SD,Mayfeild,44,131
Joe,US,New York,01202,Mtn Ave,44,908
Ben,US,Chicago,60601,Wacker,1,312
`

const cfdText = `
phi2@ customer: [CNT=UK, ZIP=_] -> [STR=_]
phi4@ customer: [CC=44] -> [CNT=UK]
`

func session(t *testing.T) *Semandaq {
	t.Helper()
	s := New()
	if _, err := s.LoadCSV("customer", strings.NewReader(customersCSV)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterCFDText("customer", cfdText); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEndToEndPipeline(t *testing.T) {
	s := session(t)
	if got := s.Tables(); len(got) != 1 || got[0] != "customer" {
		t.Errorf("tables = %v", got)
	}
	if got := len(s.CFDs("customer")); got != 2 {
		t.Errorf("cfds = %d", got)
	}

	// Detection, both paths, must agree.
	columnar, err := s.Detect(context.Background(), "customer", WithEngine(ColumnarDetection))
	if err != nil {
		t.Fatal(err)
	}
	sql, err := s.Detect(context.Background(), "customer", WithEngine(SQLDetection))
	if err != nil {
		t.Fatal(err)
	}
	if err := detect.Equivalent(columnar, sql); err != nil {
		t.Fatal(err)
	}
	if len(columnar.Vio) != 4 { // Mike, Rick, Nora (group) + Joe (constant)
		t.Errorf("vio = %v", columnar.Vio)
	}

	// Audit.
	a, err := s.Audit(context.Background(), "customer")
	if err != nil {
		t.Fatal(err)
	}
	if a.DirtyTuples == 0 {
		t.Error("audit found no dirt")
	}

	// Explore.
	ex, err := s.Explore(context.Background(), "customer")
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.CFDs()) != 2 {
		t.Errorf("explorer cfds = %d", len(ex.CFDs()))
	}

	// Repair + apply.
	res, err := s.Repair(context.Background(), "customer")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("repair remaining = %d", res.Remaining)
	}
	applied, skipped, err := s.ApplyRepair("customer", res.Modifications)
	if err != nil {
		t.Fatal(err)
	}
	if applied == 0 || len(skipped) != 0 {
		t.Errorf("applied=%d skipped=%d", applied, len(skipped))
	}
	// After applying, detection is clean (and the cache was invalidated by
	// the table version change).
	rep, err := s.Detect(context.Background(), "customer", WithEngine(ColumnarDetection))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Errorf("violations after repair = %d", len(rep.Violations))
	}
}

func TestDetectCache(t *testing.T) {
	s := session(t)
	r1, err := s.Detect(context.Background(), "customer", WithEngine(ColumnarDetection))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Detect(context.Background(), "customer", WithEngine(ColumnarDetection))
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("unchanged table should hit the report cache")
	}
	tab, _ := s.Table("customer")
	tab.SetCell(0, 0, types.NewString("Mike2"))
	r3, err := s.Detect(context.Background(), "customer", WithEngine(ColumnarDetection))
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Error("mutation should invalidate the cache")
	}
}

func TestRegisterRejectsUnsatisfiable(t *testing.T) {
	s := New()
	if _, err := s.LoadCSV("customer", strings.NewReader(customersCSV)); err != nil {
		t.Fatal(err)
	}
	_, err := s.RegisterCFDText("customer", `
customer: [NAME=_] -> [CNT=UK]
customer: [NAME=_] -> [CNT=US]
`)
	if err == nil || !strings.Contains(err.Error(), "unsatisfiable") {
		t.Errorf("err = %v", err)
	}
	// Nothing was registered.
	if len(s.CFDs("customer")) != 0 {
		t.Error("rejected set partially registered")
	}
}

func TestRegisterValidatesSchema(t *testing.T) {
	s := New()
	if _, err := s.LoadCSV("customer", strings.NewReader(customersCSV)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterCFDText("customer", "customer: [NOPE=_] -> [CITY=_]"); err == nil {
		t.Error("unknown attribute should fail")
	}
	if _, err := s.RegisterCFDText("nope", cfdText); err == nil {
		t.Error("unknown table should fail")
	}
	if _, err := s.RegisterCFDText("customer", "broken"); err == nil {
		t.Error("parse error should fail")
	}
}

func TestCheckConsistency(t *testing.T) {
	s := session(t)
	rep, err := s.CheckConsistency("customer", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Satisfiable {
		t.Error("registered set should be satisfiable")
	}
	// With a finite domain pinning CC to 44 and CNT to US, phi4 clashes.
	rep, err = s.CheckConsistency("customer", consistency.Domains{
		"CC":  {types.NewInt(44)},
		"CNT": {types.NewString("US")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Satisfiable {
		t.Error("pinned domains should make phi4 unsatisfiable")
	}
}

func TestNoCFDsErrors(t *testing.T) {
	s := New()
	if _, err := s.LoadCSV("customer", strings.NewReader(customersCSV)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Detect(context.Background(), "customer", WithEngine(ColumnarDetection)); err == nil {
		t.Error("Detect without CFDs should fail")
	}
	if _, err := s.Repair(context.Background(), "customer"); err == nil {
		t.Error("Repair without CFDs should fail")
	}
	if _, err := s.Monitor(context.Background(), "customer"); err == nil {
		t.Error("Monitor without CFDs should fail")
	}
	if _, err := s.DetectionSQL("customer"); err == nil {
		t.Error("DetectionSQL without CFDs should fail")
	}
}

func TestUnknownTableErrors(t *testing.T) {
	s := New()
	if _, err := s.Table("nope"); err == nil {
		t.Error("Table")
	}
	if _, err := s.Detect(context.Background(), "nope", WithEngine(ColumnarDetection)); err == nil {
		t.Error("Detect")
	}
	if _, err := s.Audit(context.Background(), "nope"); err == nil {
		t.Error("Audit")
	}
	if _, err := s.Explore(context.Background(), "nope"); err == nil {
		t.Error("Explore")
	}
	if _, err := s.Repair(context.Background(), "nope"); err == nil {
		t.Error("Repair")
	}
	if _, _, err := s.ApplyRepair("nope", nil); err == nil {
		t.Error("ApplyRepair")
	}
	if _, err := s.Monitor(context.Background(), "nope"); err == nil {
		t.Error("Monitor")
	}
	if _, err := s.Discover(context.Background(), "nope"); err == nil {
		t.Error("Discover")
	}
	if _, err := s.CheckConsistency("nope", nil); err == nil {
		t.Error("CheckConsistency")
	}
}

func TestDetectionSQLAndAdHocSQL(t *testing.T) {
	s := session(t)
	stmts, err := s.DetectionSQL("customer")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) == 0 {
		t.Error("no SQL generated")
	}
	res, err := s.SQL(context.Background(), "SELECT COUNT(*) FROM customer WHERE CNT = 'UK'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 3 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

// TestSQLRejectsWrites: SQL only reads. Each write statement is a
// *sqleng.ParseError, and the table keeps its version and its rows.
func TestSQLRejectsWrites(t *testing.T) {
	s := session(t)
	tab, err := s.Table("customer")
	if err != nil {
		t.Fatal(err)
	}
	version, rows := tab.Version(), tab.Len()
	for _, q := range []string{
		"INSERT INTO customer VALUES ('Zed', 'US', 'Boston', '02101', 'Main', 1, 617)",
		"UPDATE customer SET CITY = 'Glasgow' WHERE CNT = 'UK'",
		"DELETE FROM customer WHERE CNT = 'UK'",
		"CREATE TABLE customer2 (NAME STRING)",
		"DROP TABLE customer",
	} {
		var perr *sqleng.ParseError
		if _, err := s.SQL(context.Background(), q); !errors.As(err, &perr) {
			t.Errorf("%s: err = %v, want a *sqleng.ParseError", q, err)
		}
		if tab.Version() != version || tab.Len() != rows {
			t.Fatalf("%s: table at version %d with %d rows, want %d with %d", q, tab.Version(), tab.Len(), version, rows)
		}
	}
	if got, ok := s.Store().Table("customer"); !ok || got != tab {
		t.Error("DROP TABLE dropped the table")
	}
	if _, ok := s.Store().Table("customer2"); ok {
		t.Error("CREATE TABLE created a table")
	}
}

func TestMonitorIntegration(t *testing.T) {
	s := session(t)
	res, err := s.Repair(context.Background(), "customer")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ApplyRepair("customer", res.Modifications); err != nil {
		t.Fatal(err)
	}
	m, err := s.Monitor(context.Background(), "customer", WithCleansed(true))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := m.Apply([]monitor.Update{
		{Op: monitor.OpInsert, Row: rowOf("Zed", "US", "Edinburgh", "EH2 4SD", "Wrongst", 44, 131)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Dirty != 0 {
		t.Errorf("monitor left %d dirty", batch.Dirty)
	}
}

func rowOf(name, cnt, city, zip, str string, cc, ac int64) relstore.Tuple {
	return relstore.Tuple{
		types.NewString(name), types.NewString(cnt), types.NewString(city),
		types.NewString(zip), types.NewString(str),
		types.NewInt(cc), types.NewInt(ac)}
}

func TestDiscoverIntegration(t *testing.T) {
	ds := datagen.Generate(datagen.Config{Tuples: 400, Seed: 3})
	s := New()
	s.RegisterTable(ds.Clean)
	rep, err := s.Discover(context.Background(), "customer",
		WithMinSupport(20), WithMaxLHS(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CFDs) == 0 {
		t.Fatal("nothing discovered")
	}
	if rep.Version != ds.Clean.Version() {
		t.Errorf("Report.Version = %d, want %d", rep.Version, ds.Clean.Version())
	}
	if rep.Options.MinSupport != 20 || rep.Options.MaxLHS != 2 {
		t.Errorf("options not threaded: %+v", rep.Options)
	}
	if len(rep.Candidates) == 0 {
		t.Fatal("no candidates in report")
	}
	if err := s.RegisterCFDs("customer", rep.CFDs); err != nil {
		t.Fatalf("discovered CFDs should register cleanly: %v", err)
	}
}

func TestDiscoverPreCancelled(t *testing.T) {
	ds := datagen.Generate(datagen.Config{Tuples: 400, Seed: 3})
	s := New()
	s.RegisterTable(ds.Clean)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Discover(ctx, "customer"); err != context.Canceled {
		t.Errorf("pre-cancelled Discover returned %v, want context.Canceled", err)
	}
}

func TestDiscoverVersionTracksMutation(t *testing.T) {
	ds := datagen.Generate(datagen.Config{Tuples: 400, Seed: 3})
	s := New()
	s.RegisterTable(ds.Clean)
	rep1, err := s.Discover(context.Background(), "customer", WithMinSupport(20))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Insert("customer", rowOf("x", "UK", "Edi", "EH1", "May", 44, 131)); err != nil {
		t.Fatal(err)
	}
	rep2, err := s.Discover(context.Background(), "customer", WithMinSupport(20))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Version <= rep1.Version {
		t.Errorf("version did not advance after a write: %d -> %d", rep1.Version, rep2.Version)
	}
	if rep2.Tuples != rep1.Tuples+1 {
		t.Errorf("tuples = %d, want %d", rep2.Tuples, rep1.Tuples+1)
	}
}

func TestTablesHidesArtifacts(t *testing.T) {
	s := session(t)
	if _, err := s.Detect(context.Background(), "customer", WithEngine(SQLDetection)); err != nil {
		t.Fatal(err)
	}
	for _, n := range s.Tables() {
		if strings.HasPrefix(n, "_") || strings.HasPrefix(n, "cfd_tp_") {
			t.Errorf("artifact %q listed", n)
		}
	}
}

// TestDetectorKindMatrix pins the engine-name round-trip and that every
// kind produces an equivalent report through the session facade (the
// columnar and parallel engines additionally share the cache keyed per
// kind).
func TestDetectorKindMatrix(t *testing.T) {
	names := map[DetectorKind]string{
		SQLDetection:      "sql",
		ParallelDetection: "parallel",
		ColumnarDetection: "columnar",
	}
	for kind, name := range names {
		if kind.String() != name {
			t.Errorf("String(%d) = %q, want %q", int(kind), kind.String(), name)
		}
		parsed, err := ParseDetectorKind(name)
		if err != nil || parsed != kind {
			t.Errorf("ParseDetectorKind(%q) = %v, %v", name, parsed, err)
		}
	}
	if kind, err := ParseDetectorKind("native"); err != nil || kind != ColumnarDetection {
		t.Errorf(`ParseDetectorKind("native") = %v, %v; want the columnar alias`, kind, err)
	}
	if _, err := ParseDetectorKind("vectorized"); err == nil {
		t.Error("ParseDetectorKind accepted an unknown engine")
	}

	s := session(t)
	base, err := s.Detect(context.Background(), "customer", WithEngine(SQLDetection))
	if err != nil {
		t.Fatal(err)
	}
	for kind := range names {
		rep, err := s.Detect(context.Background(), "customer", WithEngine(kind))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if err := detect.Equivalent(base, rep); err != nil {
			t.Errorf("%s vs sql: %v", kind, err)
		}
	}
}

// TestReloadKeepsOnlyValidCFDs pins RegisterTable's contract for a table it
// replaces: constraints that still validate against the new schema stay (the
// same pointers, so a same-schema reload changes nothing a request can see),
// the rest are dropped — a constraint naming a column the new table lacks
// used to fail every later Detect/Audit/Repair and RegisterCFDs itself, with
// no way to unregister it.
func TestReloadKeepsOnlyValidCFDs(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name, csv string
		keep      []string // ids that survive the reload
		fresh     string   // registered afterwards; must succeed
	}{
		{"same-schema", customersCSV, []string{"phi2", "phi4"}, "phi5@ customer: [ZIP=_] -> [CITY=_]"},
		{"renamed-column", strings.Replace(customersCSV, "STR", "STREET", 1), []string{"phi4"},
			"phi5@ customer: [CNT=UK, ZIP=_] -> [STREET=_]"},
		{"narrower-schema", "X,Y\n1,2\n1,3\n", nil, "phi5@ customer: [X=_] -> [Y=_]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := session(t)
			before := s.CFDs("customer")
			if _, err := s.LoadCSV("customer", strings.NewReader(tc.csv)); err != nil {
				t.Fatal(err)
			}
			after := s.CFDs("customer")
			if len(after) != len(tc.keep) {
				t.Fatalf("kept %v, want ids %v", after, tc.keep)
			}
			for i, c := range after {
				if c.ID != tc.keep[i] {
					t.Errorf("kept[%d] = %s, want %s", i, c.ID, tc.keep[i])
				}
				if !slices.Contains(before, c) {
					t.Errorf("%s was re-created; a kept constraint must be the registered pointer", c.ID)
				}
			}
			if _, err := s.RegisterCFDText("customer", tc.fresh); err != nil {
				t.Fatalf("registering after the reload: %v", err)
			}
			if _, err := s.Detect(ctx, "customer", WithEngine(ColumnarDetection)); err != nil {
				t.Errorf("Detect after the reload: %v", err)
			}
			if _, err := s.Audit(ctx, "customer"); err != nil {
				t.Errorf("Audit after the reload: %v", err)
			}
			if _, err := s.Repair(ctx, "customer"); err != nil {
				t.Errorf("Repair after the reload: %v", err)
			}
		})
	}
}
