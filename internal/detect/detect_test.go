package detect

import (
	"context"
	"maps"
	"strings"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/cfddef"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/sqleng"
	"semandaq/internal/types"
)

// paperStore builds the paper's running example: a customer table with the
// Fig. 3 flavour of errors and the φ1/φ2/φ4 CFDs.
func paperStore(t *testing.T) (*relstore.Store, *relstore.Table, []*cfd.CFD) {
	t.Helper()
	store := relstore.NewStore()
	tab, err := store.Create(schema.New("customer", "NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"))
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]string{
		// Two UK tuples sharing a ZIP but with different STR: multi-tuple
		// violation of phi2.
		{"Mike", "UK", "Edinburgh", "EH2 4SD", "Mayfield", "44", "131"},
		{"Rick", "UK", "Edinburgh", "EH2 4SD", "Crichton", "44", "131"},
		// CC=44 but CNT=US: single-tuple violation of phi4.
		{"Joe", "US", "New York", "01202", "Mtn Ave", "44", "908"},
		// Clean tuples.
		{"Ann", "UK", "London", "SW1A 1AA", "Downing", "44", "20"},
		{"Ben", "US", "Chicago", "60601", "Wacker", "1", "312"},
	}
	for _, r := range rows {
		row := make(relstore.Tuple, len(r))
		for i, f := range r {
			row[i] = types.Parse(f)
		}
		tab.MustInsert(row)
	}
	cfds, err := cfd.ParseSet(`
phi1@ customer: [CNT=_, ZIP=_] -> [CITY=_]
phi2@ customer: [CNT=UK, ZIP=_] -> [STR=_]
phi4@ customer: [CC=44] -> [CNT=UK]
`)
	if err != nil {
		t.Fatal(err)
	}
	return store, tab, cfds
}

// detectors builds the detector of every engine name the CLI and the wire
// accept, the "native" alias of columnar included, keyed by that name; the
// parallel engine runs on four workers.
func detectors(t testing.TB, store *relstore.Store) map[string]Detector {
	t.Helper()
	dets := map[string]Detector{}
	for _, name := range []string{"sql", "native", "columnar", "parallel"} {
		kind, err := ParseEngineKind(name)
		if err != nil {
			t.Fatal(err)
		}
		if dets[name], err = NewDetector(kind, Config{Workers: 4, Store: store}); err != nil {
			t.Fatal(err)
		}
	}
	return dets
}

// sqlReport is the SQL engine's report over snap, the flat report the
// factorised core's must DeepEqual.
func sqlReport(t testing.TB, snap *relstore.Snapshot, cfds []*cfd.CFD) *Report {
	t.Helper()
	return sqlFactorised(t, snap, cfds).Explode()
}

// sqlFactorised is sqlReport's factorised form.
func sqlFactorised(t testing.TB, snap *relstore.Snapshot, cfds []*cfd.CFD) *FactorReport {
	t.Helper()
	store := relstore.NewStore()
	if _, err := store.Create(snap.Schema()); err != nil {
		t.Fatal(err)
	}
	fr, err := NewSQLDetector(store).DetectFactorised(context.Background(), snap, cfds)
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

// checkDefinition holds a report's vio(t) and per-CFD counts to the paper's
// definition, run literally over snap (cfddef.Check), which shares no code
// with the engines.
func checkDefinition(t testing.TB, who string, snap *relstore.Snapshot, cfds []*cfd.CFD, rep *Report) {
	t.Helper()
	vio, per := cfddef.Check(snap, cfds)
	if !maps.Equal(rep.Vio, vio) {
		t.Errorf("%s: vio(t) differs from the definition:\n got  %v\n want %v", who, rep.Vio, vio)
	}
	if len(rep.PerCFD) != len(per) {
		t.Errorf("%s: %d per-CFD entries, the definition has %d", who, len(rep.PerCFD), len(per))
	}
	for id, n := range per {
		if st := rep.PerCFD[id]; st == nil || cfddef.Counts(*st) != n {
			t.Errorf("%s: CFD %s counts %+v, the definition's %+v", who, id, st, n)
		}
	}
}

func TestPaperExampleBothDetectors(t *testing.T) {
	store, tab, cfds := paperStore(t)
	for name, det := range detectors(t, store) {
		t.Run(name, func(t *testing.T) {
			rep, err := det.Detect(context.Background(), tab, cfds)
			if err != nil {
				t.Fatal(err)
			}
			if rep.TupleCount != 5 {
				t.Errorf("tuple count = %d", rep.TupleCount)
			}
			// Mike and Rick: multi-tuple violators of phi2 (1 partner each).
			// Joe: single-tuple violator of phi4.
			if len(rep.Vio) != 3 {
				t.Fatalf("dirty tuples = %v", rep.Vio)
			}
			if rep.Vio[0] != 1 || rep.Vio[1] != 1 {
				t.Errorf("vio(Mike)=%d vio(Rick)=%d, want 1,1", rep.Vio[0], rep.Vio[1])
			}
			if rep.Vio[2] != 1 {
				t.Errorf("vio(Joe)=%d, want 1", rep.Vio[2])
			}
			st2 := rep.PerCFD["phi2"]
			if st2 == nil || st2.MultiTuple != 2 || st2.Groups != 1 || st2.SingleTuple != 0 {
				t.Errorf("phi2 stats = %+v", st2)
			}
			st4 := rep.PerCFD["phi4"]
			if st4 == nil || st4.SingleTuple != 1 || st4.MultiTuple != 0 {
				t.Errorf("phi4 stats = %+v", st4)
			}
			// phi1 is satisfied.
			st1 := rep.PerCFD["phi1"]
			if st1 == nil || st1.SingleTuple+st1.MultiTuple != 0 {
				t.Errorf("phi1 stats = %+v", st1)
			}
			if rep.MaxVio() != 1 {
				t.Errorf("MaxVio = %d", rep.MaxVio())
			}
			dirty := rep.DirtyTuples()
			if len(dirty) != 3 || dirty[0] != 0 || dirty[2] != 2 {
				t.Errorf("dirty = %v", dirty)
			}
		})
	}
}

func TestSingleTupleViolationDetails(t *testing.T) {
	_, tab, cfds := paperStore(t)
	rep, err := ColumnarDetector{Workers: 1}.Detect(context.Background(), tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	var v *Violation
	for i := range rep.Violations {
		if rep.Violations[i].Kind == SingleTuple {
			v = &rep.Violations[i]
			break
		}
	}
	if v == nil {
		t.Fatal("no single-tuple violation found")
	}
	if v.CFDID != "phi4" || v.Attr != "CNT" {
		t.Errorf("violation = %+v", v)
	}
	if v.Expected.String() != "UK" || v.Got.String() != "US" {
		t.Errorf("expected/got = %v/%v", v.Expected, v.Got)
	}
	if v.Kind.String() != "single-tuple" || MultiTuple.String() != "multi-tuple" {
		t.Error("Kind.String")
	}
}

func TestGroupsStructure(t *testing.T) {
	store, tab, cfds := paperStore(t)
	for name, det := range detectors(t, store) {
		t.Run(name, func(t *testing.T) {
			rep, err := det.Detect(context.Background(), tab, cfds)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Groups) != 1 {
				t.Fatalf("groups = %d", len(rep.Groups))
			}
			g := rep.Groups[0]
			if g.CFDID != "phi2" || g.Attr != "STR" {
				t.Errorf("group = %+v", g)
			}
			if len(g.Members) != 2 || len(g.RHSCounts) != 2 {
				t.Errorf("members = %v counts = %v", g.Members, g.RHSCounts)
			}
			if g.MajoritySize() != 1 {
				t.Errorf("majority = %d", g.MajoritySize())
			}
		})
	}
}

func TestMultiplePatternsMerged(t *testing.T) {
	// Two constant patterns on the same FD: still one CFD after merging,
	// violations found under both.
	store := relstore.NewStore()
	tab, _ := store.Create(schema.New("r", "CC", "CNT"))
	ins := func(cc int64, cnt string) {
		tab.MustInsert(relstore.Tuple{types.NewInt(cc), types.NewString(cnt)})
	}
	ins(44, "UK") // clean
	ins(44, "US") // violates 44->UK
	ins(1, "UK")  // violates 1->US
	ins(1, "US")  // clean
	cfds, err := cfd.ParseSet(`
r: [CC=44] -> [CNT=UK]
r: [CC=1] -> [CNT=US]
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfds) != 1 || len(cfds[0].Tableau) != 2 {
		t.Fatalf("expected merged CFD, got %+v", cfds)
	}
	for name, det := range detectors(t, store) {
		t.Run(name, func(t *testing.T) {
			rep, err := det.Detect(context.Background(), tab, cfds)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Vio) != 2 {
				t.Errorf("vio = %v", rep.Vio)
			}
			if rep.Vio[1] != 1 || rep.Vio[2] != 1 {
				t.Errorf("vio = %v", rep.Vio)
			}
		})
	}
}

func TestVioCountsPartners(t *testing.T) {
	// Group of 4: three agree on RHS, one differs. The odd one has 3
	// partners; each majority member has 1.
	store := relstore.NewStore()
	tab, _ := store.Create(schema.New("r", "ZIP", "STR"))
	ins := func(zip, str string) relstore.TupleID {
		return tab.MustInsert(relstore.Tuple{types.NewString(zip), types.NewString(str)})
	}
	a := ins("Z1", "Main")
	b := ins("Z1", "Main")
	c := ins("Z1", "Main")
	d := ins("Z1", "Elm")
	ins("Z2", "Oak") // other group, clean
	fd := cfd.NewFD("f", "r", []string{"ZIP"}, []string{"STR"})
	for name, det := range detectors(t, store) {
		t.Run(name, func(t *testing.T) {
			rep, err := det.Detect(context.Background(), tab, []*cfd.CFD{fd})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Vio[d] != 3 {
				t.Errorf("vio(odd) = %d, want 3", rep.Vio[d])
			}
			for _, id := range []relstore.TupleID{a, b, c} {
				if rep.Vio[id] != 1 {
					t.Errorf("vio(%d) = %d, want 1", id, rep.Vio[id])
				}
			}
			if len(rep.Groups) != 1 || rep.Groups[0].MajoritySize() != 3 {
				t.Errorf("groups = %+v", rep.Groups)
			}
		})
	}
}

func TestCleanTable(t *testing.T) {
	store := relstore.NewStore()
	tab, _ := store.Create(schema.New("r", "A", "B"))
	tab.MustInsert(relstore.Tuple{types.NewString("x"), types.NewString("1")})
	tab.MustInsert(relstore.Tuple{types.NewString("y"), types.NewString("2")})
	fd := cfd.NewFD("f", "r", []string{"A"}, []string{"B"})
	for name, det := range detectors(t, store) {
		t.Run(name, func(t *testing.T) {
			rep, err := det.Detect(context.Background(), tab, []*cfd.CFD{fd})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) != 0 || len(rep.Vio) != 0 || rep.MaxVio() != 0 {
				t.Errorf("clean table produced %+v", rep.Violations)
			}
		})
	}
}

func TestNullSemanticsConsistent(t *testing.T) {
	// NULLs: a NULL LHS never matches a constant pattern cell; NULL RHS is
	// not a single-tuple violation; NULL groups as an ordinary value in
	// multi-tuple detection. Both engines must agree with the definition.
	store := relstore.NewStore()
	tab, _ := store.Create(schema.New("r", "A", "B"))
	ins := func(a, b types.Value) { tab.MustInsert(relstore.Tuple{a, b}) }
	ins(types.NewString("k"), types.Null)           // NULL RHS
	ins(types.NewString("k"), types.NewString("v")) // conflicts with NULL above
	ins(types.Null, types.NewString("x"))           // NULL LHS
	ins(types.Null, types.NewString("y"))           // NULL LHS, different RHS
	cfds, err := cfd.ParseSet(`
r: [A=_] -> [B=_]
r: [A=k] -> [B=v]
`)
	if err != nil {
		t.Fatal(err)
	}
	columnar, err := ColumnarDetector{Workers: 1}.Detect(context.Background(), tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	sqlRep, err := NewSQLDetector(store).Detect(context.Background(), tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	if err := Equivalent(sqlRep, columnar); err != nil {
		t.Fatalf("detectors disagree: %v", err)
	}
	checkDefinition(t, "sql", tab.Snapshot(), cfds, sqlRep)
	// The k-group {NULL, v} counts NULL as a distinct value: group of 2.
	// The NULL-LHS group {x, y} also violates.
	if len(columnar.Groups) != 2 {
		t.Errorf("groups = %d", len(columnar.Groups))
	}
	// No single-tuple violation: B=NULL under [A=k]->[B=v] is not flagged.
	for _, v := range columnar.Violations {
		if v.Kind == SingleTuple {
			t.Errorf("unexpected single-tuple violation %+v", v)
		}
	}
}

// TestIntFloatPastFloatPrecision: INT 2^53+1 and FLOAT 2^53 are distinct
// values, though float64 rounds the INT onto the FLOAT. As LHS values they
// form no group, and as RHS values of one group they disagree, in every
// engine and in the definition alike. With the INT rounded through float64
// in Compare, the definition grouped the first table's rows (vio(t)
// {0:1, 1:1}) where the columnar engine, on Equal-class codes, found none.
func TestIntFloatPastFloatPrecision(t *testing.T) {
	const p53 = 1 << 53
	k := types.NewString("k")
	for _, c := range []struct {
		name  string
		rows  []relstore.Tuple
		dirty int
	}{
		{"lhs", []relstore.Tuple{{types.NewInt(p53 + 1), types.NewString("a")}, {types.NewFloat(p53), types.NewString("b")}}, 0},
		{"rhs", []relstore.Tuple{{k, types.NewInt(p53 + 1)}, {k, types.NewFloat(p53)}}, 2},
		{"equal", []relstore.Tuple{{types.NewInt(p53), types.NewString("a")}, {types.NewFloat(p53), types.NewString("b")}}, 2},
	} {
		store := relstore.NewStore()
		tab, _ := store.Create(schema.New("r", "A", "B"))
		for _, row := range c.rows {
			tab.MustInsert(row)
		}
		cfds, err := cfd.ParseSet("r: [A=_] -> [B=_]")
		if err != nil {
			t.Fatal(err)
		}
		columnar, err := ColumnarDetector{}.Detect(context.Background(), tab, cfds)
		if err != nil {
			t.Fatal(err)
		}
		sqlRep := sqlReport(t, tab.Snapshot(), cfds)
		if err := Equivalent(sqlRep, columnar); err != nil {
			t.Errorf("%s: columnar and SQL disagree: %v", c.name, err)
		}
		checkDefinition(t, c.name, tab.Snapshot(), cfds, columnar)
		if len(columnar.Vio) != c.dirty {
			t.Errorf("%s: vio(t) %v, want %d dirty", c.name, columnar.Vio, c.dirty)
		}
	}
}

func TestDetectValidatesCFDs(t *testing.T) {
	store, tab, _ := paperStore(t)
	bad, err := cfd.ParseSet("customer: [NOPE=_] -> [CITY=_]")
	if err != nil {
		t.Fatal(err)
	}
	for name, det := range detectors(t, store) {
		t.Run(name, func(t *testing.T) {
			if _, err := det.Detect(context.Background(), tab, bad); err == nil {
				t.Error("unknown attribute should fail")
			}
		})
	}
}

func TestSQLDetectorRequiresRegisteredTable(t *testing.T) {
	store, _, cfds := paperStore(t)
	other := relstore.NewTable(schema.New("customer", "NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"))
	if _, err := NewSQLDetector(store).Detect(context.Background(), other, cfds); err == nil {
		t.Error("unregistered table should fail")
	}
}

func TestSQLDetectorCleansUpArtifacts(t *testing.T) {
	store, tab, cfds := paperStore(t)
	d := NewSQLDetector(store)
	if _, err := d.Detect(context.Background(), tab, cfds); err != nil {
		t.Fatal(err)
	}
	for _, name := range store.Names() {
		if strings.HasPrefix(name, "_tp_") {
			t.Errorf("artifact %q left in store", name)
		}
	}
	// KeepArtifacts leaves the tableau tables.
	d.KeepArtifacts = true
	if _, err := d.Detect(context.Background(), tab, cfds); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range store.Names() {
		if strings.HasPrefix(name, "_tp_") {
			found = true
		}
	}
	if !found {
		t.Error("KeepArtifacts should leave tableau tables")
	}
}

func TestSQLTrace(t *testing.T) {
	store, tab, cfds := paperStore(t)
	d := NewSQLDetector(store)
	var queries []string
	d.Trace = func(sql string) { queries = append(queries, sql) }
	if _, err := d.Detect(context.Background(), tab, cfds); err != nil {
		t.Fatal(err)
	}
	// phi1: Qv only (1 or 2 queries depending on hits); phi2: Qv + join
	// back; phi4: Qc. At least 3 queries total.
	if len(queries) < 3 {
		t.Errorf("traced %d queries: %v", len(queries), queries)
	}
	for _, q := range queries {
		if !strings.HasPrefix(q, "SELECT") {
			t.Errorf("unexpected statement %q", q)
		}
	}
}

// TestGenerateSQL: the printed statements have the paper's shape and run
// as printed on the tableau tables a detection leaves behind: Qc (SELECT
// t.*) returns one row of the data table per single-tuple violation of its
// CFD, Qv one row per violating group.
func TestGenerateSQL(t *testing.T) {
	store, tab, cfds := paperStore(t)
	stmts, err := GenerateSQL(tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	// phi1 (variable), phi2 (variable), phi4 (constant) → 3 statements.
	if len(stmts) != 3 {
		t.Fatalf("statements = %d:\n%s", len(stmts), strings.Join(stmts, "\n"))
	}
	joined := strings.Join(stmts, "\n")
	if !strings.Contains(joined, "GROUP BY") || !strings.Contains(joined, "COUNT(DISTINCT") {
		t.Errorf("Qv shape missing:\n%s", joined)
	}
	if !strings.Contains(joined, "Qc") || !strings.Contains(joined, "Qv") {
		t.Errorf("comments missing:\n%s", joined)
	}

	d := &SQLDetector{Engine: sqleng.New(store), KeepArtifacts: true}
	rep, err := d.Detect(context.Background(), tab, cfds)
	if err != nil {
		t.Fatal(err)
	}
	singles, groups := map[string]int{}, map[string]int{}
	for _, v := range rep.Violations {
		if v.Kind == SingleTuple {
			singles[v.CFDID]++
		}
	}
	for _, g := range rep.Groups {
		groups[g.CFDID]++
	}
	rows := 0
	for _, stmt := range stmts {
		header, _, _ := strings.Cut(stmt, "\n")
		id, kind, _ := strings.Cut(strings.TrimPrefix(header, "-- "), ": ")
		res, err := sqleng.New(store).QueryContext(context.Background(), stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		want := groups[id]
		if strings.HasPrefix(kind, "Qc") {
			want = singles[id]
			if len(res.Columns) != len(tab.Schema().Attrs) {
				t.Errorf("%s\nprojects %v, want the data table's columns", stmt, res.Columns)
			}
		}
		if len(res.Rows) != want {
			t.Errorf("%s\nreturned %d rows, want %d", stmt, len(res.Rows), want)
		}
		rows += len(res.Rows)
	}
	if rows == 0 {
		t.Error("no statement returned a row; the test lost its subject")
	}
}

func TestEquivalentDetectsDifferences(t *testing.T) {
	a := &Report{TupleCount: 1, Vio: map[relstore.TupleID]int{}, PerCFD: map[string]*CFDStats{}}
	b := &Report{TupleCount: 2, Vio: map[relstore.TupleID]int{}, PerCFD: map[string]*CFDStats{}}
	if err := Equivalent(a, b); err == nil {
		t.Error("tuple count difference not caught")
	}
	b.TupleCount = 1
	b.Vio[1] = 1
	if err := Equivalent(a, b); err == nil {
		t.Error("vio difference not caught")
	}
	delete(b.Vio, 1)
	b.PerCFD["x"] = &CFDStats{SingleTuple: 1}
	if err := Equivalent(a, b); err == nil {
		t.Error("per-CFD difference not caught")
	}
	if err := Equivalent(a, &Report{TupleCount: 1, Vio: map[relstore.TupleID]int{}, PerCFD: map[string]*CFDStats{}}); err != nil {
		t.Errorf("equal reports flagged: %v", err)
	}
}

func TestMultiAttributeRHSNormalized(t *testing.T) {
	// A CFD with a two-attribute RHS splits; violations are reported per
	// normalized CFD.
	store := relstore.NewStore()
	tab, _ := store.Create(schema.New("r", "K", "A", "B"))
	ins := func(k, a, b string) {
		tab.MustInsert(relstore.Tuple{types.NewString(k), types.NewString(a), types.NewString(b)})
	}
	ins("k1", "a1", "b1")
	ins("k1", "a2", "b1") // violates K->A only
	c := cfd.NewFD("f", "r", []string{"K"}, []string{"A", "B"})
	for name, det := range detectors(t, store) {
		t.Run(name, func(t *testing.T) {
			rep, err := det.Detect(context.Background(), tab, []*cfd.CFD{c})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.PerCFD) != 2 {
				t.Fatalf("normalized CFDs = %d", len(rep.PerCFD))
			}
			if st := rep.PerCFD["f.A"]; st == nil || st.MultiTuple != 2 {
				t.Errorf("f.A stats = %+v", st)
			}
			if st := rep.PerCFD["f.B"]; st == nil || st.MultiTuple != 0 {
				t.Errorf("f.B stats = %+v", st)
			}
		})
	}
}
