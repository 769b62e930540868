package detect

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/datagen"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/sqleng"
	"semandaq/internal/types"
)

// TestSQLNullIsNotASentinel: NULL and the string "\x00null" (the value the
// generated SQL used to COALESCE NULL onto) are different values, on the
// LHS — where a join of the groups back to the data matched each tuple with
// both groups and reported every member twice — and on the RHS, where a group holding
// exactly {NULL, "\x00null"} counted one distinct value and went
// unreported. The definition is the reference, and the columnar detector
// the reference for the groups.
func TestSQLNullIsNotASentinel(t *testing.T) {
	sentinel := types.NewString("\x00null")
	str := types.NewString
	for name, rows := range map[string][]relstore.Tuple{
		"lhs": {{types.Null, str("x")}, {types.Null, str("y")}, {sentinel, str("p")}, {sentinel, str("q")}},
		"rhs": {{str("k"), types.Null}, {str("k"), sentinel}, {str("m"), types.Null}, {str("m"), types.Null}},
	} {
		store := relstore.NewStore()
		tab, err := store.Create(schema.New("r", "A", "B"))
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			tab.MustInsert(row)
		}
		cfds, err := cfd.ParseSet("r: [A=_] -> [B=_]")
		if err != nil {
			t.Fatal(err)
		}
		columnar, err := ColumnarDetector{Workers: 1}.Detect(context.Background(), tab, cfds)
		if err != nil {
			t.Fatal(err)
		}
		sql, err := NewSQLDetector(store).Detect(context.Background(), tab, cfds)
		if err != nil {
			t.Fatal(err)
		}
		checkDefinition(t, name+": sql", tab.Snapshot(), cfds, sql)
		members := func(rep *Report) (out [][]relstore.TupleID) {
			for _, g := range rep.Groups {
				out = append(out, g.Members)
			}
			return out
		}
		if !reflect.DeepEqual(columnar.Groups, sql.Groups) || len(columnar.Violations) != len(sql.Violations) {
			t.Errorf("%s: columnar has %d violations, members %v; sql %d, members %v", name,
				len(columnar.Violations), members(columnar), len(sql.Violations), members(sql))
		}
	}
}

// TestSQLDetectOnClassesThatMixKinds: the LHS column A holds INT 1 beside
// FLOAT 1.0 and FLOAT -0 beside +0, two exact codes per Equal class, so
// the class walk decides each of Qv's and Qc's classes on Equal codes and
// Qv's keys resolve to classes that mix codes. The SQL report is the
// columnar one, and both are the definition's.
func TestSQLDetectOnClassesThatMixKinds(t *testing.T) {
	store := relstore.NewStore()
	tab, err := store.Create(schema.New("v", "A", "B", "C"))
	if err != nil {
		t.Fatal(err)
	}
	as := []types.Value{types.NewInt(1), types.NewFloat(1.0), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(0), types.NewInt(2)}
	for i := range 40 {
		tab.MustInsert(relstore.Tuple{as[i%5], types.NewString([]string{"x", "y"}[i%2]), types.NewString([]string{"p", "q"}[i%7%2])})
	}
	cfds, err := cfd.ParseSet("v: [A=_, B=_] -> [C=_]\nv: [A=1, B=_] -> [C=p]\nv: [A=0, B=x] -> [C=q]")
	if err != nil {
		t.Fatal(err)
	}
	snap := tab.Snapshot()
	sql, err := NewSQLDetector(store).DetectSnapshot(context.Background(), snap, cfds)
	if err != nil {
		t.Fatal(err)
	}
	columnar, err := ColumnarDetector{Workers: 1}.DetectSnapshot(context.Background(), snap, cfds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sql, columnar) {
		t.Error("the SQL report differs from the columnar one")
	}
	checkDefinition(t, "sql", snap, cfds, sql)
	broken := map[int]bool{} // the merged CFD's constant patterns that rows break
	for _, v := range sql.Violations {
		if v.Kind == SingleTuple {
			broken[v.Pattern] = true
		}
	}
	if len(sql.Groups) == 0 || len(broken) != 2 {
		t.Errorf("%d groups, constant patterns broken %v: want groups and both patterns", len(sql.Groups), broken)
	}
}

// sparseCustomers returns a registered n-tuple customer table that is clean
// but for typos in the STR of a given number of UK tuples (each makes its
// whole ZIP group violate phi2) — the shape of the benchmark's
// sqldetect-sparse workload.
func sparseCustomers(t testing.TB, n, typos int) (*relstore.Store, *relstore.Table) {
	t.Helper()
	tab := datagen.Generate(datagen.Config{Tuples: n, Seed: 1}).Clean
	snap := tab.Snapshot()
	rows, ids := snap.Rows(), snap.Columnar().IDs()
	rng := rand.New(rand.NewSource(1))
	for typos > 0 {
		if i := rng.Intn(len(rows)); rows[i][1].Str() == "UK" {
			if _, err := tab.SetCell(ids[i], 4, types.NewString(rows[i][4].Str()+"x")); err != nil {
				t.Fatal(err)
			}
			typos--
		}
	}
	store := relstore.NewStore()
	store.Put(tab)
	return store, tab
}

// TestSQLDetectMaterialisesOnlyOutput: every predicate, join key, GROUP BY
// key and aggregate of the generated statements runs on dictionary codes,
// so each statement fetches exactly its output — rows out times projected
// columns — from the dictionaries, whatever the size of the table.
func TestSQLDetectMaterialisesOnlyOutput(t *testing.T) {
	store, tab := sparseCustomers(t, 5000, 25)
	var stmts []string
	d := &SQLDetector{Engine: sqleng.New(store), KeepArtifacts: true, Trace: func(s string) { stmts = append(stmts, s) }}
	rep, err := d.Detect(context.Background(), tab, datagen.StandardCFDs())
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 4 || len(rep.Groups) == 0 {
		t.Fatalf("%d statements, %d groups: want the four statements of a phi2-only dirty table", len(stmts), len(rep.Groups))
	}
	out := 0
	for _, sql := range stmts {
		before := d.Engine.OpStats().ValuesMaterialized
		res, err := d.Engine.QueryContext(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		out += len(res.Rows)
		if got, want := d.Engine.OpStats().ValuesMaterialized-before, int64(len(res.Rows)*len(res.Columns)); got > want {
			t.Errorf("%d values materialised for %d rows x %d columns by\n%s", got, len(res.Rows), len(res.Columns), sql)
		}
	}
	if out == 0 {
		t.Fatal("the statements returned no rows: the bound was not exercised")
	}
}

// TestSQLDetectAllocsIndependentOfSize: on clean tables a SQL detection
// allocates for its plans and a few growing vectors, not per tuple or per
// group — four times the table (and four times the LHS groups) moves the
// allocation count by under 5 %.
func TestSQLDetectAllocsIndependentOfSize(t *testing.T) {
	allocs := func(n int) float64 {
		store, tab := sparseCustomers(t, n, 0)
		snap, cfds := tab.Snapshot(), datagen.StandardCFDs()
		snap.Columnar()
		return testing.AllocsPerRun(5, func() {
			rep, err := NewSQLDetector(store).DetectSnapshot(context.Background(), snap, cfds)
			if err != nil || len(rep.Violations) != 0 {
				t.Fatalf("clean table: %d violations, err %v", len(rep.Violations), err)
			}
		})
	}
	small, large := allocs(5000), allocs(20000)
	if large > small*1.05 || large < small*0.95 {
		t.Errorf("allocations per detection: %.0f on 5k tuples, %.0f on 20k", small, large)
	}
}

// TestSQLGroupsResolveOnCodes holds the SQL detector's factorised report —
// Qv's keys resolved on column codes to classes of the LHS partition — to
// the columnar core's (DeepEqual) and to the definition (cfddef.Check) on
// the shapes that step can get wrong. A case with leave re-checks after
// deleting those rows from a warmed snapshot, so the detection reads a
// patched lineage whose dictionaries keep the departed values as dead
// codes.
func TestSQLGroupsResolveOnCodes(t *testing.T) {
	str, num, flt := types.NewString, types.NewInt, types.NewFloat
	null := types.Null
	fd := "r: [A=_] -> [B=_]"
	for _, tc := range []struct {
		name  string
		cfds  string
		rows  [][]types.Value // A, B, C, D
		leave []int           // rows deleted after the first check; each holds a value no other row does
	}{
		{"null-lhs", fd, [][]types.Value{
			{null, str("x0"), null, null}, {null, str("y"), null, null}, {null, str("x"), null, null},
			{str("a"), str("p"), null, null}, {str("a"), str("p"), null, null},
		}, []int{0}},
		{"null-rhs-class", fd, [][]types.Value{
			{str("k"), null, null, null}, {str("k"), str("x"), null, null}, {str("m"), null, null, null}, {str("m"), null, null, null},
		}, nil},
		{"int-float-lhs", fd, [][]types.Value{
			{num(1), str("x"), null, null}, {flt(1), str("y"), null, null}, {flt(1), str("x"), null, null},
		}, []int{0}},
		{"int-float-rhs", fd, [][]types.Value{
			{str("k"), num(1), null, null}, {str("k"), flt(1), null, null}, {str("k"), num(2), null, null},
			{str("m"), flt(1), null, null}, {str("m"), flt(1), null, null},
		}, []int{0}},
		{"shared-lhs", "phi1@ r: [A=_, B=_] -> [C=_]\nphi2@ r: [A=x, B=_] -> [D=_]", [][]types.Value{
			{str("x"), num(1), str("c1"), str("d1")}, {str("x"), num(1), str("c2"), str("d9")},
			{str("x"), num(2), str("c1"), str("d1")}, {str("x"), num(2), str("c1"), str("d2")},
			{str("y"), num(1), str("c1"), str("d1")}, {str("y"), num(1), str("c2"), str("d1")},
		}, []int{1}},
		{"separator", "r: [A=_, B=_] -> [C=_]", [][]types.Value{
			{str("a\x1f"), str("b"), str("c1"), null}, {str("a"), str("\x1fb"), str("c2"), null},
			{str("2:sa"), str(""), str("c1"), null}, {str(""), str("2:sa"), str("c2"), null},
			{str("1:s"), str("a"), str("c0"), null}, {str("1:s"), str("a"), str("c2"), null}, {str("1:s"), str("a"), str("c3"), null},
		}, []int{4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfds, err := cfd.ParseSet(tc.cfds)
			if err != nil {
				t.Fatal(err)
			}
			store := relstore.NewStore()
			tab, err := store.Create(schema.New("r", "A", "B", "C", "D"))
			if err != nil {
				t.Fatal(err)
			}
			var ids []relstore.TupleID
			for _, row := range tc.rows {
				ids = append(ids, tab.MustInsert(row))
			}
			check := func(when string) {
				t.Helper()
				snap := tab.Snapshot()
				sql, err := NewSQLDetector(store).DetectFactorised(context.Background(), snap, cfds)
				if err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				col, err := DetectFactorised(context.Background(), snap, cfds)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sql, col) {
					t.Errorf("%s: the sql report differs from the columnar one\nsql:      %+v\ncolumnar: %+v", when, sql.Explode(), col.Explode())
				}
				checkDefinition(t, when, snap, cfds, sql.Explode())
				if len(sql.FactorGroups) == 0 {
					t.Errorf("%s: no violating group: the case does not exercise Qv", when)
				}
			}
			check("built")
			if tc.leave == nil {
				return
			}
			cols := tab.Snapshot().Columnar()
			for j := 0; j < cols.NumCols(); j++ {
				cols.Col(j).EqProbe()
				cols.Col(j).EnsureKeys()
			}
			for _, i := range tc.leave {
				tab.Delete(ids[i])
			}
			check("patched")
			dead := false
			for j, cols := 0, tab.Snapshot().Columnar(); j < cols.NumCols(); j++ {
				dead = dead || cols.Col(j).CodeSpace() > cols.Col(j).Card()
			}
			if !dead {
				t.Error("patched: no dictionary keeps a dead code: the snapshot was rebuilt, not patched")
			}
		})
	}
}
