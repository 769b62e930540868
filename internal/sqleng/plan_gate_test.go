package sqleng_test

// Plan gates that need the SQL detector's own statements, or tables with an
// edit history, read the plan through sqleng.Plan (export_test.go).

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/datagen"
	"semandaq/internal/detect"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/sqleng"
	"semandaq/internal/types"
)

// sparseCustomers returns a registered n-tuple customer table that is clean
// but for typos in the STR of a given number of UK tuples — the shape of
// the benchmark's sqldetect-sparse workload.
func sparseCustomers(t *testing.T, n, typos int) (*relstore.Store, *relstore.Table) {
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

// traced runs a SQL detection of rules over snap, its tableau tables kept in
// the store, and returns the statements it ran.
func traced(t *testing.T, store *relstore.Store, snap *relstore.Snapshot, rules string) []string {
	t.Helper()
	cfds, err := cfd.ParseSet(rules)
	if err != nil {
		t.Fatal(err)
	}
	var stmts []string
	d := &detect.SQLDetector{Engine: sqleng.New(store), KeepArtifacts: true, Trace: func(s string) { stmts = append(stmts, s) }}
	if _, err := d.DetectSnapshot(context.Background(), snap, cfds); err != nil {
		t.Fatal(err)
	}
	return stmts
}

// TestExplainSaysWhichPathServes pins, on the detector's own statements
// (SQLDetector.Trace), the plan lines that say whether the class walk, its
// per-class counts and groups and the integer HAVING will run — and, on the
// same text pushed out of each rule, the line that says why not. (The
// statements pushed out of the grammar are rejection cases of
// TestParseRejectsValueLevelConstructs.)
func TestExplainSaysWhichPathServes(t *testing.T) {
	store, tab := sparseCustomers(t, 20000, 100)
	snap := tab.Snapshot()
	col := func(name string) int { return snap.Columnar().Col(snap.Schema().MustPos(name)).Card() }
	std := traced(t, store, snap, "phi2@ customer: [CNT=UK, ZIP=_] -> [STR=_]\nphi3@ customer: [CC=44] -> [CNT=UK]")
	if len(std) != 2 {
		t.Fatalf("%d statements, want phi2's Qv and phi3's Qc", len(std))
	}
	wide := traced(t, store, snap, "w@ customer: [NAME=_, ZIP=_] -> [CITY=_]")
	e := sqleng.New(store)
	for _, tc := range []struct {
		name string
		sql  string
		want []string
	}{
		{"Qv groups", std[0], []string{
			fmt.Sprintf("class walk on [t.CNT t.ZIP] space=%d rows=20000", col("CNT")*col("ZIP")),
			"sink group on codes(2) aggs=3, counts per class, a group per class, having on counts, project 2 cols"}},
		{"Qc", std[1], []string{
			fmt.Sprintf("class walk on [t.CC t.CNT] space=%d rows=20000", col("CC")*col("CNT")),
			"sink project 4 cols"}},
		{"Qv over a key", wide[0], []string{
			fmt.Sprintf("class walk off: space %d > half of rows 20000", col("NAME")),
			"sink group on codes(2) aggs=3, having on counts, project 2 cols"}},
		{"no driver column in WHERE, grouped off it", "SELECT t.CNT, COUNT(*) FROM customer t GROUP BY t.CNT", []string{
			"class walk off: WHERE reads no driver column and the sink takes rows one by one"}},
		{"no driver column in WHERE, counted whole", "SELECT COUNT(*) FROM customer t", []string{
			"class walk on [] space=1 rows=20000", "sink group on codes(0) aggs=1, counts per class, a group per class, project 1 cols"}},
		{"grouped on part of D", "SELECT t.CNT, COUNT(*) FROM customer t WHERE t.CNT <> 'x' AND t.ZIP <> 'y' GROUP BY t.CNT", []string{
			fmt.Sprintf("class walk on [t.CNT t.ZIP] space=%d rows=20000", col("CNT")*col("ZIP")),
			"sink group on codes(1) aggs=1, counts per class, project 2 cols"}},
	} {
		lines, err := sqleng.Plan(e, tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, want := range tc.want {
			if !slices.Contains(lines, want) {
				t.Errorf("%s: no line %q in the plan of\n%s\n%s", tc.name, want, tc.sql, strings.Join(lines, "\n"))
			}
		}
	}
}

// TestPlansMatchOnRebuiltSnapshot: plans read exact live statistics, so a
// snapshot patched through an edit history plans, line for line, like the
// snapshot rebuilt from its rows — though its dictionaries carry dead and
// out-of-order codes, a canonical code whose row is gone, and more dead
// codes in one column than another column has codes at all.
func TestPlansMatchOnRebuiltSnapshot(t *testing.T) {
	warm := func(tab *relstore.Table) {
		col := tab.Snapshot().Columnar()
		for j := 0; j < col.NumCols(); j++ {
			col.Col(j).EqProbe()
		}
	}
	check := func(name string, store *relstore.Store, tab *relstore.Table, sqls []string) {
		t.Helper()
		patched, rebuilt := tab.Snapshot(), tab.RebuildSnapshot()
		if err := relstore.DiffSnapshots(patched, rebuilt); err != nil {
			t.Fatal(err)
		}
		dead := 0
		for j, col := 0, patched.Columnar(); j < col.NumCols(); j++ {
			dead += col.Col(j).CodeSpace() - col.Col(j).Card()
		}
		if dead == 0 {
			t.Fatalf("%s: the patched snapshot has no dead code; the case lost its subject", name)
		}
		for _, sql := range sqls {
			var plans [2][]string
			for i, snap := range []*relstore.Snapshot{patched, rebuilt} {
				e := sqleng.New(store)
				e.Pin(snap)
				var err error
				if plans[i], err = sqleng.Plan(e, sql); err != nil {
					t.Fatalf("%s: %s: %v", name, sql, err)
				}
			}
			if !reflect.DeepEqual(plans[0], plans[1]) {
				t.Errorf("%s: %s\npatched:\n%s\nrebuilt:\n%s", name, sql, strings.Join(plans[0], "\n"), strings.Join(plans[1], "\n"))
			}
		}
	}

	// Dead codes: 40 values pass through row 0's A and die; a late value in
	// A has a code past every code of the rebuilt side.
	dead := relstore.NewTable(schema.New("t", "A", "B"))
	var ids []relstore.TupleID
	for i := 0; i < 24; i++ {
		ids = append(ids, dead.MustInsert(relstore.Tuple{
			types.NewString(fmt.Sprintf("v%d", i%4)), types.NewString(fmt.Sprintf("v%d", i%12))}))
	}
	warm(dead)
	for i := 0; i < 40; i++ {
		dead.SetCell(ids[0], 0, types.NewString(fmt.Sprintf("gone%d", i)))
		warm(dead)
	}
	dead.SetCell(ids[0], 0, types.NewString("v0"))
	dead.SetCell(ids[1], 0, types.NewString("v7"))
	store := relstore.NewStore()
	store.Put(dead)
	check("dead codes", store, dead, []string{
		`SELECT COUNT(*) FROM t WHERE A = B`,
		`SELECT t1.A, COUNT(*) FROM t t1, t t2 WHERE t1.A = t2.B GROUP BY t1.A`,
		`SELECT A, B FROM t WHERE A <> B AND (A = 'v7' OR A = 'gone3' OR A = 'v1')`,
	})

	// A dead canonical code: the {INT 1, FLOAT 1.0} class outlives INT 1's
	// only row.
	canon := relstore.NewTable(schema.New("t", "A", "B"))
	first := canon.MustInsert(relstore.Tuple{types.NewInt(1), types.NewString("x")})
	for i := 0; i < 4; i++ {
		canon.MustInsert(relstore.Tuple{types.NewFloat(1.0), types.NewString([]string{"x", "y"}[i%2])})
		canon.MustInsert(relstore.Tuple{types.NewInt(2), types.NewString("z")})
	}
	warm(canon)
	canon.Delete(first)
	store = relstore.NewStore()
	store.Put(canon)
	check("dead canonical", store, canon, []string{
		`SELECT A, B, COUNT(*) FROM t WHERE A = 1 GROUP BY A, B`,
		`SELECT t1.A FROM t t1, t t2 WHERE t1.A = t2.A AND t1.B <> t2.B`,
	})

	// An edit history under the detector's own statements: novel names,
	// typos, INT/FLOAT flips, reverts, deletes and re-inserts, each version
	// patched from a warm predecessor.
	tab := datagen.Generate(datagen.Config{Tuples: 400, Seed: 5, NoiseRate: 0.03}).Dirty
	sc, rng := tab.Schema(), rand.New(rand.NewSource(9))
	cc := sc.MustPos("CC")
	for op := 0; op < 200; op++ {
		snap := tab.Snapshot()
		id := snap.IDs()[rng.Intn(snap.Len())]
		row, _ := tab.Get(id)
		switch k := rng.Intn(5); k {
		case 0:
			tab.SetCell(id, sc.MustPos("NAME"), types.NewString(fmt.Sprintf("edit%04d", op)))
		case 1:
			tab.SetCell(id, sc.MustPos("STR"), types.NewString(fmt.Sprintf("typo%d", rng.Intn(40))))
		case 2:
			if row[cc].Kind() == types.KindInt {
				tab.SetCell(id, cc, types.NewFloat(float64(row[cc].Int())))
			} else {
				tab.SetCell(id, cc, types.NewInt(int64(row[cc].Float())))
			}
		default:
			tab.Delete(id)
			if k == 4 {
				tab.MustInsert(row)
			}
		}
		if op%4 == 3 {
			warm(tab)
		}
	}
	store = relstore.NewStore()
	store.Put(tab)
	sqls := traced(t, store, tab.Snapshot(), "customer: [CNT=_, ZIP=_] -> [STR=_]\ncustomer: [CC=44, AC=131] -> [CITY=Edinburgh]\ncustomer: [CNT=UK, ZIP=_] -> [STR=_]")
	check("edit history", store, tab, append(sqls,
		`SELECT t1.CC, COUNT(*) FROM customer t1, customer t2 WHERE t1.CC = t2.AC OR t1.STR = t2.CITY GROUP BY t1.CC`,
		`SELECT NAME, CC FROM customer WHERE CC = 44 AND (STR = 'typo1' OR STR = 'Mayfield')`,
	))
}
