package detect

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/datagen"
	"semandaq/internal/sqleng"
	"semandaq/internal/types"
)

// TestSQLDetectReplaysPerClassWithoutJoinBack is the count face of the SQL
// detector on the shape of the benchmark's sqldetect-sparse table (datagen's
// 20 000-tuple relation, 100 UK street typos, the standard CFDs): the four
// statements — Qv for phi1, phi2 and phi4, Qc for phi3 — decide their
// tableau join once per distinct code vector of the columns the patterns
// read, so at least nine driver rows in ten are replayed; Qv's keys pick
// their groups from the LHS partition on codes, so no statement joins the
// groups back and nothing is hashed; the report is the columnar detector's;
// and a factorised detection allocates at most 5 % over 2 686, its
// AllocsPerRun when the join-back went (DetectSnapshot made 10 209 with the
// join-back, at 07331e3).
func TestSQLDetectReplaysPerClassWithoutJoinBack(t *testing.T) {
	const allocCeiling = 2686 * 105 / 100
	store, tab := sparseCustomers(t, 20000, 100)
	snap, cfds := tab.Snapshot(), datagen.StandardCFDs()
	statements := 0
	d := &SQLDetector{Engine: sqleng.New(store), Trace: func(string) { statements++ }}
	rep, err := d.DetectSnapshot(context.Background(), snap, cfds)
	if err != nil {
		t.Fatal(err)
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
	if ops.MemoReplays*10 < scanned*9 {
		t.Errorf("MemoReplays = %d of %d driver rows scanned (%d classes recorded), want >= 90 %%", ops.MemoReplays, scanned, ops.MemoClasses)
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

// TestExplainSaysWhichPathServes pins, on the detector's own statements
// (SQLDetector.Trace), the EXPLAIN lines that say whether the driver memo,
// the memo's group index and the integer HAVING will run — and, on the same
// text pushed out of each rule, the line that says why not.
func TestExplainSaysWhichPathServes(t *testing.T) {
	store, tab := sparseCustomers(t, 20000, 100)
	snap := tab.Snapshot()
	statements := func(rules string) (*sqleng.Engine, []string) {
		cfds, err := cfd.ParseSet(rules)
		if err != nil {
			t.Fatal(err)
		}
		var stmts []string
		d := &SQLDetector{Engine: sqleng.New(store), KeepArtifacts: true, Trace: func(s string) { stmts = append(stmts, s) }}
		if _, err := d.DetectSnapshot(context.Background(), snap, cfds); err != nil {
			t.Fatal(err)
		}
		return d.Engine, stmts
	}
	col := func(name string) int { return snap.Columnar().Col(snap.Schema().MustPos(name)).Card() }
	eng, std := statements("phi2@ customer: [CNT=UK, ZIP=_] -> [STR=_]\nphi3@ customer: [CC=44] -> [CNT=UK]")
	if len(std) != 2 {
		t.Fatalf("%d statements, want phi2's Qv and phi3's Qc", len(std))
	}
	wideEng, wide := statements("w@ customer: [NAME=_, ZIP=_] -> [CITY=_]")
	for _, tc := range []struct {
		name string
		eng  *sqleng.Engine
		sql  string
		want []string
	}{
		{"Qv groups", eng, std[0], []string{
			fmt.Sprintf("driver memo on [t.CNT t.ZIP] space=%d rows=20000", col("CNT")*col("ZIP")),
			"sink group on codes(2) aggs=3, group index from memo, having on counts, project 2 cols"}},
		{"Qc", eng, std[1], []string{
			fmt.Sprintf("driver memo on [t.CC t.CNT] space=%d rows=20000", col("CC")*col("CNT")),
			"sink project 4 cols"}},
		{"Qv over a key", wideEng, wide[0], []string{
			fmt.Sprintf("driver memo off: space %d > half of rows 20000", col("NAME")),
			"sink group on codes(2) aggs=3, having on counts, project 2 cols"}},
		{"Qc reading _tid", eng, std[1] + " AND t._tid >= 0", []string{"driver memo off: reads t._tid"}},
		{"Qc with a value-level compare", eng, std[1] + " AND t.CC > 43", []string{
			fmt.Sprintf("driver memo on [t.CC t.CNT] space=%d rows=20000", col("CC")*col("CNT"))}},
		{"Qv with a value-level HAVING", eng, std[0] + " AND COUNT(*) > 1.5", []string{
			"sink group on codes(2) aggs=3, group index from memo, having, project 2 cols"}},
	} {
		res, err := tc.eng.QueryContext(context.Background(), "EXPLAIN "+tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, want := range tc.want {
			if !slices.ContainsFunc(res.Rows, func(row []types.Value) bool { return row[0].Str() == want }) {
				t.Errorf("%s: no line %q in the plan of\n%s\n%v", tc.name, want, tc.sql, res.Rows)
			}
		}
	}
}
