package oracle

import (
	"context"
	"fmt"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/detect"
	"semandaq/internal/discovery"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/sqleng"
	"semandaq/internal/types"
)

// warm builds every lazy columnar artifact of the table's served snapshot,
// so the next version's patch has all of them to carry over.
func warm(tab *relstore.Table) {
	col := tab.Snapshot().Columnar()
	for j := 0; j < col.NumCols(); j++ {
		col.Col(j).EqProbe()
		col.Col(j).EnsureKeys()
	}
}

// query runs sql with tab's base-table reads pinned to snap.
func query(t *testing.T, tab *relstore.Table, snap *relstore.Snapshot, sql string) *sqleng.Result {
	t.Helper()
	store := relstore.NewStore()
	store.Put(tab)
	e := sqleng.New(store)
	e.Pin(snap)
	res, err := e.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// TestCanonicalRowDeleted: the {INT 1, FLOAT 1.0} class's canonical code is
// INT 1's, interned first. Deleting the only INT 1 row leaves the class
// alive under a dead canonical code; its representative must become FLOAT
// 1.0 — what a build from the surviving rows would pick — in everything
// that prints one: mined pattern constants, SQL results, detection reports.
func TestCanonicalRowDeleted(t *testing.T) {
	ctx := context.Background()
	tab := relstore.NewTable(schema.New("t", "A", "B"))
	canonical := tab.MustInsert(relstore.Tuple{types.NewInt(1), types.NewString("x")})
	for i := 0; i < 3; i++ {
		tab.MustInsert(relstore.Tuple{types.NewFloat(1.0), types.NewString("x")})
	}
	tab.MustInsert(relstore.Tuple{types.NewFloat(1.0), types.NewString("y")})
	for i := 0; i < 3; i++ {
		tab.MustInsert(relstore.Tuple{types.NewInt(2), types.NewString("z")})
	}
	warm(tab)
	tab.Delete(canonical)
	patched, rebuilt := tab.Snapshot(), tab.RebuildSnapshot()
	if err := relstore.DiffSnapshots(patched, rebuilt); err != nil {
		t.Fatal(err)
	}

	opts := discovery.Options{MinSupport: 2, MaxLHS: 1}
	got, err := discovery.Mine(ctx, patched, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := discovery.Mine(ctx, rebuilt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !deepEqual(got, want) {
		t.Errorf("Mine over the patched snapshot differs from the rebuilt one's\ngot:  %+v\nwant: %+v", got.CFDs, want.CFDs)
	}
	mentionsFloat := false
	for _, c := range want.CFDs {
		for _, pt := range c.Tableau {
			for _, pv := range append(pt.LHS[:len(pt.LHS):len(pt.LHS)], pt.RHS...) {
				mentionsFloat = mentionsFloat || (!pv.Wildcard && pv.Const.Kind() == types.KindFloat)
			}
		}
	}
	if !mentionsFloat {
		t.Errorf("no mined rule carries the class constant; the test lost its subject: %v", want.CFDs)
	}

	const sql = `SELECT A, B FROM t WHERE A = 1 GROUP BY A, B HAVING COUNT(*) > 0`
	if g, w := query(t, tab, patched, sql), query(t, tab, rebuilt, sql); !deepEqual(g.Rows, w.Rows) {
		t.Errorf("%s\npatched: %v\nrebuilt: %v", sql, g.Rows, w.Rows)
	}

	cfds, err := cfd.ParseSet("t: [A=_] -> [B=_]\nt: [B=y] -> [A=2]\n")
	if err != nil {
		t.Fatal(err)
	}
	gf, err := detect.DetectFactorised(ctx, patched, cfds)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := detect.DetectFactorised(ctx, rebuilt, cfds)
	if err != nil {
		t.Fatal(err)
	}
	if !deepEqual(gf.Explode(), wf.Explode()) || !deepEqual(gf.Digest(), wf.Digest()) {
		t.Errorf("DetectFactorised over the patched snapshot differs from the rebuilt one's\ngot:  %+v\nwant: %+v", gf.Explode(), wf.Explode())
	}
	if len(wf.Explode().Violations) == 0 {
		t.Error("the CFDs flag nothing; the test lost its subject")
	}
}

// TestPlansIgnoreDeadCodes: statistics read the live distinct count, not
// the code space. After churn leaves column A with more dead codes than B
// has codes at all, queries must return the same rows on the patched
// snapshot as on a rebuilt one — and a code past the rebuilt dictionary's
// length must not overrun a translation table. (That the two plan alike is
// TestPlansMatchOnRebuiltSnapshot in internal/sqleng.)
func TestPlansIgnoreDeadCodes(t *testing.T) {
	tab := relstore.NewTable(schema.New("t", "A", "B"))
	var ids []relstore.TupleID
	for i := 0; i < 24; i++ {
		ids = append(ids, tab.MustInsert(relstore.Tuple{
			types.NewString(fmt.Sprintf("v%d", i%4)),
			types.NewString(fmt.Sprintf("v%d", i%12)),
		}))
	}
	warm(tab)
	// 40 values pass through row 0's A and die; the last edit restores it.
	for i := 0; i < 40; i++ {
		if _, err := tab.SetCell(ids[0], 0, types.NewString(fmt.Sprintf("gone%d", i))); err != nil {
			t.Fatal(err)
		}
		warm(tab)
	}
	if _, err := tab.SetCell(ids[0], 0, types.NewString("v0")); err != nil {
		t.Fatal(err)
	}
	// A late value in A: its code lies past every code of the rebuilt side.
	if _, err := tab.SetCell(ids[1], 0, types.NewString("v7")); err != nil {
		t.Fatal(err)
	}
	patched, rebuilt := tab.Snapshot(), tab.RebuildSnapshot()
	pa, ra := patched.Columnar().Col(0), rebuilt.Columnar().Col(0)
	if pa.Card() != ra.Card() || pa.CodeSpace() <= patched.Columnar().Col(1).CodeSpace() || ra.CodeSpace() != ra.Card() {
		t.Fatalf("set-up: patched A has %d live of %d codes, rebuilt %d of %d", pa.Card(), pa.CodeSpace(), ra.Card(), ra.CodeSpace())
	}
	pp, rp := patched.Columnar().EqClasses([]int{0}), rebuilt.Columnar().EqClasses([]int{0})
	if pa.Card() != ra.Card() || pp.NumClasses() != rp.NumClasses() {
		t.Errorf("statistics differ: cardinality %d vs %d, classes %d vs %d", pa.Card(),
			ra.Card(), pp.NumClasses(), rp.NumClasses())
	}
	for _, sql := range []string{
		`SELECT A FROM t WHERE A = B`,
		`SELECT t1.A FROM t t1, t t2 WHERE t1.A = t2.B GROUP BY t1.A HAVING COUNT(*) > 0`,
		`SELECT A, B FROM t WHERE A <> B AND (A = 'v7' OR A = 'gone3' OR A = 'v1')`,
		`SELECT t1.B FROM t t1, t t2 WHERE t1.B = t2.A AND t2.A = t1.A`,
	} {
		if g, w := query(t, tab, patched, sql), query(t, tab, rebuilt, sql); !deepEqual(g.Rows, w.Rows) {
			t.Errorf("%s\npatched: %v\nrebuilt: %v", sql, g.Rows, w.Rows)
		}
	}
}
