package sqleng

import (
	"math"
	"math/rand"
	"testing"

	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// codePool is the value domain of the differential test: every Equal-vs-
// exact corner the dictionaries have (INT 1 / FLOAT 1.0, two NaN payloads,
// -0.0 / 0.0, NULL, the empty string, booleans) plus plain values.
var codePool = []types.Value{
	types.Null, types.Null,
	types.NewInt(1), types.NewFloat(1.0), types.NewInt(2), types.NewFloat(2.5),
	types.NewInt(0), types.NewFloat(math.Copysign(0, -1)),
	types.NewFloat(math.NaN()), types.NewFloat(math.Float64frombits(0x7ff8000000000001)),
	types.NewString("x"), types.NewString(""), types.NewString("1"),
	types.NewBool(true), types.NewBool(false),
}

// absentPool holds literals no table cell carries.
var absentPool = []types.Value{types.NewInt(99), types.NewFloat(7.25), types.NewString("zz")}

// randomCodeExpr builds a random WHERE condition over r(A,B), s(A,B): =
// and <> between columns and between a column and a literal (present,
// absent, NULL, NaN, cross-kind), under AND and OR.
func randomCodeExpr(rng *rand.Rand, depth int) Expr {
	lit := func() Expr {
		if rng.Intn(4) == 0 {
			return &Literal{Value: absentPool[rng.Intn(len(absentPool))]}
		}
		return &Literal{Value: codePool[rng.Intn(len(codePool))]}
	}
	col := func() Expr {
		return &ColumnRef{Table: []string{"r", "s"}[rng.Intn(2)], Column: []string{"A", "B"}[rng.Intn(2)]}
	}
	if depth > 0 && rng.Intn(2) == 0 {
		return &BinaryExpr{Op: []string{"AND", "OR"}[rng.Intn(2)], L: randomCodeExpr(rng, depth-1), R: randomCodeExpr(rng, depth-1)}
	}
	l, r := col(), col()
	switch rng.Intn(3) {
	case 0:
		r = lit()
	case 1:
		l = lit()
	}
	return &BinaryExpr{Op: []string{"=", "<>"}[rng.Intn(2)], L: l, R: r}
}

// TestCodePredicatesMatchValueEvaluation is the predicate-level
// differential: every WHERE condition, evaluated on dictionary codes at a
// cursor, keeps exactly the rows the reference's three-valued evaluation on
// the materialised row keeps — for every pair of rows of two tables with
// different dictionaries. It proves code equality (through a translation
// table) is Value.Equal, and that reading unknown as false is exact for a
// condition without NOT.
func TestCodePredicatesMatchValueEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	store := relstore.NewStore()
	for _, name := range []string{"r", "s"} {
		tab, err := store.Create(schema.New(name, "A", "B"))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 24; i++ {
			tab.MustInsert(relstore.Tuple{codePool[rng.Intn(len(codePool))], codePool[rng.Intn(len(codePool))]})
		}
	}
	st, err := Parse("SELECT * FROM r, s")
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(store).buildSelectPlan(st)
	if err != nil {
		t.Fatal(err)
	}
	px := &planExec{p: p, cur: make([]int32, 2), buf: make([]types.Value, len(p.cat))}
	all := make([]int32, len(p.cat))
	for i := range all {
		all[i] = int32(i)
	}
	for n := 0; n < 3000; n++ {
		e := randomCodeExpr(rng, 3)
		code, err := p.compileCode(e)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refCond(e, p.cat)
		if err != nil {
			t.Fatal(err)
		}
		for i := int32(0); i < 24; i++ {
			for j := int32(0); j < 24; j++ {
				px.cur[0], px.cur[1] = i, j
				px.materialise(all, px.cur)
				if got, want := code(px.cur), ref(px.buf) == triTrue; got != want {
					t.Fatalf("%s on %v: codes say %v, values say %v", exprString(e), px.buf, got, want)
				}
			}
		}
	}
}
