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

// randomCodeExpr builds a random expression of the code-compilable subset
// over r(A,B), s(A,B): =, <>, IS NOT DISTINCT FROM over columns, literals
// (present, absent, NULL, NaN, cross-kind) and COALESCE(col, literal);
// IS [NOT] NULL; [NOT] IN (literals); AND, OR, NOT.
func randomCodeExpr(rng *rand.Rand, depth int) Expr {
	lit := func() Expr {
		if rng.Intn(4) == 0 {
			return &Literal{Value: absentPool[rng.Intn(len(absentPool))]}
		}
		return &Literal{Value: codePool[rng.Intn(len(codePool))]}
	}
	col := func() Expr {
		var e Expr = &ColumnRef{Table: []string{"r", "s"}[rng.Intn(2)], Column: []string{"A", "B"}[rng.Intn(2)]}
		if rng.Intn(4) == 0 {
			e = &FuncExpr{Name: "COALESCE", Args: []Expr{e, lit()}}
		}
		return e
	}
	if depth > 0 && rng.Intn(2) == 0 {
		switch rng.Intn(3) {
		case 0:
			return &UnaryExpr{Op: "NOT", E: randomCodeExpr(rng, depth-1)}
		case 1:
			return &BinaryExpr{Op: "AND", L: randomCodeExpr(rng, depth-1), R: randomCodeExpr(rng, depth-1)}
		default:
			return &BinaryExpr{Op: "OR", L: randomCodeExpr(rng, depth-1), R: randomCodeExpr(rng, depth-1)}
		}
	}
	switch rng.Intn(5) {
	case 0:
		return &IsNullExpr{E: col(), Not: rng.Intn(2) == 0}
	case 1:
		in := &InExpr{E: col(), Not: rng.Intn(2) == 0}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			in.List = append(in.List, lit())
		}
		return in
	default:
		l, r := col(), col()
		switch rng.Intn(3) {
		case 0:
			r = lit()
		case 1:
			l = lit()
		}
		return &BinaryExpr{Op: []string{"=", "<>", opNullSafeEq}[rng.Intn(3)], L: l, R: r}
	}
}

// TestCodePredicatesMatchValueEvaluation is the predicate-level
// differential: every expression of the code-compilable subset, evaluated
// on dictionary codes at a cursor, gives the three-valued result
// compileExpr gives on the materialised row — for every pair of rows of two
// tables with different dictionaries, and with the second scan
// null-extended. It proves code equality (through a translation table)
// is Compare == 0, and the three-valued <>, NOT, AND, OR, IN.
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
	p, err := New(store).buildSelectPlan(st.(*SelectStmt))
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
		code, ok := p.compileCode(e)
		if !ok {
			t.Fatalf("%s did not compile to codes", exprString(e))
		}
		fn, err := compileExpr(e, p.cat)
		if err != nil {
			t.Fatal(err)
		}
		for i := int32(0); i < 24; i++ {
			for j := int32(-1); j < 24; j++ { // -1: s null-extended
				px.cur[0], px.cur[1] = i, j
				px.materialise(all, px.cur)
				v := fn(px.buf)
				if got, want := code(px.cur), uint8(boolState(v)); got != want {
					t.Fatalf("%s on %v: codes say %d, values say %d", exprString(e), px.buf, got, want)
				}
			}
		}
	}
}
