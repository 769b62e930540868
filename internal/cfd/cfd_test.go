package cfd

import (
	"math"
	"strings"
	"testing"

	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

func customerSchema() *schema.Relation {
	return schema.New("customer", "NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC")
}

// phi2 is the paper's φ2: [CNT=UK, ZIP=_] -> [STR=_].
func phi2() *CFD {
	return New("phi2", "customer",
		[]string{"CNT", "ZIP"}, []string{"STR"},
		PatternTuple{
			LHS: []PatternValue{ConstStr("UK"), Wild},
			RHS: []PatternValue{Wild},
		})
}

// phi4 is the paper's φ4: [CC=44] -> [CNT=UK].
func phi4() *CFD {
	return New("phi4", "customer",
		[]string{"CC"}, []string{"CNT"},
		PatternTuple{
			LHS: []PatternValue{Constant(types.NewInt(44))},
			RHS: []PatternValue{ConstStr("UK")},
		})
}

func TestPatternValueMatches(t *testing.T) {
	if !Wild.Matches(types.NewString("anything")) || !Wild.Matches(types.Null) {
		t.Error("wildcard should match everything")
	}
	c := ConstStr("UK")
	if !c.Matches(types.NewString("UK")) {
		t.Error("constant should match equal value")
	}
	if c.Matches(types.NewString("US")) || c.Matches(types.Null) {
		t.Error("constant should not match different value")
	}
}

func TestPatternValueEqualAndString(t *testing.T) {
	if !Wild.Equal(Wild) {
		t.Error("wild == wild")
	}
	if Wild.Equal(ConstStr("_x")) {
		t.Error("wild != const")
	}
	if !ConstStr("a").Equal(ConstStr("a")) || ConstStr("a").Equal(ConstStr("b")) {
		t.Error("const equality")
	}
	if Wild.String() != "_" || ConstStr("UK").String() != "UK" {
		t.Error("pattern String")
	}
}

func TestNewFDAllWildcards(t *testing.T) {
	fd := NewFD("f1", "customer", []string{"CNT", "ZIP"}, []string{"CITY"})
	if len(fd.Tableau) != 1 {
		t.Fatal("tableau size")
	}
	for _, p := range fd.Tableau[0].LHS {
		if !p.Wildcard {
			t.Error("LHS should be wildcards")
		}
	}
	if !fd.Tableau[0].RHS[0].Wildcard {
		t.Error("RHS should be wildcard")
	}
	if fd.IsConstantPattern(0) {
		t.Error("FD pattern is variable")
	}
	if !fd.HasVariablePattern() {
		t.Error("FD has a variable pattern")
	}
}

func TestIsConstantPattern(t *testing.T) {
	if phi2().IsConstantPattern(0) {
		t.Error("phi2 is variable")
	}
	if !phi4().IsConstantPattern(0) {
		t.Error("phi4 is constant")
	}
	if phi4().HasVariablePattern() {
		t.Error("phi4 has no variable pattern")
	}
}

func TestValidate(t *testing.T) {
	sc := customerSchema()
	if err := phi2().Validate(sc); err != nil {
		t.Errorf("phi2 should validate: %v", err)
	}
	bad := phi2()
	bad.LHS = []string{"CNT", "NOPE"}
	bad.Tableau[0].LHS = []PatternValue{ConstStr("UK"), Wild}
	if err := bad.Validate(sc); err == nil {
		t.Error("unknown attribute should fail")
	}
	dup := New("d", "customer", []string{"CNT"}, []string{"CNT"},
		PatternTuple{LHS: []PatternValue{Wild}, RHS: []PatternValue{Wild}})
	if err := dup.Validate(sc); err == nil {
		t.Error("duplicate attribute should fail")
	}
	wrongTable := phi2()
	wrongTable.Table = "orders"
	if err := wrongTable.Validate(sc); err == nil {
		t.Error("table mismatch should fail")
	}
}

func TestMatchLHSAndRHS(t *testing.T) {
	sc := customerSchema()
	c := phi2()
	lhsPos, _ := sc.Positions(c.LHS)
	rhsPos, _ := sc.Pos(c.RHS[0])
	ukRow := relstore.Tuple{
		types.NewString("Mike"), types.NewString("UK"), types.NewString("Edinburgh"),
		types.NewString("EH2 4SD"), types.NewString("Mayfield"),
		types.NewInt(44), types.NewInt(131)}
	usRow := ukRow.Clone()
	usRow[1] = types.NewString("US")
	if !c.MatchLHS(0, ukRow, lhsPos) {
		t.Error("UK row should match LHS")
	}
	if c.MatchLHS(0, usRow, lhsPos) {
		t.Error("US row should not match LHS")
	}
	if !c.Tableau[0].RHS[0].Matches(ukRow[rhsPos]) {
		t.Error("wildcard RHS always matches")
	}

	c4 := phi4()
	lhs4, _ := sc.Positions(c4.LHS)
	rhs4, _ := sc.Pos(c4.RHS[0])
	if !c4.MatchLHS(0, ukRow, lhs4) || !c4.Tableau[0].RHS[0].Matches(ukRow[rhs4]) {
		t.Error("CC=44/CNT=UK row should match phi4 on both sides")
	}
	if c4.Tableau[0].RHS[0].Matches(usRow[rhs4]) {
		t.Error("CC=44/CNT=US should fail phi4's RHS")
	}
}

func TestNormalize(t *testing.T) {
	c := New("phi1", "customer",
		[]string{"CNT", "ZIP"}, []string{"CITY", "STR"},
		PatternTuple{
			LHS: []PatternValue{ConstStr("UK"), Wild},
			RHS: []PatternValue{Wild, ConstStr("Main")},
		})
	norm := c.Normalize()
	if len(norm) != 2 {
		t.Fatalf("normalize produced %d", len(norm))
	}
	if norm[0].RHS[0] != "CITY" || norm[1].RHS[0] != "STR" {
		t.Errorf("RHS split = %v %v", norm[0].RHS, norm[1].RHS)
	}
	if !norm[0].Tableau[0].RHS[0].Wildcard {
		t.Error("CITY pattern should stay wildcard")
	}
	if norm[1].Tableau[0].RHS[0].Wildcard {
		t.Error("STR pattern should stay constant")
	}
	if !strings.Contains(norm[0].ID, "CITY") {
		t.Errorf("ID = %q", norm[0].ID)
	}
	// Single-RHS CFDs normalize to a clone of themselves.
	single := phi2()
	n := single.Normalize()
	if len(n) != 1 || n[0] == single {
		t.Error("single-RHS normalize should return one clone")
	}
}

func TestMergeByFD(t *testing.T) {
	a := phi2()
	b := phi2()
	b.ID = "phi2b"
	b.Tableau[0].LHS[0] = ConstStr("US")
	c := phi4()
	merged := MergeByFD([]*CFD{a, b, c})
	if len(merged) != 2 {
		t.Fatalf("merged = %d CFDs", len(merged))
	}
	if len(merged[0].Tableau) != 2 {
		t.Errorf("merged tableau = %d patterns", len(merged[0].Tableau))
	}
	// Duplicate patterns are dropped.
	dup := phi2()
	merged2 := MergeByFD([]*CFD{phi2(), dup})
	if len(merged2) != 1 || len(merged2[0].Tableau) != 1 {
		t.Errorf("duplicate merge = %+v", merged2)
	}
}

func TestFDKeyCaseInsensitive(t *testing.T) {
	a := phi2()
	b := phi2()
	b.Table = "CUSTOMER"
	b.LHS = []string{"cnt", "zip"}
	b.RHS = []string{"str"}
	if a.FDKey() != b.FDKey() {
		t.Errorf("FDKey mismatch: %q vs %q", a.FDKey(), b.FDKey())
	}
}

func TestAddPattern(t *testing.T) {
	c := phi2()
	err := c.AddPattern(PatternTuple{
		LHS: []PatternValue{ConstStr("US"), Wild},
		RHS: []PatternValue{Wild},
	})
	if err != nil || len(c.Tableau) != 2 {
		t.Errorf("AddPattern: %v, tableau=%d", err, len(c.Tableau))
	}
	if err := c.AddPattern(PatternTuple{LHS: []PatternValue{Wild}}); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestCloneIndependence(t *testing.T) {
	c := phi2()
	d := c.Clone()
	d.Tableau[0].LHS[0] = ConstStr("FR")
	d.LHS[0] = "X"
	if c.Tableau[0].LHS[0].Const.Str() != "UK" || c.LHS[0] != "CNT" {
		t.Error("Clone should be deep")
	}
}

func TestCFDString(t *testing.T) {
	got := phi2().String()
	want := "customer: [CNT=UK, ZIP=_] -> [STR=_]"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	// Round-trips through the parser.
	back, err := ParseLine(got)
	if err != nil {
		t.Fatal(err)
	}
	if back.FDKey() != phi2().FDKey() || !back.Tableau[0].Equal(phi2().Tableau[0]) {
		t.Errorf("round trip = %v", back)
	}
	// Multi-pattern CFDs print one line per pattern.
	c := phi2()
	c.AddPattern(PatternTuple{
		LHS: []PatternValue{ConstStr("US"), Wild},
		RHS: []PatternValue{Wild},
	})
	if lines := strings.Split(c.String(), "\n"); len(lines) != 2 {
		t.Errorf("multi-pattern String = %q", c.String())
	}
}

func TestStringQuotesAwkwardConstants(t *testing.T) {
	c := New("q", "customer", []string{"ZIP"}, []string{"STR"},
		PatternTuple{
			LHS: []PatternValue{ConstStr("EH2 4SD")},
			RHS: []PatternValue{Constant(types.NewString("_"))},
		})
	s := c.String()
	if !strings.Contains(s, "'EH2 4SD'") {
		t.Errorf("space constant not quoted: %q", s)
	}
	if !strings.Contains(s, "'_'") {
		t.Errorf("literal underscore not quoted: %q", s)
	}
	back, err := ParseLine(s)
	if err != nil {
		t.Fatal(err)
	}
	if back.Tableau[0].RHS[0].Wildcard {
		t.Error("quoted '_' must parse as a constant, not the wildcard")
	}
	if back.Tableau[0].LHS[0].Const.Str() != "EH2 4SD" {
		t.Errorf("quoted constant = %v", back.Tableau[0].LHS[0])
	}
	// Strings whose bare token would parse as another kind, or lose edge
	// space to the parser's trim, stay strings through a print and a
	// re-parse; a float whose shortest form reads as an INT stays a float.
	for _, v := range []types.Value{
		types.NewString("42"), types.NewString("true"), types.NewString("1e3"),
		types.NewString("NaN"), types.NewString("\u00a0x"), types.NewString("x\u2003"),
		types.NewString(""), types.NewFloat(1000), types.NewFloat(math.Copysign(0, -1)),
	} {
		c := New("q", "r", []string{"A"}, []string{"B"},
			PatternTuple{LHS: []PatternValue{Constant(v)}, RHS: []PatternValue{Wild}})
		back, err := ParseLine(c.String())
		if err != nil {
			t.Fatalf("%q: %v", c.String(), err)
		}
		got := back.Tableau[0].LHS[0].Const
		if got.Kind() != v.Kind() || !got.Equal(v) {
			t.Errorf("%s %q printed as %q parses back as %s %q", v.Kind(), v, c.String(), got.Kind(), got)
		}
	}
}

func TestNewPanicsOnBadArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New("bad", "r", []string{"A"}, []string{"B"},
		PatternTuple{LHS: []PatternValue{Wild, Wild}, RHS: []PatternValue{Wild}})
}
