package consistency

import (
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

func sc() *schema.Relation {
	return schema.New("customer", "NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC")
}

func mustParseSet(t *testing.T, text string) []*cfd.CFD {
	t.Helper()
	cfds, err := cfd.ParseSet(text)
	if err != nil {
		t.Fatal(err)
	}
	return cfds
}

func TestSatisfiableBasicSet(t *testing.T) {
	cfds := mustParseSet(t, `
customer: [CNT=_, ZIP=_] -> [CITY=_]
customer: [CNT=UK, ZIP=_] -> [STR=_]
customer: [CC=44] -> [CNT=UK]
`)
	rep, err := Check(sc(), cfds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Satisfiable {
		t.Fatalf("should be satisfiable: %v", rep.Conflict)
	}
	if len(rep.Witness) != sc().Arity() {
		t.Errorf("witness = %v", rep.Witness)
	}
}

func TestUnsatisfiableWildcardClash(t *testing.T) {
	// [NAME=_] -> [CNT=UK] and [NAME=_] -> [CNT=US] clash on every tuple.
	cfds := mustParseSet(t, `
customer: [NAME=_] -> [CNT=UK]
customer: [NAME=_] -> [CNT=US]
`)
	rep, err := Check(sc(), cfds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Satisfiable {
		t.Fatal("should be unsatisfiable")
	}
	if rep.Conflict == nil || rep.Conflict.Attr != "cnt" {
		t.Errorf("conflict = %+v", rep.Conflict)
	}
	if rep.Conflict.String() == "" {
		t.Error("conflict should render")
	}
}

func TestSatisfiableViaDodging(t *testing.T) {
	// Conflicting RHS constants but constant LHS patterns: an infinite
	// domain lets CC dodge 44, so the set is satisfiable.
	cfds := mustParseSet(t, `
customer: [CC=44] -> [CNT=UK]
customer: [CC=44] -> [CNT=US]
`)
	rep, err := Check(sc(), cfds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Satisfiable {
		t.Fatalf("infinite domain should dodge: %v", rep.Conflict)
	}
	// Witness must not have CC=44.
	if rep.Witness["CC"].Equal(types.NewInt(44)) {
		t.Errorf("witness CC = %v", rep.Witness["CC"])
	}
}

func TestUnsatisfiableWithFiniteDomain(t *testing.T) {
	// Same set, but CC can only be 44: no dodging possible.
	cfds := mustParseSet(t, `
customer: [CC=44] -> [CNT=UK]
customer: [CC=44] -> [CNT=US]
`)
	dom := Domains{"CC": {types.NewInt(44)}}
	rep, err := Check(sc(), cfds, dom)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Satisfiable {
		t.Fatal("singleton finite domain should force the clash")
	}
}

func TestFiniteDomainBacktracking(t *testing.T) {
	// CC ∈ {1, 44}. CC=44 branch clashes, CC=1 branch is fine.
	cfds := mustParseSet(t, `
customer: [CC=44] -> [CNT=UK]
customer: [CC=44] -> [CNT=US]
`)
	dom := Domains{"CC": {types.NewInt(44), types.NewInt(1)}}
	rep, err := Check(sc(), cfds, dom)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Satisfiable {
		t.Fatalf("CC=1 branch should work: %v", rep.Conflict)
	}
	if !rep.Witness["CC"].Equal(types.NewInt(1)) {
		t.Errorf("witness CC = %v", rep.Witness["CC"])
	}
}

func TestUnsatisfiableAllFiniteBranches(t *testing.T) {
	// Every CC value forces a clash somewhere.
	cfds := mustParseSet(t, `
customer: [CC=1] -> [CNT=US]
customer: [CC=1] -> [CNT=CA]
customer: [CC=44] -> [CNT=UK]
customer: [CC=44] -> [CNT=IE]
`)
	dom := Domains{"CC": {types.NewInt(1), types.NewInt(44)}}
	rep, err := Check(sc(), cfds, dom)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Satisfiable {
		t.Fatal("all branches clash; should be unsatisfiable")
	}
}

func TestChasePropagation(t *testing.T) {
	// [NAME=_] -> [CNT=UK]; [CNT=UK] -> [CC=44]; [CC=44] -> [AC=131]
	// forces a chain; then a clashing rule on AC makes it unsat.
	base := `
customer: [NAME=_] -> [CNT=UK]
customer: [CNT=UK] -> [CC=44]
customer: [CC=44] -> [AC=131]
`
	rep, err := Check(sc(), mustParseSet(t, base), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Satisfiable {
		t.Fatalf("chain should be satisfiable: %v", rep.Conflict)
	}
	if !rep.Witness["AC"].Equal(types.NewInt(131)) {
		t.Errorf("chase should force AC=131, witness=%v", rep.Witness)
	}

	rep, err = Check(sc(), mustParseSet(t, base+"customer: [CNT=UK] -> [AC=20]\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Satisfiable {
		t.Fatal("AC forced to both 131 and 20 should be unsatisfiable")
	}
}

func TestVariablePatternsIgnoredForSatisfiability(t *testing.T) {
	// Pure FDs are always satisfiable.
	cfds := []*cfd.CFD{
		cfd.NewFD("f1", "customer", []string{"CNT", "ZIP"}, []string{"CITY", "STR"}),
	}
	rep, err := Check(sc(), cfds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Satisfiable {
		t.Error("FDs are always satisfiable")
	}
}

func TestCheckValidatesInputs(t *testing.T) {
	bad := mustParseSet(t, "customer: [NOPE=_] -> [CITY=_]")
	if _, err := Check(sc(), bad, nil); err == nil {
		t.Error("unknown attribute should error")
	}
	good := mustParseSet(t, "customer: [CNT=_] -> [CITY=_]")
	if _, err := Check(sc(), good, Domains{"CITY": {}}); err == nil {
		t.Error("empty domain should error")
	}
	if _, err := Check(sc(), good, Domains{"NOPE": {types.NewInt(1)}}); err == nil {
		t.Error("domain for unknown attribute should error")
	}
}

func TestFiniteDomainExcludesForcedValue(t *testing.T) {
	// The chase forces CNT=UK but the finite domain only allows US.
	cfds := mustParseSet(t, "customer: [NAME=_] -> [CNT=UK]")
	dom := Domains{"CNT": {types.NewString("US")}}
	rep, err := Check(sc(), cfds, dom)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Satisfiable {
		t.Fatal("forced value outside finite domain should be unsatisfiable")
	}
}
