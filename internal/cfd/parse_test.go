package cfd

import (
	"testing"

	"semandaq/internal/types"
)

func TestParseLineBasics(t *testing.T) {
	c, err := ParseLine("customer: [CNT=UK, ZIP=_] -> [STR=_]")
	if err != nil {
		t.Fatal(err)
	}
	if c.Table != "customer" {
		t.Errorf("table = %q", c.Table)
	}
	if len(c.LHS) != 2 || c.LHS[0] != "CNT" || c.LHS[1] != "ZIP" {
		t.Errorf("LHS = %v", c.LHS)
	}
	if len(c.RHS) != 1 || c.RHS[0] != "STR" {
		t.Errorf("RHS = %v", c.RHS)
	}
	pt := c.Tableau[0]
	if pt.LHS[0].Wildcard || pt.LHS[0].Const.Str() != "UK" {
		t.Errorf("LHS[0] = %v", pt.LHS[0])
	}
	if !pt.LHS[1].Wildcard || !pt.RHS[0].Wildcard {
		t.Error("wildcards not parsed")
	}
}

func TestParseLineNoTable(t *testing.T) {
	c, err := ParseLine("[CC=44] -> [CNT=UK]")
	if err != nil {
		t.Fatal(err)
	}
	if c.Table != "" {
		t.Errorf("table = %q", c.Table)
	}
	// 44 infers as INT.
	if c.Tableau[0].LHS[0].Const.Kind() != types.KindInt {
		t.Errorf("CC kind = %v", c.Tableau[0].LHS[0].Const.Kind())
	}
}

func TestParseLineImplicitWildcard(t *testing.T) {
	c, err := ParseLine("customer: [CNT, ZIP] -> [CITY]")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Tableau[0].LHS {
		if !p.Wildcard {
			t.Error("attr without '=' should be wildcard")
		}
	}
}

func TestParseLineQuotedValues(t *testing.T) {
	c, err := ParseLine("customer: [ZIP='EH2 4SD'] -> [STR='O''Connell St']")
	if err != nil {
		t.Fatal(err)
	}
	if c.Tableau[0].LHS[0].Const.Str() != "EH2 4SD" {
		t.Errorf("LHS = %v", c.Tableau[0].LHS[0])
	}
	if c.Tableau[0].RHS[0].Const.Str() != "O'Connell St" {
		t.Errorf("RHS = %v", c.Tableau[0].RHS[0])
	}
}

func TestParseLineErrors(t *testing.T) {
	cases := []string{
		"",
		"customer: [CNT=UK]",        // missing arrow
		"customer: CNT -> [STR]",    // missing bracket
		"customer: [CNT=UK] -> STR", // missing RHS bracket
		"customer: [] -> [STR]",     // empty LHS
		"customer: [CNT='unterminated] -> [STR]",
		"customer: [CNT=] -> [STR]",      // empty value
		": [CNT] -> [STR]",               // empty table
		"customer: [CNT] -> [STR] extra", // trailing
	}
	for _, src := range cases {
		if _, err := ParseLine(src); err == nil {
			t.Errorf("ParseLine(%q) should fail", src)
		}
	}
}

func TestParseSetMergesAndNumbers(t *testing.T) {
	text := `
# the paper's running example
customer: [CNT=_, ZIP=_] -> [CITY=_]
customer: [CNT=UK, ZIP=_] -> [STR=_]
customer: [CNT=US, ZIP=_] -> [STR=_]
customer: [CC=44] -> [CNT=UK]
`
	cfds, err := ParseSet(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfds) != 3 {
		t.Fatalf("got %d CFDs, want 3 (UK/US patterns merge)", len(cfds))
	}
	if cfds[0].ID != "phi1" || cfds[1].ID != "phi2" || cfds[2].ID != "phi3" {
		t.Errorf("IDs = %v %v %v", cfds[0].ID, cfds[1].ID, cfds[2].ID)
	}
	if len(cfds[1].Tableau) != 2 {
		t.Errorf("merged tableau = %d", len(cfds[1].Tableau))
	}
}

func TestParseSetExplicitID(t *testing.T) {
	cfds, err := ParseSet("zipstr@ customer: [CNT=UK, ZIP=_] -> [STR=_]")
	if err != nil {
		t.Fatal(err)
	}
	if cfds[0].ID != "zipstr" {
		t.Errorf("ID = %q", cfds[0].ID)
	}
	// A name on a later line of the same FD names the merged CFD.
	cfds, err = ParseSet("[A] -> [B]\nx@ [A=1] -> [B=2]")
	if err != nil {
		t.Fatal(err)
	}
	if cfds[0].ID != "x" {
		t.Errorf("merged ID = %q, want x", cfds[0].ID)
	}
}

func TestParseSetErrorsCarryLine(t *testing.T) {
	_, err := ParseSet("customer: [CNT] -> [STR]\nbroken line")
	if err == nil {
		t.Fatal("expected error")
	}
	if want := "line 2"; !contains(err.Error(), want) {
		t.Errorf("error %q should mention %q", err, want)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
