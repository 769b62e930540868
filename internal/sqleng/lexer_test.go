package sqleng

import "testing"

func kinds(toks []token) []tokenKind {
	out := make([]tokenKind, len(toks))
	for i, t := range toks {
		out[i] = t.kind
	}
	return out
}

func TestLexBasics(t *testing.T) {
	toks, err := lex("SELECT a, t.b FROM r WHERE a = 'x''y' AND b >= 15 -- comment\n;")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		texts = append(texts, tok.text)
	}
	want := []string{"SELECT", "a", ",", "t", ".", "b", "FROM", "r", "WHERE",
		"a", "=", "x'y", "AND", "b", ">=", "15", ";", ""}
	if len(texts) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(texts), texts, len(want))
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
}

func TestLexKeywordsUppercased(t *testing.T) {
	toks, err := lex("select From wHeRe")
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks[:3] {
		if tok.kind != tokKeyword {
			t.Errorf("%q should be keyword", tok.text)
		}
	}
	if toks[0].text != "SELECT" || toks[1].text != "FROM" || toks[2].text != "WHERE" {
		t.Errorf("keywords not uppercased: %v", toks)
	}
}

func TestLexIdentifiersPreserveCase(t *testing.T) {
	toks, err := lex("MyTable _col1")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].text != "MyTable" || toks[1].text != "_col1" {
		t.Errorf("idents = %q %q", toks[0].text, toks[1].text)
	}
}

func TestLexQuotedIdent(t *testing.T) {
	toks, err := lex(`"weird name"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].kind != tokIdent || toks[0].text != "weird name" {
		t.Errorf("quoted ident = %v", toks[0])
	}
}

func TestLexTwoByteOperators(t *testing.T) {
	toks, err := lex("<> != <= >= ||")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"<>", "!=", "<=", ">=", "||"}
	for i, w := range want {
		if toks[i].text != w {
			t.Errorf("op %d = %q, want %q", i, toks[i].text, w)
		}
	}
}

func TestLexErrors(t *testing.T) {
	cases := []string{
		"'unterminated",
		`"unterminated`,
		"12abc",
		"@",
	}
	for _, src := range cases {
		if _, err := lex(src); err == nil {
			t.Errorf("lex(%q) should fail", src)
		}
	}
}

// TestLexNumbers: a number is a run of digits; a decimal point ends it, and
// the parser names the decimal.
func TestLexNumbers(t *testing.T) {
	toks, err := lex("42 3.25")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []token{{tokNumber, "42", 0}, {tokNumber, "3", 3}, {tokSymbol, ".", 4}, {tokNumber, "25", 5}} {
		if toks[i] != want {
			t.Errorf("token %d = %v, want %v", i, toks[i], want)
		}
	}
}

func TestLexEmptyAndComments(t *testing.T) {
	toks, err := lex("  -- just a comment")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 1 || kinds(toks)[0] != tokEOF {
		t.Errorf("toks = %v", toks)
	}
}
