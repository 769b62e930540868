package sqleng

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *SelectStmt {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return st
}

func TestParseSimpleSelect(t *testing.T) {
	st := mustParse(t, "SELECT a, t.b FROM r WHERE a = 'x'")
	if len(st.Items) != 2 {
		t.Fatalf("items = %d", len(st.Items))
	}
	if *st.Items[1] != (ColumnRef{Table: "t", Column: "b"}) {
		t.Errorf("item 1 = %+v", st.Items[1])
	}
	if len(st.From) != 1 || st.From[0].Table != "r" || st.From[0].Alias != "r" {
		t.Errorf("from = %+v", st.From)
	}
	if st.Where == nil {
		t.Error("missing where")
	}
}

// TestParseStarForms: the star, bare or qualified, is a *ParseError naming
// it; Qc and Qv name their columns. COUNT(*) stays, in HAVING.
func TestParseStarForms(t *testing.T) {
	rejects(t, []struct{ sql, name string }{
		{"SELECT * FROM r", "the star"},
		{"SELECT t.* FROM r t", "the star"},
		{"SELECT a, * FROM r", "the star"},
		{"SELECT t._tid, t.* FROM r t", "the star"},
		{"SELECT a FROM r t WHERE t.* = 1", "the star"},
	})
	mustParse(t, "SELECT a FROM r GROUP BY a HAVING COUNT(*) > 1")
}

func TestParseFullSelect(t *testing.T) {
	st := mustParse(t, `
		SELECT cnt
		FROM customer c, tableau tp
		WHERE c.zip = tp.zip AND c.cc <> 0
		GROUP BY cnt
		HAVING COUNT(*) > 1`)
	if len(st.From) != 2 {
		t.Errorf("from = %+v", st.From)
	}
	if len(st.GroupBy) != 1 || st.Having == nil {
		t.Error("group/having")
	}
}

// TestParseJoin: a join is a comma list of tables, each with an optional
// alias, its condition in WHERE.
func TestParseJoin(t *testing.T) {
	st := mustParse(t, "SELECT a.k FROM a, b x, c AS y WHERE a.k = x.k AND x.k = y.k")
	want := []FromItem{{Table: "a", Alias: "a"}, {Table: "b", Alias: "x"}, {Table: "c", Alias: "y"}}
	if !reflect.DeepEqual(st.From, want) {
		t.Errorf("from = %+v, want %+v", st.From, want)
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	st := mustParse(t, "SELECT a FROM r WHERE a = 1 OR b = 2 AND c = 3")
	or := st.Where.(*BinaryExpr)
	if or.Op != "OR" {
		t.Fatalf("top = %q, want OR", or.Op)
	}
	and := or.R.(*BinaryExpr)
	if and.Op != "AND" {
		t.Errorf("right = %q, want AND", and.Op)
	}
	st = mustParse(t, "SELECT a FROM r WHERE (a = 1 OR b <> 'x') AND c <> d")
	and = st.Where.(*BinaryExpr)
	if or, ok := and.L.(*BinaryExpr); and.Op != "AND" || !ok || or.Op != "OR" || and.R.(*BinaryExpr).Op != "<>" {
		t.Errorf("(a = 1 OR ...) AND ... parsed as %s", exprString(st.Where))
	}
	st = mustParse(t, "SELECT a FROM r GROUP BY a HAVING COUNT(*) > 1 OR COUNT(b) < COUNT(*) AND 2 < COUNT(DISTINCT b)")
	if or := st.Having.(*BinaryExpr); or.Op != "OR" || or.R.(*BinaryExpr).Op != "AND" {
		t.Errorf("HAVING parsed as %s", exprString(st.Having))
	}
}

// TestParsePredicates: what the grammar keeps — the detector's shapes.
func TestParsePredicates(t *testing.T) {
	cases := []string{
		"SELECT a FROM r WHERE a = b",
		"SELECT a FROM r WHERE 'x' <> a AND a <> 15",
		"SELECT a FROM r WHERE a = 'NULL' OR a = 'TRUE' OR a = 0",
		"SELECT a FROM r WHERE ((a = 1))",
		"SELECT a FROM r GROUP BY a HAVING COUNT(DISTINCT b) > 0 AND COUNT(b) <> 0 AND COUNT(*) = 2",
		"SELECT _tid, t._tid, a FROM r t",
		"SELECT a, b FROM r GROUP BY a, b HAVING COUNT(DISTINCT c) > 1 OR (COUNT(DISTINCT c) = 1 AND COUNT(c) < COUNT(*))",
		"SELECT t._tid, tp._tid, tp.STR, t.STR FROM customer t, tp WHERE (tp.CNT = '_' OR t.CNT = tp.CNT) AND tp.STR <> '_' AND t.STR <> tp.STR",
		"SELECT a FROM r GROUP BY a HAVING COUNT(*) > 0",
	}
	for _, src := range cases {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

// rejects reports each statement that Parse accepts, or rejects with an
// error other than a *ParseError naming the construct.
func rejects(t *testing.T, cases []struct{ sql, name string }) {
	t.Helper()
	for _, c := range cases {
		var perr *ParseError
		if st, err := Parse(c.sql); !errors.As(err, &perr) || !strings.Contains(perr.Msg, c.name) {
			t.Errorf("Parse(%q) = %v, %v; want a *ParseError naming %s", c.sql, st, err, c.name)
		}
	}
}

// TestParseDML: INSERT, UPDATE and DELETE are parse errors that name the
// statement.
func TestParseDML(t *testing.T) {
	rejects(t, []struct{ sql, name string }{
		{"INSERT INTO r (a, b) VALUES (1, 'x'), (2, 'y')", "INSERT"},
		{"UPDATE r SET a = 1, b = 'z' WHERE c = 2", "UPDATE"},
		{"DELETE FROM r WHERE a = 1", "DELETE"},
	})
}

// TestParseDDL: CREATE TABLE and DROP TABLE are parse errors that name the
// statement.
func TestParseDDL(t *testing.T) {
	rejects(t, []struct{ sql, name string }{
		{"CREATE TABLE r (a INT, b STRING)", "CREATE"},
		{"DROP TABLE r", "DROP"},
	})
}

// TestParseRejectsWhatTheGrammarLeavesOut: every construct outside the
// fragment is a *ParseError that names it. Seeds of the fuzz targets whose
// path went with the grammar are kept here.
func TestParseRejectsWhatTheGrammarLeavesOut(t *testing.T) {
	rejects(t, []struct{ sql, name string }{
		{"SELECT x FROM a JOIN b ON a.x = b.y", "JOIN"},
		{"SELECT r.A FROM r JOIN s ON r.A = s.A AND u.B = 'x' JOIN u ON u.A = r.A", "JOIN"},
		{"SELECT x FROM a INNER JOIN b ON a.x = b.y", "INNER JOIN"},
		{"SELECT r.B, s.D FROM r LEFT JOIN s ON r.A = s.A", "LEFT JOIN"},
		{"SELECT r.B, s.D FROM r LEFT JOIN s ON r.A = s.A AND r.B = s.D", "LEFT JOIN"},
		{"SELECT r.B, s.D FROM r LEFT JOIN s ON r.A IS NOT DISTINCT FROM s.A AND r.B IS NOT DISTINCT FROM s.D", "LEFT JOIN"},
		{"SELECT r.A, s.D FROM r LEFT JOIN s ON r.A = s.A WHERE s.D IS NULL OR COALESCE(s.D, 'x') <> 'q'", "LEFT JOIN"},
		{"SELECT u.A, u.B, s.D FROM u LEFT JOIN s ON u.D = s.A AND s.D <> 'q' AND u.B <> s.D", "LEFT JOIN"},
		{"SELECT r.A, u.B FROM r LEFT JOIN s ON r.A = s.A JOIN u ON u.A = s.A AND u.C = 'p' WHERE 10 / r.A > 3", "LEFT JOIN"},
		{"SELECT DISTINCT A FROM r ORDER BY A DESC LIMIT 2 OFFSET 1", "SELECT DISTINCT"},
		{"SELECT DISTINCT u.B, s.D FROM u, s WHERE u.A = s.A", "SELECT DISTINCT"},
		{"SELECT A, B FROM r ORDER BY C LIMIT 3", "ORDER BY"},
		{"SELECT u.A, s.D FROM u, s WHERE u.A = s.A LIMIT 7 OFFSET 5", "LIMIT"},
		{"SELECT A FROM r OFFSET 1", "OFFSET"},
		{"SELECT A FROM r UNION SELECT A FROM s", "UNION"},
		{"SELECT A FROM r WHERE A IS DISTINCT FROM B", "IS DISTINCT FROM"},
		{"SELECT A", "SELECT without FROM"},
		{"SELECT A, B", "SELECT without FROM"},
		{"EXPLAIN SELECT * FROM r", "EXPLAIN"},
		{"SELECT SUM(A) FROM r", "SUM"},
		{"SELECT AVG(A) FROM r", "AVG"},
		{"SELECT MIN(C), MAX(C), SUM(A), AVG(A) FROM r", "MIN"},
		{"SELECT A FROM r GROUP BY A HAVING MAX(C) > 1", "MAX"},
		{"SELECT A FROM r WHERE C = 5 OR B LIKE 'x%'", "LIKE"},
		{"SELECT A FROM r WHERE B NOT LIKE 'x%'", "LIKE"},
		{"SELECT A FROM r WHERE A BETWEEN 1 AND 2 LIMIT 3", "BETWEEN"},
		{"SELECT A FROM r WHERE A NOT BETWEEN 1 AND 2", "BETWEEN"},
		{"SELECT CASE WHEN A = 1 THEN 'one' ELSE B END FROM r", "CASE"},
		{"SELECT SUBSTR(B, 1, A) FROM r", "SUBSTR"},
		{"SELECT UPPER(B) || '!' FROM r WHERE NOT (A = 2)", "UPPER"},
		{"SELECT B || '!' FROM r", "||"},
		{"SELECT A + C FROM r", "+"},
		{"SELECT A / 2 FROM r", "/"},
		{"SELECT A * 2 FROM r", "*"},
		{"SELECT r.A FROM r, s WHERE r.C % 2 = s.A - 1 AND NOT s.D", "%"},
		{"SELECT -A FROM r", "-"},
		{"SELECT A - 1 FROM r", "-"},
		{"SELECT A FROM r WHERE A = 1 / 0", "/"},
		// What Qc and Qv never print: select-list COUNTs and aliases,
		// literals other than a string or an unsigned INT, and !=, <= and >=.
		{"SELECT A, COUNT(*) FROM r GROUP BY A", "COUNT in the select list"},
		{"SELECT COUNT(DISTINCT B) FROM r", "COUNT in the select list"},
		{"SELECT A AS x FROM r", "an alias in the select list"},
		{"SELECT A x, B FROM r", "an alias in the select list"},
		{"SELECT A FROM r WHERE A = NULL", "the NULL literal"},
		{"SELECT A FROM r WHERE A = TRUE OR B = 'x'", "the TRUE literal"},
		{"SELECT A FROM r WHERE FALSE = A", "the FALSE literal"},
		{"SELECT NULL FROM r", "the NULL literal"},
		{"SELECT A FROM r WHERE A = 1.5", "a decimal literal"},
		{"SELECT A FROM r WHERE A <> 2.", "a decimal literal"},
		{"SELECT A FROM r WHERE A = -1", "a sign or arithmetic -"},
		{"SELECT A FROM r GROUP BY A HAVING COUNT(*) > -1", "a sign or arithmetic -"},
		{"SELECT A FROM r WHERE A != 1", "!="},
		{"SELECT A != 1 FROM r", "!="},
		{"SELECT A FROM r GROUP BY A HAVING COUNT(*) >= 2", ">="},
		{"SELECT A FROM r GROUP BY A HAVING COUNT(B) <= COUNT(*)", "<="},
	})
}

// TestParseRejectsValueLevelConstructs: the constructs that needed a
// value-level evaluator, or that no generated statement uses, left the
// grammar; each is a *ParseError that names it. The last four are the
// detector's own statement shapes pushed out of it.
func TestParseRejectsValueLevelConstructs(t *testing.T) {
	rejects(t, []struct{ sql, name string }{
		{"SELECT A FROM r WHERE A IN (1, 2)", "IN"},
		{"SELECT A FROM r WHERE A NOT IN (1, 2)", "IN"},
		{"SELECT A FROM r WHERE B IS NULL", "IS [NOT] NULL"},
		{"SELECT A FROM r WHERE B IS NOT NULL AND A = 1", "IS [NOT] NULL"},
		{"SELECT A FROM r WHERE A IS NOT DISTINCT FROM B", "IS NOT DISTINCT FROM"},
		{"SELECT r.A FROM r, s WHERE r.A = s.A AND r.B IS NOT DISTINCT FROM s.D", "IS NOT DISTINCT FROM"},
		{"SELECT A FROM r WHERE COALESCE(A, 0) = 1", "COALESCE"},
		{"SELECT COALESCE(B, 'none') FROM r", "COALESCE"},
		{"SELECT A FROM r WHERE NOT (A = 1)", "NOT"},
		{"SELECT A FROM r WHERE A = 1 AND NOT B = 'x'", "NOT"},
		{"SELECT A FROM r GROUP BY A HAVING NOT (COUNT(*) = 1)", "NOT"},
		{"SELECT A FROM r WHERE A < 1", "ordering compare <"},
		{"SELECT A FROM r WHERE A <= B", "<="},
		{"SELECT A FROM r WHERE A = 1 OR A > 2", "ordering compare >"},
		{"SELECT A FROM r WHERE A >= 1", ">="},
		{"SELECT A FROM r t WHERE t._tid = 2", "_tid outside the select list"},
		{"SELECT A FROM r WHERE A = _TID", "_tid outside the select list"},
		{"SELECT A FROM r GROUP BY _tid", "_tid outside the select list"},
		{"SELECT A FROM r GROUP BY A HAVING COUNT(DISTINCT _tid) > 1", "_tid outside the select list"},
		{"SELECT A FROM r WHERE 1 = 1", "a comparison of two literals"},
		{"SELECT A FROM r WHERE A = 1 OR 'a' <> 'b'", "a comparison of two literals"},
		{"SELECT A FROM r GROUP BY A HAVING 1 < 2", "a comparison of two literals"},
		{"SELECT A = 1 FROM r", "a comparison in the select list"},
		{"SELECT 1, A FROM r", "a literal in the select list"},
		{"SELECT A FROM r GROUP BY A HAVING A = 1", "a column in HAVING"},
		{"SELECT A FROM r GROUP BY A HAVING COUNT(*) > 1.5", "a decimal literal"},
		{"SELECT A FROM r GROUP BY A HAVING COUNT(*) > '1'", "a STRING literal in HAVING"},
		{"SELECT A FROM r WHERE COUNT(*) > 1", "COUNT in WHERE"},
		{"SELECT A FROM r WHERE A = 1 HAVING COUNT(*) > 0", "HAVING without GROUP BY"},
		{qcOverV + " AND t._tid >= 0", "_tid outside the select list"},       // Qc reading _tid
		{qcOverV + " AND t.C > 43", "ordering compare >"},                    // Qc with a value-level compare
		{qvOverV + " AND COUNT(*) > 1.5", "a decimal literal"},               // Qv with a value-level HAVING
		{qvOverV + " AND COUNT(t._tid) > 0", "_tid outside the select list"}, // Qv counting a value-level operand
	})
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"BOGUS",
		"SELECT",
		"SELECT FROM r",
		"SELECT a FROM",
		"SELECT a FROM r WHERE",
		"SELECT a FROM r GROUP",
		"SELECT a FROM r extra extra",
		"SELECT a FROM r WHERE a NOT 5",
		"SELECT a FROM r WHERE a IN ()",
		"SELECT a FROM r WHERE a IN (b)",
		"SELECT (a FROM r",
		"SELECT COALESCE(a) FROM r",
		"SELECT COALESCE(1, a) FROM r",
		"SELECT COALESCE(a, b) FROM r",
		"SELECT COUNT(COUNT(*)) FROM r",
		"SELECT COUNT(a = 1) FROM r",
		"SELECT - - 5 FROM r",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestExprString(t *testing.T) {
	cases := []struct {
		sql, want string
	}{
		{"SELECT a FROM r WHERE a = 1", "(a = 1)"},
		{"SELECT a FROM r t WHERE t.a <> 'it''s'", "(t.a <> 'it''s')"},
		{"SELECT a FROM r WHERE a <> 15", "(a <> 15)"},
		{"SELECT a FROM r WHERE a = 10 OR b = 'NULL' AND \"select\" = 'TRUE'", "((a = 10) OR ((b = 'NULL') AND (\"select\" = 'TRUE')))"},
		{"SELECT a FROM r GROUP BY a HAVING COUNT(*) > 2", "(COUNT(*) > 2)"},
		{"SELECT a FROM r GROUP BY a HAVING COUNT(DISTINCT a) < COUNT(t.b)", "(COUNT(DISTINCT a) < COUNT(t.b))"},
	}
	for _, c := range cases {
		st := mustParse(t, c.sql)
		e := st.Where
		if e == nil {
			e = st.Having
		}
		if got := exprString(e); got != c.want {
			t.Errorf("exprString(%q) = %q, want %q", c.sql, got, c.want)
		}
	}
}

// TestHasAggregate: COUNT stands in a grouped HAVING, and nowhere else.
func TestHasAggregate(t *testing.T) {
	for _, src := range []string{
		"SELECT a FROM r GROUP BY a HAVING COUNT(*) > 0",
		"SELECT a FROM r GROUP BY a HAVING COUNT(DISTINCT b) > 1",
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
	for _, src := range []string{
		"SELECT COUNT(*) FROM r",
		"SELECT a, COUNT(b) FROM r GROUP BY a",
		"SELECT a FROM r WHERE COUNT(*) = 1",
		"SELECT a FROM r GROUP BY COUNT(*)",
		"SELECT COUNT(COUNT(*)) FROM r",
		"SELECT a = COUNT(b) FROM r",
	} {
		var perr *ParseError
		if _, err := Parse(src); !errors.As(err, &perr) {
			t.Errorf("Parse(%q) = %v, want a *ParseError", src, err)
		}
	}
}

// FuzzParseSQL: Parse never panics and returns a statement or an error, and
// every item, WHERE and HAVING expression of an accepted SELECT prints
// (exprString) to text that re-parses, in the same place of
// "SELECT <item> FROM t WHERE <where> GROUP BY x HAVING <having>", to the
// same AST.
// The seeds are the executor's seeds plus the printer's corners in
// testdata/fuzz/FuzzParseSQL.
func FuzzParseSQL(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		st, err := Parse(src)
		if (st == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %v, %v: want a statement or an error", src, st, err)
		}
		if st == nil {
			return
		}
		reparse := func(text string, e Expr, part func(*SelectStmt) Expr) {
			re, err := Parse(text)
			if err != nil {
				t.Fatalf("%q prints %q, which does not parse: %v", src, text, err)
			}
			if !reflect.DeepEqual(part(re), e) {
				t.Fatalf("%q prints %q, which parses to a different expression", src, text)
			}
		}
		for _, it := range st.Items {
			reparse("SELECT "+exprString(it)+" FROM t", it, func(re *SelectStmt) Expr { return re.Items[0] })
		}
		if st.Where != nil {
			reparse("SELECT x FROM t WHERE "+exprString(st.Where), st.Where, func(re *SelectStmt) Expr { return re.Where })
		}
		if st.Having != nil {
			reparse("SELECT x FROM t GROUP BY x HAVING "+exprString(st.Having), st.Having, func(re *SelectStmt) Expr { return re.Having })
		}
	})
}
