package sqleng

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return st
}

func TestParseSimpleSelect(t *testing.T) {
	st := mustParse(t, "SELECT a, b AS bee FROM r WHERE a = 'x'").(*SelectStmt)
	if len(st.Items) != 2 {
		t.Fatalf("items = %d", len(st.Items))
	}
	if st.Items[1].Alias != "bee" {
		t.Errorf("alias = %q", st.Items[1].Alias)
	}
	if len(st.From) != 1 || st.From[0].Table != "r" || st.From[0].Alias != "r" {
		t.Errorf("from = %+v", st.From)
	}
	if st.Where == nil {
		t.Error("missing where")
	}
}

func TestParseStarForms(t *testing.T) {
	st := mustParse(t, "SELECT *, t.* FROM r t").(*SelectStmt)
	if !st.Items[0].Star || st.Items[0].StarTable != "" {
		t.Errorf("item0 = %+v", st.Items[0])
	}
	if !st.Items[1].Star || st.Items[1].StarTable != "t" {
		t.Errorf("item1 = %+v", st.Items[1])
	}
	if st.From[0].Alias != "t" {
		t.Errorf("alias = %q", st.From[0].Alias)
	}
}

func TestParseFullSelect(t *testing.T) {
	st := mustParse(t, `
		SELECT cnt, COUNT(*) AS n
		FROM customer c, tableau tp
		WHERE c.zip = tp.zip AND c.cc <> 0
		GROUP BY cnt
		HAVING COUNT(*) > 1`).(*SelectStmt)
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
	st := mustParse(t, "SELECT * FROM a, b x, c AS y WHERE a.k = x.k AND x.k = y.k").(*SelectStmt)
	want := []FromItem{{Table: "a", Alias: "a"}, {Table: "b", Alias: "x"}, {Table: "c", Alias: "y"}}
	if !reflect.DeepEqual(st.From, want) {
		t.Errorf("from = %+v, want %+v", st.From, want)
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	st := mustParse(t, "SELECT * FROM r WHERE a = 1 OR b = 2 AND c = 3").(*SelectStmt)
	or := st.Where.(*BinaryExpr)
	if or.Op != "OR" {
		t.Fatalf("top = %q, want OR", or.Op)
	}
	and := or.R.(*BinaryExpr)
	if and.Op != "AND" {
		t.Errorf("right = %q, want AND", and.Op)
	}
	st = mustParse(t, "SELECT * FROM r WHERE NOT a = 1 AND b IS NULL").(*SelectStmt)
	and = st.Where.(*BinaryExpr)
	if not, ok := and.L.(*UnaryExpr); and.Op != "AND" || !ok || not.E.(*BinaryExpr).Op != "=" {
		t.Errorf("NOT a = 1 AND ... parsed as %s", exprString(st.Where))
	}
}

func TestParsePredicates(t *testing.T) {
	cases := []string{
		"SELECT * FROM r WHERE a IS NULL",
		"SELECT * FROM r WHERE a IS NOT NULL",
		"SELECT * FROM r WHERE a IN (1, 2, 3)",
		"SELECT * FROM r WHERE a NOT IN ('x', NULL, -1.5)",
		"SELECT * FROM r WHERE a IS NOT DISTINCT FROM b",
		"SELECT * FROM r WHERE NOT (a = 1)",
		"SELECT * FROM r WHERE a <> b AND NOT c != d",
		"SELECT * FROM r WHERE a < 1 OR a <= 1 OR a > 1 OR a >= 1",
		"SELECT COUNT(DISTINCT a), COUNT(a), COUNT(*) FROM r",
		"SELECT COALESCE(a, 'none'), COALESCE(t.a, -1) FROM r t",
		"SELECT _tid, -5 FROM r WHERE (a = 1) = TRUE",
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
		{"SELECT * FROM a JOIN b ON a.x = b.y", "JOIN"},
		{"SELECT r.A FROM r JOIN s ON r.A = s.A AND u.B = 'x' JOIN u ON u.A = r.A", "JOIN"},
		{"SELECT * FROM a INNER JOIN b ON a.x = b.y", "INNER JOIN"},
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
		{"SELECT * FROM r WHERE A IS DISTINCT FROM B", "IS DISTINCT FROM"},
		{"SELECT 1", "SELECT without FROM"},
		{"SELECT 0,*", "SELECT without FROM"},
		{"EXPLAIN SELECT *", "SELECT without FROM"},
		{"SELECT SUM(A) FROM r", "SUM"},
		{"SELECT AVG(A) FROM r", "AVG"},
		{"SELECT MIN(C), MAX(C), SUM(A), AVG(A) FROM r", "MIN"},
		{"SELECT A, COUNT(*) FROM r GROUP BY A HAVING MAX(C) > 1", "MAX"},
		{"SELECT * FROM r WHERE C > 0.5 OR B LIKE 'x%'", "LIKE"},
		{"SELECT * FROM r WHERE B NOT LIKE 'x%'", "LIKE"},
		{"SELECT * FROM r WHERE A BETWEEN 1 AND 2 LIMIT 3", "BETWEEN"},
		{"SELECT * FROM r WHERE A NOT BETWEEN 1 AND 2", "BETWEEN"},
		{"SELECT CASE WHEN A = 1 THEN 'one' ELSE B END FROM r", "CASE"},
		{"SELECT SUBSTR(B, 1, A) FROM r", "SUBSTR"},
		{"SELECT UPPER(B) || '!' FROM r WHERE NOT (A = 2)", "UPPER"},
		{"SELECT B || '!' FROM r", "||"},
		{"SELECT A + C FROM r", "+"},
		{"SELECT 1 / A FROM r", "/"},
		{"SELECT A * 2 FROM r", "*"},
		{"SELECT * FROM r, s WHERE r.C % 2 = s.A - 1 AND NOT s.D", "%"},
		{"SELECT -A FROM r", "-"},
		{"SELECT A - 1 FROM r", "-"},
		{"SELECT 1 / 0, -'a', ABS('x'), SUBSTR('abc', 'x')", "/"},
	})
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"BOGUS",
		"SELECT",
		"SELECT FROM r",
		"SELECT * FROM",
		"SELECT * FROM r WHERE",
		"SELECT * FROM r GROUP",
		"SELECT a FROM r extra extra",
		"SELECT * FROM r WHERE a NOT 5",
		"SELECT * FROM r WHERE a IN ()",
		"SELECT * FROM r WHERE a IN (b)",
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
		{"SELECT a = 1 FROM r", "(a = 1)"},
		{"SELECT t.a FROM r t", "t.a"},
		{"SELECT COUNT(*) FROM r", "COUNT(*)"},
		{"SELECT COUNT(DISTINCT a) FROM r", "COUNT(DISTINCT a)"},
		{"SELECT coalesce(a, -1.5) FROM r", "COALESCE(a, -1.5)"},
		{"SELECT a IS NULL FROM r", "a IS NULL"},
		{"SELECT a IN (1, 2) FROM r", "a IN (1, 2)"},
		{"SELECT NOT a FROM r", "NOT a"},
		{"SELECT (a IS NULL) = b FROM r", "((a IS NULL) = b)"},
		{"SELECT a IS NOT DISTINCT FROM b FROM r", "(a IS NOT DISTINCT FROM b)"},
		{"SELECT 'it''s' FROM r", "'it''s'"},
	}
	for _, c := range cases {
		st := mustParse(t, c.sql).(*SelectStmt)
		if got := exprString(st.Items[0].Expr); got != c.want {
			t.Errorf("exprString(%q) = %q, want %q", c.sql, got, c.want)
		}
	}
}

func TestHasAggregate(t *testing.T) {
	cases := []struct {
		sql  string
		want bool
	}{
		{"SELECT COUNT(*) FROM r", true},
		{"SELECT a = COUNT(b) FROM r", true},
		{"SELECT COALESCE(a, 1) FROM r", false},
		{"SELECT a FROM r", false},
		{"SELECT NOT (COUNT(a) > 1) FROM r", true},
		{"SELECT COUNT(a) IN (1) FROM r", true},
	}
	for _, c := range cases {
		st := mustParse(t, c.sql).(*SelectStmt)
		if got := hasAggregate(st.Items[0].Expr); got != c.want {
			t.Errorf("hasAggregate(%q) = %v", c.sql, got)
		}
	}
}

// FuzzParseSQL: Parse never panics and returns a statement or an error, and
// every item, WHERE and HAVING expression of an accepted SELECT prints
// (exprString) to text that re-parses, as SELECT <expr> FROM t, to the
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
		sel, ok := st.(*SelectStmt)
		if x, isExplain := st.(*ExplainStmt); isExplain {
			sel, ok = x.Select, true
		}
		if !ok {
			return
		}
		exprs := []Expr{sel.Where, sel.Having}
		for _, it := range sel.Items {
			exprs = append(exprs, it.Expr)
		}
		for _, e := range exprs {
			if e == nil {
				continue
			}
			text := exprString(e)
			re, err := Parse("SELECT " + text + " FROM t")
			if err != nil {
				t.Fatalf("%q prints %q, which does not parse: %v", src, text, err)
			}
			if items := re.(*SelectStmt).Items; len(items) != 1 || !reflect.DeepEqual(items[0].Expr, e) {
				t.Fatalf("%q prints %q, which parses to a different expression", src, text)
			}
		}
	})
}
