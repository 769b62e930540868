package sqleng

import (
	"errors"
	"reflect"
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
	if st.Limit != -1 {
		t.Errorf("limit = %d", st.Limit)
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
		SELECT DISTINCT cnt, COUNT(*) AS n
		FROM customer c, tableau tp
		WHERE c.zip = tp.zip AND c.cc <> 0
		GROUP BY cnt
		HAVING COUNT(*) > 1
		ORDER BY n DESC, cnt ASC
		LIMIT 10 OFFSET 5`).(*SelectStmt)
	if !st.Distinct {
		t.Error("distinct")
	}
	if len(st.From) != 2 {
		t.Errorf("from = %+v", st.From)
	}
	if len(st.GroupBy) != 1 || st.Having == nil {
		t.Error("group/having")
	}
	if len(st.OrderBy) != 2 || !st.OrderBy[0].Desc || st.OrderBy[1].Desc {
		t.Errorf("order = %+v", st.OrderBy)
	}
	if st.Limit != 10 || st.Offset != 5 {
		t.Errorf("limit/offset = %d/%d", st.Limit, st.Offset)
	}
}

func TestParseJoin(t *testing.T) {
	st := mustParse(t, "SELECT * FROM a JOIN b ON a.x = b.y LEFT JOIN c ON b.z = c.z").(*SelectStmt)
	if len(st.Joins) != 2 {
		t.Fatalf("joins = %d", len(st.Joins))
	}
	if st.Joins[0].Left || !st.Joins[1].Left {
		t.Errorf("join kinds = %+v", st.Joins)
	}
	mustParse(t, "SELECT * FROM a INNER JOIN b ON a.x = b.y")
}

func TestParseExpressionPrecedence(t *testing.T) {
	st := mustParse(t, "SELECT a + b * c FROM r").(*SelectStmt)
	add := st.Items[0].Expr.(*BinaryExpr)
	if add.Op != "+" {
		t.Fatalf("top op = %q", add.Op)
	}
	mul := add.R.(*BinaryExpr)
	if mul.Op != "*" {
		t.Errorf("inner op = %q", mul.Op)
	}

	st2 := mustParse(t, "SELECT * FROM r WHERE a = 1 OR b = 2 AND c = 3").(*SelectStmt)
	or := st2.Where.(*BinaryExpr)
	if or.Op != "OR" {
		t.Fatalf("top = %q, want OR", or.Op)
	}
	and := or.R.(*BinaryExpr)
	if and.Op != "AND" {
		t.Errorf("right = %q, want AND", and.Op)
	}
}

func TestParsePredicates(t *testing.T) {
	cases := []string{
		"SELECT * FROM r WHERE a IS NULL",
		"SELECT * FROM r WHERE a IS NOT NULL",
		"SELECT * FROM r WHERE a IN (1, 2, 3)",
		"SELECT * FROM r WHERE a NOT IN ('x')",
		"SELECT * FROM r WHERE a BETWEEN 1 AND 10",
		"SELECT * FROM r WHERE a NOT BETWEEN 1 AND 10",
		"SELECT * FROM r WHERE a LIKE 'ab%'",
		"SELECT * FROM r WHERE a NOT LIKE 'ab%'",
		"SELECT * FROM r WHERE NOT (a = 1)",
		"SELECT * FROM r WHERE a <> b AND NOT c = d",
		"SELECT CASE WHEN a = 1 THEN 'one' ELSE 'other' END FROM r",
		"SELECT COUNT(DISTINCT a) FROM r",
		"SELECT -a, a - -b FROM r",
		"SELECT a || '-' || b FROM r",
		"SELECT UPPER(a), SUBSTR(a, 1, 2) FROM r",
	}
	for _, src := range cases {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

// TestParseDML: the grammar has no writes. INSERT, UPDATE and DELETE are
// parse errors.
func TestParseDML(t *testing.T) {
	for _, src := range []string{
		"INSERT INTO r (a, b) VALUES (1, 'x'), (2, 'y')",
		"UPDATE r SET a = 1, b = 'z' WHERE c = 2",
		"DELETE FROM r WHERE a = 1",
	} {
		var perr *ParseError
		if st, err := Parse(src); !errors.As(err, &perr) {
			t.Errorf("Parse(%q) = %v, %v; want a *ParseError", src, st, err)
		}
	}
}

// TestParseDDL: CREATE TABLE and DROP TABLE are parse errors.
func TestParseDDL(t *testing.T) {
	for _, src := range []string{"CREATE TABLE r (a INT, b STRING)", "DROP TABLE r"} {
		var perr *ParseError
		if st, err := Parse(src); !errors.As(err, &perr) {
			t.Errorf("Parse(%q) = %v, %v; want a *ParseError", src, st, err)
		}
	}
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
		"SELECT * FROM r LIMIT x",
		"INSERT r VALUES (1)",
		"INSERT INTO r VALUES 1",
		"UPDATE r a = 1",
		"DELETE r",
		"CREATE TABLE r",
		"SELECT a FROM r extra extra",
		"SELECT * FROM r WHERE a NOT 5",
		"SELECT CASE END FROM r",
		"SELECT * FROM r WHERE a IN ()",
		"SELECT (a FROM r",
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
		{"SELECT a + 1 FROM r", "(a + 1)"},
		{"SELECT t.a FROM r t", "t.a"},
		{"SELECT COUNT(*) FROM r", "COUNT(*)"},
		{"SELECT COUNT(DISTINCT a) FROM r", "COUNT(DISTINCT a)"},
		{"SELECT a IS NULL FROM r", "a IS NULL"},
		{"SELECT a IN (1, 2) FROM r", "a IN (1, 2)"},
		{"SELECT a BETWEEN 1 AND 2 FROM r", "a BETWEEN 1 AND 2"},
		{"SELECT NOT a FROM r", "NOT a"},
		{"SELECT CASE WHEN a THEN 1 ELSE 2 END FROM r", "CASE WHEN a THEN 1 ELSE 2 END"},
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
		{"SELECT a + SUM(b) FROM r", true},
		{"SELECT UPPER(a) FROM r", false},
		{"SELECT a FROM r", false},
		{"SELECT CASE WHEN MAX(a) > 1 THEN 1 END FROM r", true},
		{"SELECT a IN (MIN(b)) FROM r", true},
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
// (exprString) to text that re-parses, as SELECT <expr>, to the same AST.
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
			re, err := Parse("SELECT " + text)
			if err != nil {
				t.Fatalf("%q prints %q, which does not parse: %v", src, text, err)
			}
			if items := re.(*SelectStmt).Items; len(items) != 1 || !reflect.DeepEqual(items[0].Expr, e) {
				t.Fatalf("%q prints %q, which parses to a different expression", src, text)
			}
		}
	})
}
