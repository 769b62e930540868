package sqleng

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// newTestEngine builds a store with the paper's customer relation loaded.
func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	store := relstore.NewStore()
	tab, err := store.Create(schema.New("customer", "NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"))
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]string{
		{"Mike", "UK", "Edinburgh", "EH2 4SD", "Mayfield", "44", "131"},
		{"Rick", "UK", "Edinburgh", "EH2 4SD", "Crichton", "44", "131"},
		{"Joe", "US", "New York", "01202", "Mtn Ave", "1", "908"},
		{"Ann", "UK", "London", "SW1A", "Downing", "44", "20"},
		{"Ben", "US", "Chicago", "60601", "Wacker", "1", "312"},
	}
	for _, r := range rows {
		row := make(relstore.Tuple, len(r))
		for i, f := range r {
			row[i] = types.Parse(f)
		}
		tab.MustInsert(row)
	}
	return New(store)
}

// mustQuery runs one statement for a test fixture; it panics on error.
func mustQuery(e *Engine, sql string) *Result {
	r, err := e.QueryContext(context.Background(), sql)
	if err != nil {
		panic(err)
	}
	return r
}

func rowStrings(res *Result) []string {
	var out []string
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out
}

func TestSelectStar(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(e, "SELECT * FROM customer")
	if len(res.Columns) != 7 {
		t.Fatalf("columns = %v", res.Columns)
	}
	if res.Columns[0] != "NAME" {
		t.Errorf("col0 = %q", res.Columns[0])
	}
	if len(res.Rows) != 5 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestSelectWhere(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(e, "SELECT NAME FROM customer WHERE CNT = 'UK' AND CITY = 'Edinburgh'")
	got := rowStrings(res)
	if len(got) != 2 || got[0] != "Mike" || got[1] != "Rick" {
		t.Errorf("rows = %v", got)
	}
}

func TestSelectProjectionAndAlias(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(e, "SELECT NAME AS who, CC + 1 AS cc1 FROM customer WHERE NAME = 'Joe'")
	if res.Columns[0] != "who" || res.Columns[1] != "cc1" {
		t.Errorf("columns = %v", res.Columns)
	}
	if res.Rows[0][1].Int() != 2 {
		t.Errorf("cc1 = %v", res.Rows[0][1])
	}
}

func TestSelectTIDPseudoColumn(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(e, "SELECT t._tid, t.NAME FROM customer t WHERE t.NAME = 'Rick'")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", rowStrings(res))
	}
	if res.Rows[0][0].Kind() != types.KindInt {
		t.Errorf("_tid kind = %v", res.Rows[0][0].Kind())
	}
	// _tid must not leak through *.
	star := mustQuery(e, "SELECT * FROM customer")
	for _, c := range star.Columns {
		if c == TIDColumn {
			t.Error("_tid leaked into *")
		}
	}
}

func TestComparisonOperators(t *testing.T) {
	e := newTestEngine(t)
	cases := []struct {
		sql  string
		want int
	}{
		{"SELECT * FROM customer WHERE CC = 44", 3},
		{"SELECT * FROM customer WHERE CC <> 44", 2},
		{"SELECT * FROM customer WHERE CC < 44", 2},
		{"SELECT * FROM customer WHERE CC <= 44", 5},
		{"SELECT * FROM customer WHERE CC > 1", 3},
		{"SELECT * FROM customer WHERE CC >= 44", 3},
		{"SELECT * FROM customer WHERE NAME LIKE 'M%'", 1},
		{"SELECT * FROM customer WHERE NAME LIKE '_ick'", 1},
		{"SELECT * FROM customer WHERE NAME NOT LIKE '%e%'", 2},
		{"SELECT * FROM customer WHERE CITY IN ('London', 'Chicago')", 2},
		{"SELECT * FROM customer WHERE CC BETWEEN 2 AND 50", 3},
		{"SELECT * FROM customer WHERE AC NOT BETWEEN 100 AND 1000", 1},
	}
	for _, c := range cases {
		res := mustQuery(e, c.sql)
		if len(res.Rows) != c.want {
			t.Errorf("%s: %d rows, want %d", c.sql, len(res.Rows), c.want)
		}
	}
}

func TestThreeValuedLogic(t *testing.T) {
	store := relstore.NewStore()
	tab, _ := store.Create(schema.New("r", "A", "B"))
	tab.MustInsert(relstore.Tuple{types.NewInt(1), types.Null})
	tab.MustInsert(relstore.Tuple{types.NewInt(2), types.NewInt(5)})
	e := New(store)

	// NULL comparisons never match.
	if res := mustQuery(e, "SELECT * FROM r WHERE B = 5"); len(res.Rows) != 1 {
		t.Errorf("B = 5 rows = %d", len(res.Rows))
	}
	if res := mustQuery(e, "SELECT * FROM r WHERE B <> 5"); len(res.Rows) != 0 {
		t.Errorf("B <> 5 rows = %d", len(res.Rows))
	}
	if res := mustQuery(e, "SELECT * FROM r WHERE B IS NULL"); len(res.Rows) != 1 {
		t.Errorf("IS NULL rows = %d", len(res.Rows))
	}
	if res := mustQuery(e, "SELECT * FROM r WHERE B IS NOT NULL"); len(res.Rows) != 1 {
		t.Errorf("IS NOT NULL rows = %d", len(res.Rows))
	}
	// OR with one true side survives a NULL.
	if res := mustQuery(e, "SELECT * FROM r WHERE B = 999 OR A = 1"); len(res.Rows) != 1 {
		t.Errorf("OR rows = %d", len(res.Rows))
	}
	// NOT(NULL) is NULL → filtered out.
	if res := mustQuery(e, "SELECT * FROM r WHERE NOT (B = 5)"); len(res.Rows) != 0 {
		t.Errorf("NOT rows = %d", len(res.Rows))
	}
	// IN with NULL in list: no match yields NULL, not FALSE.
	if res := mustQuery(e, "SELECT * FROM r WHERE A NOT IN (2, NULL)"); len(res.Rows) != 0 {
		t.Errorf("NOT IN with NULL rows = %d", len(res.Rows))
	}
}

func TestAggregatesGlobal(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(e, "SELECT COUNT(*), COUNT(DISTINCT CNT), MIN(CC), MAX(AC), SUM(CC), AVG(CC) FROM customer")
	row := res.Rows[0]
	if row[0].Int() != 5 {
		t.Errorf("COUNT(*) = %v", row[0])
	}
	if row[1].Int() != 2 {
		t.Errorf("COUNT(DISTINCT CNT) = %v", row[1])
	}
	if row[2].Int() != 1 {
		t.Errorf("MIN = %v", row[2])
	}
	if row[3].Int() != 908 {
		t.Errorf("MAX = %v", row[3])
	}
	if row[4].Int() != 44*3+2 {
		t.Errorf("SUM = %v", row[4])
	}
	if got := row[5].Float(); got != (44.0*3+2)/5 {
		t.Errorf("AVG = %v", got)
	}
}

func TestAggregatesEmptyInput(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(e, "SELECT COUNT(*), SUM(CC), MIN(CC) FROM customer WHERE CNT = 'FR'")
	row := res.Rows[0]
	if row[0].Int() != 0 {
		t.Errorf("COUNT over empty = %v", row[0])
	}
	if !row[1].IsNull() || !row[2].IsNull() {
		t.Errorf("SUM/MIN over empty = %v %v", row[1], row[2])
	}
}

func TestGroupByHaving(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(e, `
		SELECT CNT, COUNT(*) AS n FROM customer
		GROUP BY CNT HAVING COUNT(*) >= 2 ORDER BY CNT`)
	got := rowStrings(res)
	if len(got) != 2 || got[0] != "UK|3" || got[1] != "US|2" {
		t.Errorf("rows = %v", got)
	}
}

func TestGroupByMultiKey(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(e, `
		SELECT CNT, ZIP, COUNT(DISTINCT STR) AS streets FROM customer
		GROUP BY CNT, ZIP HAVING COUNT(DISTINCT STR) > 1`)
	got := rowStrings(res)
	if len(got) != 1 || got[0] != "UK|EH2 4SD|2" {
		t.Errorf("rows = %v", got)
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(e, "SELECT NAME FROM customer ORDER BY NAME")
	got := rowStrings(res)
	want := []string{"Ann", "Ben", "Joe", "Mike", "Rick"}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("order %d = %q, want %q", i, got[i], w)
		}
	}
	res = mustQuery(e, "SELECT NAME FROM customer ORDER BY NAME DESC LIMIT 2")
	got = rowStrings(res)
	if len(got) != 2 || got[0] != "Rick" || got[1] != "Mike" {
		t.Errorf("desc limit = %v", got)
	}
	res = mustQuery(e, "SELECT NAME FROM customer ORDER BY NAME LIMIT 2 OFFSET 4")
	got = rowStrings(res)
	if len(got) != 1 || got[0] != "Rick" {
		t.Errorf("offset = %v", got)
	}
	res = mustQuery(e, "SELECT NAME FROM customer ORDER BY NAME OFFSET 99")
	if len(res.Rows) != 0 {
		t.Errorf("big offset rows = %d", len(res.Rows))
	}
}

func TestOrderByOutputAlias(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(e, "SELECT CNT, COUNT(*) AS n FROM customer GROUP BY CNT ORDER BY n DESC")
	got := rowStrings(res)
	if got[0] != "UK|3" {
		t.Errorf("rows = %v", got)
	}
}

func TestDistinct(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(e, "SELECT DISTINCT CNT FROM customer ORDER BY CNT")
	got := rowStrings(res)
	if len(got) != 2 || got[0] != "UK" || got[1] != "US" {
		t.Errorf("rows = %v", got)
	}
}

func TestCommaJoinWithHash(t *testing.T) {
	e := newTestEngine(t)
	// Self-join: pairs in the same CNT+ZIP with different STR — the shape
	// of the paper's multi-tuple violation query.
	res := mustQuery(e, `
		SELECT t1.NAME, t2.NAME FROM customer t1, customer t2
		WHERE t1.CNT = t2.CNT AND t1.ZIP = t2.ZIP AND t1.STR <> t2.STR`)
	if len(res.Rows) != 2 { // (Mike,Rick) and (Rick,Mike)
		t.Errorf("rows = %v", rowStrings(res))
	}
}

func TestInnerJoinOn(t *testing.T) {
	store := relstore.NewStore()
	c, _ := store.Create(schema.New("c", "ID", "NAME"))
	o, _ := store.Create(schema.New("o", "CID", "ITEM"))
	c.MustInsert(relstore.Tuple{types.NewInt(1), types.NewString("a")})
	c.MustInsert(relstore.Tuple{types.NewInt(2), types.NewString("b")})
	o.MustInsert(relstore.Tuple{types.NewInt(1), types.NewString("x")})
	o.MustInsert(relstore.Tuple{types.NewInt(1), types.NewString("y")})
	o.MustInsert(relstore.Tuple{types.NewInt(3), types.NewString("z")})
	e := New(store)
	res := mustQuery(e, "SELECT c.NAME, o.ITEM FROM c JOIN o ON c.ID = o.CID ORDER BY o.ITEM")
	got := rowStrings(res)
	if len(got) != 2 || got[0] != "a|x" || got[1] != "a|y" {
		t.Errorf("rows = %v", got)
	}
}

func TestLeftJoin(t *testing.T) {
	store := relstore.NewStore()
	c, _ := store.Create(schema.New("c", "ID", "NAME"))
	o, _ := store.Create(schema.New("o", "CID", "ITEM"))
	c.MustInsert(relstore.Tuple{types.NewInt(1), types.NewString("a")})
	c.MustInsert(relstore.Tuple{types.NewInt(2), types.NewString("b")})
	o.MustInsert(relstore.Tuple{types.NewInt(1), types.NewString("x")})
	e := New(store)
	res := mustQuery(e, "SELECT c.NAME, o.ITEM FROM c LEFT JOIN o ON c.ID = o.CID ORDER BY c.NAME")
	got := rowStrings(res)
	if len(got) != 2 || got[0] != "a|x" || got[1] != "b|NULL" {
		t.Errorf("rows = %v", got)
	}
}

func TestCrossJoinNoKeys(t *testing.T) {
	store := relstore.NewStore()
	a, _ := store.Create(schema.New("a", "X"))
	b, _ := store.Create(schema.New("b", "Y"))
	for i := 0; i < 3; i++ {
		a.MustInsert(relstore.Tuple{types.NewInt(int64(i))})
		b.MustInsert(relstore.Tuple{types.NewInt(int64(i))})
	}
	e := New(store)
	res := mustQuery(e, "SELECT * FROM a, b")
	if len(res.Rows) != 9 {
		t.Errorf("cross join rows = %d", len(res.Rows))
	}
	// Non-equi condition still applies via residual filter.
	res = mustQuery(e, "SELECT * FROM a, b WHERE a.X < b.Y")
	if len(res.Rows) != 3 {
		t.Errorf("filtered cross join rows = %d", len(res.Rows))
	}
}

func TestJoinThreeTables(t *testing.T) {
	store := relstore.NewStore()
	for _, n := range []string{"a", "b", "c"} {
		tab, _ := store.Create(schema.New(n, "K", "V"+n))
		for i := 0; i < 4; i++ {
			tab.MustInsert(relstore.Tuple{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("%s%d", n, i))})
		}
	}
	e := New(store)
	res := mustQuery(e, `SELECT a.Va, b.Vb, c.Vc FROM a, b, c
		WHERE a.K = b.K AND b.K = c.K AND a.K >= 2 ORDER BY a.Va`)
	got := rowStrings(res)
	if len(got) != 2 || got[0] != "a2|b2|c2" || got[1] != "a3|b3|c3" {
		t.Errorf("rows = %v", got)
	}
}

func TestScalarFunctions(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(e, `SELECT UPPER(NAME), LOWER(CNT), LENGTH(NAME),
		SUBSTR(NAME, 1, 2), COALESCE(NULL, NAME), CONCAT(NAME, '-', CNT), ABS(-5)
		FROM customer WHERE NAME = 'Mike'`)
	row := res.Rows[0]
	want := []string{"MIKE", "uk", "4", "Mi", "Mike", "Mike-UK", "5"}
	for i, w := range want {
		if row[i].String() != w {
			t.Errorf("func %d = %v, want %q", i, row[i], w)
		}
	}
}

func TestCaseExpression(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(e, `SELECT NAME, CASE WHEN CC = 44 THEN 'gb' WHEN CC = 1 THEN 'us' ELSE 'other' END AS tag
		FROM customer ORDER BY NAME`)
	got := rowStrings(res)
	if got[0] != "Ann|gb" || got[2] != "Joe|us" {
		t.Errorf("rows = %v", got)
	}
}

func TestArithmetic(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(e, "SELECT 2 + 3 * 4, 10 / 3, 10 % 3, 1.5 + 1, -(2 - 5)")
	row := res.Rows[0]
	if row[0].Int() != 14 || row[1].Int() != 3 || row[2].Int() != 1 {
		t.Errorf("ints = %v", row)
	}
	if row[3].Float() != 2.5 {
		t.Errorf("float = %v", row[3])
	}
	if row[4].Int() != 3 {
		t.Errorf("neg = %v", row[4])
	}
}

// TestDivisionByZero: x/0 and x%0 are NULL, as in SQLite.
func TestDivisionByZero(t *testing.T) {
	e := newTestEngine(t)
	for _, q := range []string{"SELECT 1 / 0", "SELECT 1 % 0", "SELECT 1.5 / 0.0"} {
		res, err := e.QueryContext(context.Background(), q)
		if err != nil || !res.Rows[0][0].IsNull() {
			t.Errorf("%s = %v (%v), want NULL", q, res, err)
		}
	}
}

// TestTotalExpressions pins evaluation as total: an operand of the wrong
// kind or a zero divisor is NULL, and SUM and AVG skip an operand that is
// not a number the way they skip NULL.
func TestTotalExpressions(t *testing.T) {
	e := newTestEngine(t)
	for _, c := range []struct{ sql, want string }{
		{"SELECT 1 / 0", "NULL"},
		{"SELECT 1 % 0", "NULL"},
		{"SELECT 1.5 % 2", "NULL"},
		{"SELECT 'a' + 1", "NULL"},
		{"SELECT -'a'", "NULL"},
		{"SELECT NOT 'a'", "NULL"},
		{"SELECT NOT 1", "NULL"},
		{"SELECT SUBSTR('abc', 'x')", "NULL"},
		{"SELECT SUBSTR('abc', 1, 'x')", "NULL"},
		{"SELECT ABS('x')", "NULL"},
		{"SELECT SUM(NAME) FROM customer", "NULL"},
		{"SELECT AVG(NAME) FROM customer", "NULL"},
		{"SELECT SUM(CASE WHEN CNT = 'UK' THEN CC ELSE NAME END) FROM customer", "132"},
		{"SELECT AVG(CASE WHEN CNT = 'UK' THEN CC ELSE NAME END) FROM customer", "44"},
		{"SELECT COUNT(*) FROM customer WHERE 1 / (CC - 44) IS NULL", "3"},
		{"SELECT COUNT(*) FROM customer t1, customer t2 WHERE t1.CC = t2.CC AND t1.AC % (t2.CC - 1) IS NULL", "4"},
	} {
		res, err := e.QueryContext(context.Background(), c.sql)
		if err != nil {
			t.Errorf("%s: %v", c.sql, err)
			continue
		}
		if got := rowStrings(res); len(got) != 1 || got[0] != c.want {
			t.Errorf("%s = %v, want %s", c.sql, got, c.want)
		}
	}
}

// TestInsertUpdateDelete: the engine only reads. INSERT, UPDATE and DELETE
// are parse errors and leave the table as it was.
func TestInsertUpdateDelete(t *testing.T) {
	e := newTestEngine(t)
	tab, _ := e.Store().Table("customer")
	version := tab.Version()
	for _, q := range []string{
		"INSERT INTO customer VALUES ('Zed', 'NL', 'Amsterdam', '1011', 'Dam', 31, 20)",
		"UPDATE customer SET CITY = 'Rotterdam' WHERE NAME = 'Mike'",
		"DELETE FROM customer WHERE CNT = 'US'",
	} {
		var perr *ParseError
		if _, err := e.QueryContext(context.Background(), q); !errors.As(err, &perr) {
			t.Errorf("%s: err = %v, want a *ParseError", q, err)
		}
	}
	if tab.Version() != version || tab.Len() != 5 {
		t.Errorf("table at version %d with %d rows, want %d with 5", tab.Version(), tab.Len(), version)
	}
}

// TestCreateDropTable: CREATE TABLE and DROP TABLE are parse errors and
// leave the store as it was.
func TestCreateDropTable(t *testing.T) {
	e := newTestEngine(t)
	for _, q := range []string{"CREATE TABLE t (a INT, b STRING)", "DROP TABLE customer"} {
		var perr *ParseError
		if _, err := e.QueryContext(context.Background(), q); !errors.As(err, &perr) {
			t.Errorf("%s: err = %v, want a *ParseError", q, err)
		}
	}
	if _, ok := e.Store().Table("t"); ok {
		t.Error("CREATE TABLE created a table")
	}
	if n := mustQuery(e, "SELECT COUNT(*) FROM customer").Rows[0][0].Int(); n != 5 {
		t.Errorf("customer has %d rows after DROP TABLE, want 5", n)
	}
}

func TestExecErrors(t *testing.T) {
	e := newTestEngine(t)
	cases := []string{
		"SELECT nope FROM customer",
		"SELECT * FROM nope",
		"SELECT t1.NAME FROM customer t1, customer t2 WHERE NAME = 'x'", // ambiguous
		"SELECT COUNT(*) + MAX(COUNT(*)) FROM customer",                 // nested aggregate
		"SELECT * FROM customer WHERE SUM(CC) > 1",                      // aggregate in WHERE
		"SELECT *",
		"SELECT COUNT(*)", // an aggregate without FROM
		"SELECT 1 WHERE 1 = 0",
		"SELECT c.NAME FROM customer c JOIN customer d ON d.NAME = x.NAME JOIN customer x ON x.CC = c.CC", // an ON reads only the tables joined so far
		"SELECT SUBSTR('abc', 1, 2, 3)",
		"SELECT NOPE(1)",
	}
	for _, sql := range cases {
		if _, err := e.QueryContext(context.Background(), sql); err == nil {
			t.Errorf("Query(%q) should fail", sql)
		}
	}
}

func TestAggregateInWhereRejected(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.QueryContext(context.Background(), "SELECT NAME FROM customer WHERE COUNT(*) > 1"); err == nil {
		t.Error("aggregate in WHERE should be rejected")
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"%", "", true},
		{"%", "anything", true},
		{"a%", "abc", true},
		{"a%", "bac", false},
		{"%c", "abc", true},
		{"a_c", "abc", true},
		{"a_c", "ac", false},
		{"%b%", "abc", true},
		{"", "", true},
		{"", "x", false},
		{"a%b%c", "aXbYc", true},
		{"a%b%c", "acb", false},
		{"__", "ab", true},
		{"__", "a", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.pattern, c.s); got != c.want {
			t.Errorf("likeMatch(%q,%q) = %v", c.pattern, c.s, got)
		}
	}
}

func TestSelectNoFrom(t *testing.T) {
	e := New(relstore.NewStore())
	res := mustQuery(e, "SELECT 1 + 1 AS two, 'x'")
	if res.Rows[0][0].Int() != 2 || res.Rows[0][1].Str() != "x" {
		t.Errorf("rows = %v", rowStrings(res))
	}
	if res.Columns[0] != "two" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestGroupByExpression(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(e, `SELECT SUBSTR(NAME, 1, 1) AS initial, COUNT(*) FROM customer
		GROUP BY SUBSTR(NAME, 1, 1) ORDER BY initial`)
	if len(res.Rows) != 5 {
		t.Errorf("rows = %v", rowStrings(res))
	}
}

func TestPatternTableauJoinShape(t *testing.T) {
	// The exact shape of the paper's constant-violation detection query:
	// a customer row joined to a tableau row via "don't care or equal".
	store := relstore.NewStore()
	cust, _ := store.Create(schema.New("customer", "CNT", "ZIP", "STR"))
	tp, _ := store.Create(schema.New("tp", "CNT", "ZIP", "STR"))
	rows := [][]string{
		{"UK", "EH2", "Mayfield"},
		{"UK", "EH2", "Crichton"},
		{"US", "07974", "Mtn Ave"},
	}
	for _, r := range rows {
		cust.MustInsert(relstore.Tuple{types.NewString(r[0]), types.NewString(r[1]), types.NewString(r[2])})
	}
	// Pattern (UK, _, _) on LHS — matches UK rows only.
	tp.MustInsert(relstore.Tuple{types.NewString("UK"), types.NewString("_"), types.NewString("_")})
	e := New(store)
	res := mustQuery(e, `
		SELECT t.CNT, t.ZIP, t.STR FROM customer t, tp
		WHERE (tp.CNT = '_' OR t.CNT = tp.CNT)
		  AND (tp.ZIP = '_' OR t.ZIP = tp.ZIP)`)
	if len(res.Rows) != 2 {
		t.Errorf("pattern match rows = %v", rowStrings(res))
	}
}

func TestRunPreparsedStatement(t *testing.T) {
	e := newTestEngine(t)
	st, err := Parse("SELECT COUNT(*) FROM customer")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunContext(context.Background(), st)
	if err != nil || res.Rows[0][0].Int() != 5 {
		t.Errorf("Run: %v %v", res, err)
	}
}
