package sqleng

import (
	"context"
	"errors"
	"fmt"
	"reflect"
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
	res := mustQuery(e, "SELECT NAME AS who, CC cc1, CITY FROM customer WHERE NAME = 'Joe'")
	if !reflect.DeepEqual(res.Columns, []string{"who", "cc1", "CITY"}) {
		t.Errorf("columns = %v", res.Columns)
	}
	if res.Rows[0][1].Int() != 1 || res.Rows[0][2].Str() != "New York" {
		t.Errorf("row = %v", res.Rows[0])
	}
	res = mustQuery(e, "SELECT COUNT(*) AS n, COUNT(DISTINCT CNT) FROM customer")
	if !reflect.DeepEqual(res.Columns, []string{"n", "COUNT(DISTINCT CNT)"}) {
		t.Errorf("columns = %v", res.Columns)
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
		{"SELECT * FROM customer WHERE 44 = CC", 3},
		{"SELECT * FROM customer WHERE CC = 44.0", 3},
		{"SELECT * FROM customer WHERE CC <> 44", 2},
		{"SELECT * FROM customer WHERE CC != 44", 2},
		{"SELECT * FROM customer WHERE CITY = 'London' OR CITY = 'Chicago'", 2},
		{"SELECT * FROM customer WHERE CITY <> 'London' AND CITY <> 'Chicago'", 3},
		{"SELECT * FROM customer WHERE CC = AC OR (CNT = 'UK' AND CITY <> 'London')", 2},
		{"SELECT * FROM customer WHERE CC = 'absent'", 0},
	}
	for _, c := range cases {
		res := mustQuery(e, c.sql)
		if len(res.Rows) != c.want {
			t.Errorf("%s: %d rows, want %d", c.sql, len(res.Rows), c.want)
		}
	}
}

// TestThreeValuedLogic: a comparison with NULL holds neither way, and AND
// and OR keep what SQL's three-valued logic keeps.
func TestThreeValuedLogic(t *testing.T) {
	store := relstore.NewStore()
	tab, _ := store.Create(schema.New("r", "A", "B"))
	tab.MustInsert(relstore.Tuple{types.NewInt(1), types.Null})
	tab.MustInsert(relstore.Tuple{types.NewInt(2), types.NewInt(5)})
	e := New(store)
	for _, c := range []struct {
		where string
		want  int
	}{
		{"B = 5", 1},
		{"B <> 5", 0},   // NULL <> 5 is unknown
		{"B = NULL", 0}, // and so is NULL = NULL
		{"B <> NULL", 0},
		{"B = 999 OR A = 1", 1}, // OR with one true side survives a NULL
		{"B <> 999 AND A = 1", 0},
		{"A = B OR A <> B", 1},
	} {
		if res := mustQuery(e, "SELECT * FROM r WHERE "+c.where); len(res.Rows) != c.want {
			t.Errorf("%s: %d rows, want %d", c.where, len(res.Rows), c.want)
		}
	}
}

func TestAggregatesGlobal(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(e, "SELECT COUNT(*), COUNT(DISTINCT CNT), COUNT(CC), COUNT(DISTINCT CITY) FROM customer")
	if got := rowStrings(res); len(got) != 1 || got[0] != "5|2|5|4" {
		t.Errorf("rows = %v, want 5|2|5|4", got)
	}
}

func TestAggregatesEmptyInput(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(e, "SELECT COUNT(*), COUNT(CC), COUNT(DISTINCT CC), NAME FROM customer WHERE CNT = 'FR'")
	if got := rowStrings(res); len(got) != 1 || got[0] != "0|0|0|NULL" {
		t.Errorf("rows = %v, want one row 0|0|0|NULL", got)
	}
}

func TestGroupByHaving(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(e, `
		SELECT CNT, COUNT(*) AS n FROM customer
		GROUP BY CNT HAVING COUNT(*) >= 2`)
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

// TestCommaJoinCompositeKey: a self-join keyed on two columns, both checked
// as code predicates — the shape of the paper's multi-tuple violation
// query, pairs in the same CNT and ZIP with different STR.
func TestCommaJoinCompositeKey(t *testing.T) {
	e := newTestEngine(t)
	res := mustQuery(e, `
		SELECT t1.NAME, t2.NAME FROM customer t1, customer t2
		WHERE t1.CNT = t2.CNT AND t1.ZIP = t2.ZIP AND t1.STR <> t2.STR`)
	if len(res.Rows) != 2 { // (Mike,Rick) and (Rick,Mike)
		t.Errorf("rows = %v", rowStrings(res))
	}
}

// TestInnerJoinOn: an inner join on a key, its ON condition written in
// WHERE: each left row pairs with every matching right row, in right-side
// order, and a row without a partner drops out.
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
	res := mustQuery(e, "SELECT c.NAME, o.ITEM FROM c, o WHERE c.ID = o.CID")
	got := rowStrings(res)
	if len(got) != 2 || got[0] != "a|x" || got[1] != "a|y" {
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
	// A condition without an equality filters the cross product.
	res = mustQuery(e, "SELECT * FROM a, b WHERE a.X <> b.Y")
	if len(res.Rows) != 6 {
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
		WHERE a.K = b.K AND b.K = c.K AND (a.K = 2 OR a.K = 3)`)
	got := rowStrings(res)
	if len(got) != 2 || got[0] != "a2|b2|c2" || got[1] != "a3|b3|c3" {
		t.Errorf("rows = %v", got)
	}
}

// TestScalarFunctions: the grammar has no scalar function; each, COALESCE
// included, is a *ParseError naming it.
func TestScalarFunctions(t *testing.T) {
	store := relstore.NewStore()
	tab, _ := store.Create(schema.New("r", "A"))
	tab.MustInsert(relstore.Tuple{types.NewString("x")})
	e := New(store)
	for _, c := range []struct{ sql, name string }{
		{"SELECT COALESCE(A, 'none') FROM r", "COALESCE"},
		{"SELECT A FROM r WHERE COALESCE(A, 'none') = 'x'", "COALESCE"},
		{"SELECT UPPER(A) FROM r", "UPPER"},
	} {
		var perr *ParseError
		if _, err := e.QueryContext(context.Background(), c.sql); !errors.As(err, &perr) || !strings.Contains(err.Error(), c.name) {
			t.Errorf("%s: err = %v, want a *ParseError naming %s", c.sql, err, c.name)
		}
	}
}

// TestTotalExpressions pins evaluation as total: a comparison between
// operands of different kinds is false, never an error, and INT and FLOAT
// compare by value.
func TestTotalExpressions(t *testing.T) {
	e := newTestEngine(t)
	for _, c := range []struct{ sql, want string }{
		{"SELECT COUNT(*) FROM customer WHERE NAME = 1", "0"},
		{"SELECT COUNT(*) FROM customer WHERE NAME <> 1", "5"},
		{"SELECT COUNT(*) FROM customer WHERE CC = 'x' OR CC = 44", "3"},
		{"SELECT COUNT(*) FROM customer WHERE CC = TRUE", "0"},
		{"SELECT COUNT(*) FROM customer WHERE CC = 1.0", "2"},
		{"SELECT COUNT(*) FROM customer t1, customer t2 WHERE t1.CC = t2.NAME", "0"},
		{"SELECT COUNT(*) FROM customer t1, customer t2 WHERE t1.CC <> t2.NAME", "25"},
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
		"SELECT COUNT(COUNT(*)) FROM customer",                          // nested aggregate
		"SELECT * FROM customer WHERE COUNT(CC) > 1",                    // aggregate in WHERE
		"SELECT CNT, COUNT(*) FROM customer GROUP BY COUNT(*)",          // aggregate in GROUP BY
		"SELECT COUNT(nope) FROM customer",
		"SELECT x.* FROM customer",
		"SELECT t1.NAME FROM customer t1, customer t2 WHERE t1.CC = t2.CC AND CITY = t2.CITY", // ambiguous in a join key's residual
		"SELECT NOPE(1) FROM customer",
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

// TestGroupByExpression: a group key is a column, NULL grouping as a value
// of its own and INT and FLOAT as one; an expression key is a *ParseError.
func TestGroupByExpression(t *testing.T) {
	store := relstore.NewStore()
	tab, _ := store.Create(schema.New("r", "A", "B"))
	for _, row := range []relstore.Tuple{
		{types.NewInt(1), types.Null}, {types.NewFloat(1.0), types.Null}, {types.Null, types.NewString("x")},
		{types.NewInt(1), types.NewString("x")}, {types.Null, types.NewString("y")},
	} {
		tab.MustInsert(row)
	}
	e := New(store)
	res := mustQuery(e, "SELECT A, COUNT(*), COUNT(B), COUNT(DISTINCT B) FROM r GROUP BY A")
	if got := rowStrings(res); !reflect.DeepEqual(got, []string{"1|3|1|1", "NULL|2|2|2"}) {
		t.Errorf("rows = %v", got)
	}
	var perr *ParseError
	if _, err := e.QueryContext(context.Background(), "SELECT A, COUNT(*) FROM r GROUP BY A = 1"); !errors.As(err, &perr) {
		t.Errorf("GROUP BY A = 1: err = %v, want a *ParseError", err)
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
