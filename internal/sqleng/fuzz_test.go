package sqleng

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// fuzzStore seeds the store both fuzz engines query: two joinable tables
// with NULLs, duplicate join keys, mixed INT/FLOAT/STRING/BOOL cells and
// an Equal-vs-exact corner (INT 1 next to FLOAT 1.0), and a third, u, whose
// 40 rows repeat few values per column so that two- and three-column driver
// signatures fit the row count and the driver-signature memo replays: INT 1
// and FLOAT 1.0 are two exact codes of one Equal class there, and NULL and
// the empty string are values.
func fuzzStore(tb testing.TB) *relstore.Store {
	store := relstore.NewStore()
	r, err := store.Create(schema.New("r", "A", "B", "C"))
	if err != nil {
		tb.Fatal(err)
	}
	s, err := store.Create(schema.New("s", "A", "D"))
	if err != nil {
		tb.Fatal(err)
	}
	rRows := []relstore.Tuple{
		{types.NewInt(1), types.NewString("x"), types.NewFloat(1.5)},
		{types.NewInt(1), types.NewString("y"), types.Null},
		{types.NewInt(2), types.Null, types.NewFloat(1.0)},
		{types.NewInt(2), types.NewString("x"), types.NewInt(1)},
		{types.Null, types.NewString("z"), types.NewBool(true)},
		{types.NewInt(3), types.NewString(""), types.NewInt(0)},
	}
	sRows := []relstore.Tuple{
		{types.NewInt(1), types.NewString("p")},
		{types.NewInt(2), types.NewString("q")},
		{types.NewInt(2), types.Null},
		{types.Null, types.NewString("r")},
		{types.NewInt(9), types.NewString("s")},
	}
	for _, row := range rRows {
		r.MustInsert(row)
	}
	for _, row := range sRows {
		s.MustInsert(row)
	}
	u, err := store.Create(schema.New("u", "A", "B", "C", "D"))
	if err != nil {
		tb.Fatal(err)
	}
	uA := []types.Value{types.NewInt(1), types.NewFloat(1.0), types.NewInt(2)}
	uB := []types.Value{types.NewString("x"), types.NewString(""), types.Null}
	uC := []types.Value{types.NewString("p"), types.NewString("q")}
	uD := []types.Value{types.NewInt(1), types.Null, types.NewInt(2), types.NewInt(9)}
	for i := 0; i < 40; i++ {
		u.MustInsert(relstore.Tuple{uA[i%3], uB[i%5%3], uC[i%7%2], uD[i%4]})
	}
	return store
}

// checkSQLIdentity runs one SELECT (or EXPLAIN) on the engine and on the
// nested-loop reference and asserts identical outcomes: the same error
// presence, and on mutual success deeply equal Results. Error messages may
// differ; presence may not. An EXPLAIN's plan text is the engine's own.
func checkSQLIdentity(t *testing.T, sql string) {
	if _, err := Parse(sql); err != nil {
		return // not this target's concern
	}
	store := fuzzStore(t)
	res, err := New(store).QueryContext(context.Background(), sql)
	want, werr := refQuery(New(store), sql)
	if (err == nil) != (werr == nil) {
		t.Fatalf("error presence diverged for %q:\n engine:    %v\n reference: %v", sql, err, werr)
	}
	if err == nil && want != nil && !reflect.DeepEqual(res, want) {
		t.Fatalf("results diverged for %q:\n engine:    cols=%v rows=%v versions=%v\n reference: cols=%v rows=%v versions=%v",
			sql, res.Columns, res.Rows, res.Versions, want.Columns, want.Rows, want.Versions)
	}
}

// codeSeeds cover what the cursor pipeline decides on dictionary codes:
// cross-dictionary joins (FLOAT 1.0 meets INT 1 through a translation
// table), COALESCE keys with present and absent defaults, null-safe keys,
// grouped COUNT(DISTINCT) with NULLs (the detector's HAVING), value-level
// group keys beside coded ones, outer-join null extension under a cursor,
// three-valued IN/NOT, and the retired NULL sentinel as an ordinary string.
var codeSeeds = []string{
	"SELECT r.B, s.D FROM r, s WHERE r.B = s.D",
	"SELECT r.C, s.A FROM r, s WHERE r.C = s.A AND r.A <> s.A",
	"SELECT r.A, s.D FROM r, s WHERE COALESCE(r.A, 0) = COALESCE(s.A, 0)",
	"SELECT r.B FROM r, s WHERE COALESCE(r.B, 'q') = s.D AND COALESCE(s.D, 'none') <> 'none'",
	"SELECT r.A, s.D FROM r, s WHERE r.A IS NOT DISTINCT FROM s.A",
	"SELECT r.B, s.D FROM r LEFT JOIN s ON r.A IS NOT DISTINCT FROM s.A AND r.B IS NOT DISTINCT FROM s.D",
	"SELECT A, COUNT(DISTINCT B), COUNT(B), COUNT(*) FROM r GROUP BY A HAVING COUNT(DISTINCT B) > 1 OR (COUNT(DISTINCT B) = 1 AND COUNT(B) < COUNT(*))",
	"SELECT COALESCE(B, 'none'), COUNT(DISTINCT C), SUM(DISTINCT A) FROM r GROUP BY COALESCE(B, 'none')",
	"SELECT A + 0, COUNT(DISTINCT C) FROM r GROUP BY A + 0, B",
	"SELECT r.A, s.D FROM r LEFT JOIN s ON r.A = s.A WHERE s.D IS NULL OR COALESCE(s.D, 'x') <> 'q'",
	"SELECT r.B, COUNT(s.D), COUNT(DISTINCT s.A) FROM r LEFT JOIN s ON r.A = s.A AND s.D <> 'q' GROUP BY r.B",
	"SELECT * FROM r WHERE B NOT IN ('x', NULL) OR A IN (1.0, 7) OR NOT (C = 1 AND B <> 'y')",
	"SELECT r.B, s.D FROM r, s WHERE COALESCE(r.B, '\x00null') = COALESCE(s.D, '\x00null')",
}

// memoSeeds aim at the driver-signature memo's replay path over u: each is
// served by a memo (TestMemoSeedsReplay holds them to it), and between them
// they replay two- and three-column signatures, the detector's Qc and Qv
// shapes, a null-extended tail, LIMIT/OFFSET stopping inside a class's
// replay, DISTINCT, a hoisted probe in a three-table join, a self-join, a
// group key outside the signature, classes that outrun the tail budget, a
// value-level predicate and aggregate, and HAVING on both sides of the
// integer compile.
var memoSeeds = []string{
	"SELECT u.A, s.D FROM u, s WHERE u.A = s.A AND u.B <> s.D",
	"SELECT u.B, s.D FROM u, s WHERE u.A = s.A AND (u.B = s.D OR u.C = 'p')",
	"SELECT u._tid, s._tid, s.D, u.B FROM u, s WHERE (s.A = 9 OR u.A = s.A) AND s.D <> 's' AND u.B <> s.D",
	"SELECT u.A AS A, u.B AS B FROM u, s WHERE (s.A = 9 OR u.A = s.A) AND (s.D = 's' OR u.B = s.D) GROUP BY u.A, u.B HAVING COUNT(DISTINCT u.C) > 1 OR (COUNT(DISTINCT u.C) = 1 AND COUNT(u.C) < COUNT(*))",
	"SELECT u._tid, u.C, u.A, u.B FROM u, r WHERE u.A IS NOT DISTINCT FROM r.A AND u.B IS NOT DISTINCT FROM r.B",
	"SELECT u.A, u.B, s.D FROM u LEFT JOIN s ON u.D = s.A AND s.D <> 'q' AND u.B <> s.D",
	"SELECT u.A, s.D FROM u, s WHERE u.A = s.A LIMIT 7 OFFSET 5",
	"SELECT DISTINCT u.B, s.D FROM u, s WHERE u.A = s.A",
	"SELECT u.A, s.D, r.B FROM u, s, r WHERE u.A = s.A AND u.B = r.B",
	"SELECT u1.A, u2.C FROM u u1, u u2 WHERE u1.A = u2.A AND u1.B = u2.B AND u1.C <> u2.C",
	"SELECT u.A, u.C, COUNT(*), COUNT(s.D) FROM u, s WHERE u.A = s.A GROUP BY u.A, u.C",
	"SELECT COUNT(*) FROM u u1, u u2 WHERE u1.A <> u2.A",
	"SELECT u.A, s.A FROM u, s WHERE u.D < s.A AND u.C LIKE 'p%'",
	"SELECT B, SUM(D), MIN(C) FROM u WHERE A = 1 GROUP BY B",
	"SELECT C, SUM(B) FROM u WHERE A = 2 GROUP BY C",
	"SELECT A, COUNT(*) FROM u WHERE B <> 'x' GROUP BY A HAVING COUNT(B) <= COUNT(*) AND 2 < COUNT(*)",
	"SELECT A, COUNT(*) FROM u WHERE B <> 'x' GROUP BY A HAVING COUNT(*) > 1.5",
	"SELECT A, COUNT(*) FROM u WHERE B <> 'x' GROUP BY A HAVING COUNT(*) > 9 OR COUNT(*) > 1.5",
	"SELECT A, COUNT(*) FROM u WHERE B <> 'x' GROUP BY A HAVING COUNT(*) > '1'",
	"SELECT A, COUNT(*) FROM u WHERE B <> 'x' GROUP BY A HAVING SUM(A) > 1",
	"SELECT C, COUNT(B) FROM u WHERE A = 1 GROUP BY C HAVING NOT (COUNT(B) = COUNT(*))",
}

// TestMemoSeedsReplay: every memo seed is planned with a driver memo, and
// running it replays rows — the identity battery would otherwise pass
// without ever entering the path the seeds exist for.
func TestMemoSeedsReplay(t *testing.T) {
	for _, sql := range memoSeeds {
		e := New(fuzzStore(t))
		if lines := planLines(t, e, "EXPLAIN "+sql); indexOfLine(lines, "driver memo on") < 0 {
			t.Errorf("%s\nis planned without a memo:\n%s", sql, strings.Join(lines, "\n"))
		}
		if _, err := e.QueryContext(context.Background(), sql); err != nil {
			t.Errorf("%s: %v", sql, err)
		}
		if ops := e.OpStats(); ops.MemoReplays == 0 || ops.MemoClasses == 0 {
			t.Errorf("%s\nreplayed %d rows of %d recorded classes", sql, ops.MemoReplays, ops.MemoClasses)
		}
	}
}

// fuzzSeeds is the seed list FuzzSQLExec starts from and
// TestFuzzSeedsIdentity replays: every pipeline stage — code filters,
// PLI/hash/nested joins, outer joins, residuals, value-level predicates,
// grouping, HAVING, DISTINCT, ORDER BY and LIMIT/OFFSET — then codeSeeds
// and memoSeeds. The arithmetic, SUBSTR and SUM seeds meet operands of the
// wrong kind and zero divisors, which evaluate to NULL.
var fuzzSeeds = slices.Concat([]string{
	"SELECT * FROM r",
	"SELECT A, B FROM r WHERE A = 1",
	"SELECT * FROM r WHERE B IS NULL",
	"SELECT * FROM r WHERE B IS NOT NULL AND A <> 2",
	"SELECT r.A, s.D FROM r, s WHERE r.A = s.A",
	"SELECT r.B, s.D FROM r LEFT JOIN s ON r.A = s.A",
	"SELECT * FROM r, s WHERE r.A = s.A AND s.D = 'q'",
	"SELECT * FROM r, s",
	"SELECT r.A FROM r INNER JOIN s ON r.A = s.A AND s.D <> 'p'",
	"SELECT A, COUNT(*) AS n FROM r GROUP BY A HAVING COUNT(*) > 1",
	"SELECT COUNT(DISTINCT B) FROM r",
	"SELECT DISTINCT A FROM r ORDER BY A DESC LIMIT 2 OFFSET 1",
	"SELECT A + C FROM r",
	"SELECT 1 / A FROM r",
	"SELECT * FROM r WHERE C > 0.5 OR B LIKE 'x%'",
	"SELECT COALESCE(B, 'none') FROM r WHERE A IN (1, 3)",
	"SELECT SUBSTR(B, 1, A) FROM r",
	"SELECT CASE WHEN A = 1 THEN 'one' ELSE B END FROM r",
	"SELECT r1.A FROM r r1, r r2 WHERE r1.A = r2.A AND r1.B <> r2.B",
	"SELECT * FROM r WHERE A BETWEEN 1 AND 2 LIMIT 3",
	"EXPLAIN SELECT r.A FROM r, s WHERE r.A = s.A",
	"SELECT MIN(C), MAX(C), SUM(A), AVG(A) FROM r",
	"SELECT UPPER(B) || '!' FROM r WHERE NOT (A = 2)",
	"SELECT r.A FROM r, s WHERE r.A = s.A AND r.B = s.D",
	"SELECT r.B, s.D FROM r LEFT JOIN s ON r.A = s.A AND r.B = s.D",
	"SELECT r1.A FROM r r1, r r2 WHERE r1.A = r2.A AND r1.B = r2.B AND r1.C = r2.C",
	"SELECT A, B FROM r ORDER BY C LIMIT 3",
}, codeSeeds, memoSeeds, []string{
	// An ON reads only the tables joined so far: a later one is an unknown
	// column, not a stale cursor.
	"SELECT r.A FROM r JOIN s ON r.A = s.A AND u.B = 'x' JOIN u ON u.A = r.A",
	"SELECT r.A, u.B FROM r LEFT JOIN s ON r.A = s.A JOIN u ON u.A = s.A AND u.C = 'p' WHERE 10 / r.A > 3",
	"SELECT * FROM r, s WHERE r.C % 2 = s.A - 1 AND NOT s.D",
	"SELECT B, SUM(B), AVG(C), SUM(DISTINCT C) FROM r GROUP BY B",
	"SELECT 1 / 0, -'a', ABS('x'), SUBSTR('abc', 'x')",
	"EXPLAIN SELECT *",
})

// FuzzSQLExec feeds arbitrary SQL text through the engine and the
// nested-loop reference and demands identical results. The seed corpus
// (testdata/fuzz/FuzzSQLExec) adds the committed inputs.
func FuzzSQLExec(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		if len(sql) > 4096 {
			return // cap pathological inputs; the grammar fits in far less
		}
		checkSQLIdentity(t, sql)
	})
}

// TestFuzzSeedsIdentity replays the seed list as a plain test so the
// identity gate runs on every `go test`, not only under -fuzz.
func TestFuzzSeedsIdentity(t *testing.T) {
	for _, sql := range fuzzSeeds {
		if _, err := Parse(sql); err != nil {
			t.Errorf("seed %q does not parse (checkSQLIdentity would skip it): %v", sql, err)
		}
		checkSQLIdentity(t, sql)
	}
}
