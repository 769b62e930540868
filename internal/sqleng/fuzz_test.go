package sqleng

import (
	"context"
	"math"
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
// classes fit the row count and the class walk replays: INT 1
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
	// v and its tableau vp take the detector's two statement shapes: v.A's
	// Equal classes hold INT 1 with FLOAT 1.0 and FLOAT -0 with +0, each
	// pair two exact codes of one class, which the class walk decides once.
	// v.E is constant on each class of v.A but the second.
	v, err := store.Create(schema.New("v", "A", "B", "C", "E"))
	if err != nil {
		tb.Fatal(err)
	}
	vA := []types.Value{types.NewInt(1), types.NewFloat(1.0), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(0), types.NewInt(2)}
	for i := 0; i < 40; i++ {
		e := types.NewString("e")
		if i%5 == 2 && i%2 == 1 {
			e = types.NewString("f")
		}
		v.MustInsert(relstore.Tuple{vA[i%5], []types.Value{types.NewString("x"), types.NewString("y")}[i%2],
			[]types.Value{types.NewString("p"), types.NewString("q")}[i%7%2], e})
	}
	vp, err := store.Create(schema.New("vp", "A", "B", "C"))
	if err != nil {
		tb.Fatal(err)
	}
	wild := types.NewString("_")
	vp.MustInsert(relstore.Tuple{wild, wild, wild})
	vp.MustInsert(relstore.Tuple{types.NewInt(1), wild, types.NewString("p")})
	vp.MustInsert(relstore.Tuple{types.NewInt(0), types.NewString("x"), types.NewString("q")})
	return store
}

// checkSQLIdentity runs one SELECT on the engine and on the nested-loop
// reference and asserts identical outcomes: the same error presence, and on
// mutual success deeply equal Results. Error messages may differ; presence
// may not. A SELECT of two rows or more is streamed again by a consumer
// that stops halfway, which must have been handed the reference's first
// half.
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
	if err == nil && !reflect.DeepEqual(res, want) {
		t.Fatalf("results diverged for %q:\n engine:    cols=%v rows=%v versions=%v\n reference: cols=%v rows=%v versions=%v",
			sql, res.Columns, res.Rows, res.Versions, want.Columns, want.Rows, want.Versions)
	}
	ss, serr := New(store).Stream(context.Background(), sql)
	if err != nil || serr != nil || len(want.Rows) < 2 {
		return
	}
	half, got := len(want.Rows)/2, [][]types.Value(nil)
	if err := ss.Each(context.Background(), func(row []types.Value) bool {
		got = append(got, slices.Clone(row))
		return len(got) < half
	}); err != nil || !reflect.DeepEqual(got, want.Rows[:half]) {
		t.Fatalf("a consumer stopping after %d rows of %q got %v (err %v), want %v", half, sql, got, err, want.Rows[:half])
	}
}

// codeSeeds cover what the cursor pipeline decides on dictionary codes:
// cross-dictionary joins (FLOAT 1.0 meets INT 1 through a translation
// table), keys under OR, NULL literals, grouped COUNT(DISTINCT) with NULLs
// (the detector's HAVING), a pushed-down OR on the joined side, and the
// retired NULL sentinel as an ordinary string.
var codeSeeds = []string{
	"SELECT r.B, s.D FROM r, s WHERE r.B = s.D",
	"SELECT r.C, s.A FROM r, s WHERE r.C = s.A AND r.A <> s.A",
	"SELECT r.A, s.D FROM r, s WHERE r.A = s.A OR r.A = 0",
	"SELECT r.B FROM r, s WHERE (r.B = s.D OR s.D = 'q') AND s.D <> 'none'",
	"SELECT r.A, s.D FROM r, s WHERE r.A = s.A OR s.A = NULL",
	"SELECT r.B, s.D FROM r, s WHERE r.A <> s.A AND r.B <> s.D",
	"SELECT A, COUNT(DISTINCT B), COUNT(B), COUNT(*) FROM r GROUP BY A HAVING COUNT(DISTINCT B) > 1 OR (COUNT(DISTINCT B) = 1 AND COUNT(B) < COUNT(*))",
	"SELECT B, COUNT(DISTINCT C), COUNT(DISTINCT A) FROM r GROUP BY B",
	"SELECT A, COUNT(DISTINCT C) FROM r GROUP BY A, B",
	"SELECT r.A, s.D FROM r, s WHERE r.A = s.A AND (s.D = NULL OR s.D <> 'q')",
	"SELECT r.B, COUNT(s.D), COUNT(DISTINCT s.A) FROM r, s WHERE r.A = s.A AND s.D <> 'q' GROUP BY r.B",
	"SELECT * FROM r WHERE (B <> 'x' AND B <> NULL) OR A = 1.0 OR A = 7 OR C <> 1 OR B = 'y'",
	"SELECT r.B, s.D FROM r, s WHERE r.B = s.D OR r.B = '\x00null'",
}

// memoSeeds aim at the class walk over u (TestMemoSeedsReplay holds them to
// it): between them they classify on two- and three-column vectors, take
// the detector's Qc and Qv shapes, a joined _tid fetched at the sink, a
// group key outside D, a three-table join, a self-join, classes that
// outrun the tail budget, and HAVING over every comparison.
var memoSeeds = []string{
	"SELECT u.A, s.D FROM u, s WHERE u.A = s.A AND u.B <> s.D",
	"SELECT u.B, s.D FROM u, s WHERE u.A = s.A AND (u.B = s.D OR u.C = 'p')",
	"SELECT u._tid, s._tid, s.D, u.B FROM u, s WHERE (s.A = 9 OR u.A = s.A) AND s.D <> 's' AND u.B <> s.D",
	"SELECT u.A AS A, u.B AS B FROM u, s WHERE (s.A = 9 OR u.A = s.A) AND (s.D = 's' OR u.B = s.D) GROUP BY u.A, u.B HAVING COUNT(DISTINCT u.C) > 1 OR (COUNT(DISTINCT u.C) = 1 AND COUNT(u.C) < COUNT(*))",
	"SELECT u._tid, u.C, u.A, u.B FROM u, r WHERE u.A = r.A AND u.B = r.B",
	"SELECT u.A, u.B, s.D FROM u, s WHERE u.D = s.A AND s.D <> 'q' AND u.B <> s.D",
	"SELECT u.A, s.D, s._tid FROM u, s WHERE u.A = s.A",
	"SELECT u.B, s.D FROM u, s WHERE u.A = s.A GROUP BY u.B, s.D",
	"SELECT u.A, s.D, r.B FROM u, s, r WHERE u.A = s.A AND u.B = r.B",
	"SELECT u1.A, u2.C FROM u u1, u u2 WHERE u1.A = u2.A AND u1.B = u2.B AND u1.C <> u2.C",
	"SELECT u.A, u.C, COUNT(*), COUNT(s.D) FROM u, s WHERE u.A = s.A GROUP BY u.A, u.C",
	"SELECT COUNT(*) FROM u u1, u u2 WHERE u1.A <> u2.A",
	"SELECT u.A, s.A FROM u, s WHERE u.D <> s.A AND u.C <> 'q'",
	"SELECT B, COUNT(D), COUNT(DISTINCT C) FROM u WHERE A = 1 GROUP BY B",
	"SELECT C, _tid, COUNT(DISTINCT D) FROM u WHERE A = 2 GROUP BY C",
	"SELECT A, COUNT(*) FROM u WHERE B <> 'x' GROUP BY A HAVING COUNT(B) <= COUNT(*) AND 2 < COUNT(*)",
	"SELECT A, COUNT(*) FROM u WHERE B <> 'x' GROUP BY A HAVING COUNT(*) >= 2",
	"SELECT A, COUNT(*) FROM u WHERE B <> 'x' GROUP BY A HAVING COUNT(*) > 9 OR COUNT(*) = 2",
	"SELECT A, COUNT(*) FROM u WHERE B <> 'x' GROUP BY A HAVING COUNT(*) <> -1",
	"SELECT A, COUNT(*) FROM u WHERE B <> 'x' AND A <> 2 GROUP BY A HAVING COUNT(D) > 1",
	"SELECT C, COUNT(B) FROM u WHERE A = 1 GROUP BY C HAVING COUNT(B) <> COUNT(*)",
}

// TestMemoSeedsReplay: every memo and walk seed is planned with the class
// walk, and running it serves rows from their class's decision — the
// identity battery would otherwise pass without ever entering the path the
// seeds exist for.
func TestMemoSeedsReplay(t *testing.T) {
	for _, sql := range slices.Concat(memoSeeds, walkSeeds) {
		e := New(fuzzStore(t))
		if lines := planLines(t, e, sql); indexOfLine(lines, "class walk on") < 0 {
			t.Errorf("%s\nis planned without the class walk:\n%s", sql, strings.Join(lines, "\n"))
		}
		if _, err := e.QueryContext(context.Background(), sql); err != nil {
			t.Errorf("%s: %v", sql, err)
		}
		if ops := e.OpStats(); ops.ClassRows == 0 || ops.DriverClasses == 0 {
			t.Errorf("%s\nserved %d rows from %d decided classes", sql, ops.ClassRows, ops.DriverClasses)
		}
	}
}

// fuzzSeeds is the seed list FuzzSQLExec starts from and
// TestFuzzSeedsIdentity replays: every pipeline stage — code filters, joins
// with composite keys, joined-scan pushdown, _tid and * projections,
// grouping, HAVING, errors — then codeSeeds and memoSeeds. Operands of the
// wrong kind make a comparison false.
var fuzzSeeds = slices.Concat([]string{
	"SELECT * FROM r",
	"SELECT A, B FROM r WHERE A = 1",
	"SELECT * FROM r WHERE B = NULL OR B = 'x'",
	"SELECT * FROM r WHERE B <> 'y' AND A <> 2",
	"SELECT r.A, s.D FROM r, s WHERE r.A = s.A",
	"SELECT r.*, s.D FROM r, s WHERE r.A = s.A AND s.D <> 'q'",
	"SELECT * FROM r, s WHERE r.A = s.A AND s.D = 'q'",
	"SELECT * FROM r, s",
	"SELECT r.A FROM r, s WHERE r.A = s.A AND s.D <> 'p'",
	"SELECT A, COUNT(*) AS n FROM r GROUP BY A HAVING COUNT(*) > 1",
	"SELECT COUNT(DISTINCT B) FROM r",
	"SELECT A FROM r GROUP BY A",
	"SELECT A, C FROM r WHERE A = C OR A <> C",
	"SELECT A FROM r WHERE A <> -1 AND C <> -0.5",
	"SELECT * FROM r WHERE C = 1.5 OR B = 'x'",
	"SELECT B FROM r WHERE A = 1 OR A = 3",
	"SELECT _tid, COUNT(DISTINCT C) FROM r GROUP BY B",
	"SELECT A, B FROM r WHERE A = 1 OR B = NULL OR A = 2.0",
	"SELECT r1.A FROM r r1, r r2 WHERE r1.A = r2.A AND r1.B <> r2.B",
	"SELECT * FROM r WHERE (A = 1 OR A = 2) AND (B = 'x' OR C = 1)",
	"SELECT r.A FROM r, s WHERE r.A = s.A AND r.C = s.A",
	"SELECT COUNT(C), COUNT(DISTINCT C), COUNT(*) FROM r",
	"SELECT B FROM r WHERE A <> 2",
	"SELECT r.A FROM r, s WHERE r.A = s.A AND r.B = s.D",
	"SELECT r.B, s.D FROM r, s WHERE s.D = r.B AND s.A = r.A",
	"SELECT r1.A FROM r r1, r r2 WHERE r1.A = r2.A AND r1.B = r2.B AND r1.C = r2.C",
	"SELECT t._tid, t.* FROM r t WHERE t.C = 1",
}, codeSeeds, memoSeeds, []string{
	"SELECT r.A FROM r, s, u WHERE r.A = s.A AND u.B = 'x' AND u.A = r.A",
	"SELECT r.A, u.B FROM r, s, u WHERE r.A = s.A AND u.A = s.A AND u.C = 'p' AND r.A <> 1",
	"SELECT * FROM r, s WHERE r.C = s.A AND s.D <> r.B",
	"SELECT B, COUNT(B), COUNT(DISTINCT C), COUNT(DISTINCT A), COUNT(C) FROM r GROUP BY B",
	"SELECT A FROM r WHERE A = 'a' OR C = TRUE OR B = 1",
	"SELECT x.* FROM r",
}, walkSeeds)

// walkSeeds aim at the class walk's edges, after every earlier seed so
// that seed#N names stay: GROUP BY on a strict subset of D, so that several
// classes fall in one group; a grouped key holding INT 1 and FLOAT 1.0 (one
// class, one group); a grouped fan-out join whose last class is given up
// past the tail budget, and one whose given-up classes come before a
// counted one of another group (groups open in class order);
// COUNT(DISTINCT) over a column that differs within classes; a non-grouped
// walk whose rows a stopping consumer (checkSQLIdentity) leaves mid-class;
// the detector's Qv and Qc over v (mixedKindSeeds); and a group per class
// of D, counted whole but for the second class, which its rows feed.
var walkSeeds = []string{
	"SELECT u.A, COUNT(*), COUNT(DISTINCT u.C), COUNT(s.D) FROM u, s WHERE u.A = s.A AND u.B <> s.D GROUP BY u.A",
	"SELECT u.A, COUNT(*), COUNT(u.D) FROM u WHERE u.A <> 2 GROUP BY u.A",
	"SELECT u1.A, COUNT(*), COUNT(u2.D), COUNT(DISTINCT u2.B) FROM u u1, u u2 WHERE u1.A <> u2.A GROUP BY u1.A",
	"SELECT u1.A, COUNT(*), COUNT(u2.B) FROM u u1, u u2, s WHERE u1.A <> u2.A AND (u1.A = 1 OR s.A = 9) GROUP BY u1.A",
	"SELECT u.C, COUNT(DISTINCT u.D), COUNT(u.D), COUNT(*) FROM u WHERE u.C <> 'z' GROUP BY u.C",
	"SELECT u._tid, u.A, s.D FROM u, s WHERE u.A = s.A",
	mixedKindSeeds[0], mixedKindSeeds[1], mixedKindSeeds[2], mixedKindSeeds[3],
	"SELECT v.A, COUNT(DISTINCT v.E), COUNT(*) FROM v WHERE v.A <> 9 GROUP BY v.A",
}

// mixedKindSeeds are the detector's Qv and Qc shapes over v and its
// tableau vp, each as generated and with one more comparison on v.A, whose
// classes mix INT 1 with FLOAT 1.0 and -0 with +0.
var mixedKindSeeds = []string{
	qvOverV, qvOverV[:strings.Index(qvOverV, " GROUP BY")] + " AND t.A <> 2" + qvOverV[strings.Index(qvOverV, " GROUP BY"):],
	qcOverV, qcOverV + " AND t.A <> 1",
}

const (
	qvOverV = "SELECT t.A, t.B FROM v t, vp tp WHERE (tp.A = '_' OR t.A = tp.A) AND (tp.B = '_' OR t.B = tp.B) AND tp.C = '_' " +
		"GROUP BY t.A, t.B HAVING COUNT(DISTINCT t.C) > 1 OR (COUNT(DISTINCT t.C) = 1 AND COUNT(t.C) < COUNT(*))"
	qcOverV = "SELECT t._tid, tp._tid, tp.C, t.C FROM v t, vp tp WHERE (tp.A = '_' OR t.A = tp.A) AND (tp.B = '_' OR t.B = tp.B) " +
		"AND tp.C <> '_' AND t.C <> tp.C"
)

// TestClassWalkDecidesMixedKindsWhole runs the detector's statement shapes
// over v, whose A classes each hold two exact codes: every class is decided
// once on its Equal codes, with or without a further comparison on A, and
// the pipeline's result is the nested-loop reference's.
func TestClassWalkDecidesMixedKindsWhole(t *testing.T) {
	store := fuzzStore(t)
	tab, _ := store.Table("v")
	a := tab.Snapshot().Columnar().Col(0)
	if a.CodeSpace() != 5 || a.EqCode(0) != a.EqCode(1) || a.EqCode(2) != a.EqCode(3) || a.EqCode(0) == a.EqCode(2) {
		t.Fatalf("v.A has %d exact codes; want INT 1 ~ FLOAT 1.0 and -0 ~ +0, two codes a class", a.CodeSpace())
	}
	for i, sql := range mixedKindSeeds {
		checkSQLIdentity(t, sql)
		e := New(store)
		if _, err := e.QueryContext(context.Background(), sql); err != nil {
			t.Fatal(err)
		}
		// D's classes: A's three times B's two, times C's two for Qc.
		classes := int64(3 * 2)
		if i >= 2 {
			classes *= 2
		}
		if decided := e.OpStats().DriverClasses; decided != classes {
			t.Errorf("%s\ndecided %d of its %d classes whole, want all of them", sql, decided, classes)
		}
	}
}

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
