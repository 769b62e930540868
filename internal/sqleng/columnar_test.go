package sqleng

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// newColumnarCrossStore builds a store with a table whose values attack
// the dictionary encodings: strings shaped like Key() renderings of other
// kinds, the legacy separator byte, NULLs, cross-kind numeric equals and
// duplicated rows.
func newColumnarCrossStore(t *testing.T) *relstore.Store {
	t.Helper()
	store := relstore.NewStore()
	tab, err := store.Create(schema.New("t", "A", "B", "C", "D"))
	if err != nil {
		t.Fatal(err)
	}
	pool := []types.Value{
		types.Null,
		types.NewString("d1"),
		types.NewString("1"),
		types.NewString("x\x1fy"),
		types.NewString(""),
		types.NewString("uk"),
		types.NewString("UK"),
		types.NewInt(1),
		types.NewFloat(2.5),
		types.NewInt(-3),
		types.NewBool(true),
		types.NewInt(0),
		types.NewFloat(math.Copysign(0, -1)), // -0.0: Equal to 0, distinct bits
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 120; i++ {
		row := make(relstore.Tuple, 4)
		for j := range row {
			row[j] = pool[rng.Intn(len(pool))]
		}
		tab.MustInsert(row)
	}
	// A companion table for joins.
	other, err := store.Create(schema.New("u", "A", "N"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		other.MustInsert(relstore.Tuple{
			pool[rng.Intn(len(pool))], types.NewInt(int64(i % 6))})
	}
	return store
}

// TestColumnarScanMatchesRowScan runs a battery of queries through the
// engine's columnar pipeline and through the nested-loop reference, which
// reads each table by its snapshot's row scan, and requires deep-equal
// results: same columns, same rows, same order, same value kinds.
func TestColumnarScanMatchesRowScan(t *testing.T) {
	queries := []string{
		// Plain scans and projections.
		"SELECT * FROM t",
		"SELECT A, C FROM t",
		"SELECT t._tid FROM t",
		// Equality pushdown, both operand orders, every kind.
		"SELECT * FROM t WHERE A = 'd1'",
		"SELECT * FROM t WHERE 'x\x1fy' = B",
		"SELECT * FROM t WHERE C = 1",   // matches INT 1 (and any FLOAT 1)
		"SELECT * FROM t WHERE C = 1.0", // same Equal-class as above
		"SELECT * FROM t WHERE D = 2.5",
		"SELECT * FROM t WHERE C = 0",        // matches INT 0 and FLOAT -0.0 alike
		"SELECT * FROM t WHERE A = ''",       // empty string is not NULL
		"SELECT * FROM t WHERE A = 'absent'", // no dictionary entry
		"SELECT * FROM t WHERE A = NULL",     // never truthy
		// IS [NOT] NULL pushdown.
		"SELECT * FROM t WHERE B IS NULL",
		"SELECT * FROM t WHERE B IS NOT NULL",
		// Mixed pushdown + residual predicates.
		"SELECT * FROM t WHERE A = 'uk' AND C = 1",
		"SELECT * FROM t WHERE A = 'UK' AND B IS NOT NULL AND C > 0",
		"SELECT * FROM t WHERE A = 'uk' OR A = 'UK'", // disjunction: no pushdown
		// Grouping, distinct, ordering over the loaded relation.
		"SELECT A, COUNT(*) AS n FROM t GROUP BY A ORDER BY n DESC, A",
		"SELECT DISTINCT A, B FROM t ORDER BY A, B",
		"SELECT MIN(D) AS lo, MAX(D) AS hi FROM t WHERE C = 1",
		// Joins (the joined relation drops the fast path; the base loads
		// still use it).
		"SELECT t.A, u.N FROM t JOIN u ON t.A = u.A WHERE u.N = 3 ORDER BY t._tid, u.N",
		"SELECT t.A, u.N FROM t LEFT JOIN u ON t.A = u.A AND u.N = 2 ORDER BY t._tid, u.N",
		"SELECT a.A FROM t a, t b WHERE a.A = b.B AND a.C = 1 ORDER BY a._tid LIMIT 20",
	}
	for _, q := range queries {
		store := newColumnarCrossStore(t)
		colRes, colErr := New(store).QueryContext(context.Background(), q)
		rowRes, rowErr := refQuery(New(store), q)
		if (colErr == nil) != (rowErr == nil) {
			t.Fatalf("query %q: columnar err %v, row err %v", q, colErr, rowErr)
		}
		if colErr != nil {
			continue
		}
		if !reflect.DeepEqual(colRes, rowRes) {
			t.Errorf("query %q: columnar and row results differ\ncolumnar: %+v\nrow: %+v",
				q, colRes, rowRes)
		}
	}
}

// TestColumnarScanAfterMutation ensures the engine never serves a stale
// snapshot: results must track inserts, updates and deletes immediately.
func TestColumnarScanAfterMutation(t *testing.T) {
	store := relstore.NewStore()
	tab, err := store.Create(schema.New("t", "A", "B"))
	if err != nil {
		t.Fatal(err)
	}
	eng := New(store)
	count := func() int64 {
		res := mustQuery(eng, "SELECT COUNT(*) AS n FROM t WHERE A = 'x'")
		return res.Rows[0][0].Int()
	}
	if count() != 0 {
		t.Fatal("expected empty table")
	}
	id := tab.MustInsert(relstore.Tuple{types.NewString("x"), types.NewInt(1)})
	if got := count(); got != 1 {
		t.Fatalf("after insert: count = %d", got)
	}
	if _, err := tab.SetCell(id, 0, types.NewString("y")); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != 0 {
		t.Fatalf("after update: count = %d", got)
	}
	if _, err := tab.SetCell(id, 0, types.NewString("x")); err != nil {
		t.Fatal(err)
	}
	tab.Delete(id)
	if got := count(); got != 0 {
		t.Fatalf("after delete: count = %d", got)
	}
	id = tab.MustInsert(relstore.Tuple{types.NewString("x"), types.NewInt(5)})
	if got := count(); got != 1 {
		t.Fatalf("after re-insert: count = %d", got)
	}
	if _, err := tab.SetCell(id, 1, types.NewInt(6)); err != nil {
		t.Fatal(err)
	}
	res := mustQuery(eng, "SELECT B FROM t WHERE A = 'x'")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 6 {
		t.Fatalf("after update: %+v", res.Rows)
	}
}
