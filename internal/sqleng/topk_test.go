package sqleng

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// newTopKStore builds a single table with heavy order-key ties (B cycles
// through 7 values, C through 3) so the heap's seq tie-break is exercised
// against the reference's stable sort on every query.
func newTopKStore(t *testing.T, rows int) *relstore.Store {
	t.Helper()
	store := relstore.NewStore()
	tab, err := store.Create(schema.New("t", "A", "B", "C"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		tab.MustInsert(relstore.Tuple{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 7)),
			types.NewString("c" + string(rune('a'+i%3))),
		})
	}
	return store
}

// TestTopKHeapIdentity holds the bounded-heap ORDER BY ... LIMIT path to
// the nested-loop reference across ties, DESC, OFFSET, DISTINCT and
// grouped queries. The tie-heavy fixture makes any deviation from the
// stable sort's first-arrival tie-break visible.
func TestTopKHeapIdentity(t *testing.T) {
	store := newTopKStore(t, 64)
	heap := New(store)

	queries := []string{
		`SELECT A, B FROM t ORDER BY B LIMIT 5`,
		`SELECT A, B FROM t ORDER BY B, C DESC LIMIT 9`,
		`SELECT A, B FROM t ORDER BY B DESC LIMIT 5 OFFSET 3`,
		`SELECT A FROM t ORDER BY B LIMIT 0`,
		`SELECT A FROM t ORDER BY B LIMIT 500`,
		`SELECT DISTINCT B, C FROM t ORDER BY C, B DESC LIMIT 4`,
		`SELECT C, COUNT(*) AS N FROM t GROUP BY C ORDER BY N DESC LIMIT 2`,
		`SELECT B, MAX(A) FROM t GROUP BY B ORDER BY B DESC LIMIT 3 OFFSET 1`,
	}
	for _, q := range queries {
		got, err := heap.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := refQuery(heap, q)
		if err != nil {
			t.Fatalf("%s: reference: %v", q, err)
		}
		if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("%s:\nheap:   %v\nreference: %v", q, got.Rows, want.Rows)
		}
	}
}

// TestTopKHeapExplain pins that the sink advertises the bounded retention,
// and that plain ORDER BY (no LIMIT) does not engage it.
func TestTopKHeapExplain(t *testing.T) {
	e := New(newTopKStore(t, 8))
	lines := planLines(t, e, `EXPLAIN SELECT A FROM t ORDER BY B LIMIT 5 OFFSET 2`)
	if indexOfLine(lines, "top-k heap k=7") < 0 {
		t.Errorf("sink line missing top-k heap:\n%s", strings.Join(lines, "\n"))
	}
	lines = planLines(t, e, `EXPLAIN SELECT A FROM t ORDER BY B`)
	if indexOfLine(lines, "top-k heap") >= 0 {
		t.Errorf("unbounded ORDER BY must not use the heap:\n%s", strings.Join(lines, "\n"))
	}
}

// TestTopKHeapAllocsBounded is the perf contract from the issue: ORDER BY
// ... LIMIT k retains only the k best rows, so once the heap stabilizes,
// further input costs no allocations. The order key cycles through a fixed
// set of values, so a 10x larger scan does the same small number of heap
// insertions — where a full sort would allocate two slices per row.
func TestTopKHeapAllocsBounded(t *testing.T) {
	const query = `SELECT A, B FROM t ORDER BY B LIMIT 5`
	allocsAt := func(rows int) float64 {
		e := New(newTopKStore(t, rows))
		if _, err := e.QueryContext(context.Background(), query); err != nil {
			t.Fatal(err) // warm the snapshot's columnar caches
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := e.QueryContext(context.Background(), query); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocsAt(2_000), allocsAt(20_000)
	if large > small+8 {
		t.Fatalf("top-k allocations scale with input: %d rows -> %.0f allocs, %d rows -> %.0f",
			2_000, small, 20_000, large)
	}
	if small > 300 {
		t.Fatalf("top-k query allocates too much even at 2k rows: %.0f", small)
	}
}

// TestTopKHeapErrorParity: rows whose projection divides by zero project
// NULL, and the heap path returns them exactly where the reference does —
// first, since their ORDER BY key is the smallest.
func TestTopKHeapErrorParity(t *testing.T) {
	store := relstore.NewStore()
	tab, err := store.Create(schema.New("t", "A", "B"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tab.MustInsert(relstore.Tuple{types.NewInt(int64(i)), types.NewInt(int64(i))})
	}
	tab.MustInsert(relstore.Tuple{types.NewInt(100), types.NewInt(0)})

	const q = `SELECT A, 10 / B FROM t ORDER BY B LIMIT 2`
	heap := New(store)
	got, err := heap.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refQuery(heap, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("heap: %v\nreference: %v", got.Rows, want.Rows)
	}
	if rows := rowStrings(got); !reflect.DeepEqual(rows, []string{"0|NULL", "100|NULL"}) {
		t.Errorf("rows = %v, want the two B = 0 rows with NULL quotients", rows)
	}
}
