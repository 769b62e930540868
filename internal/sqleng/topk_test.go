package sqleng

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// newTopKStore builds a single table with heavy order-key ties (B cycles
// through 7 values, C through 3) so the heap's seq tie-break is exercised
// against the legacy stable sort on every query.
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
// the legacy materializing oracle across ties, DESC, OFFSET, DISTINCT and
// grouped queries. The tie-heavy fixture makes any deviation from the
// stable sort's first-arrival tie-break visible.
func TestTopKHeapIdentity(t *testing.T) {
	store := newTopKStore(t, 64)
	heap := New(store)
	oracle := New(store)
	oracle.rowScan = true

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
		want, err := oracle.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: oracle: %v", q, err)
		}
		if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("%s:\nheap:   %v\noracle: %v", q, got.Rows, want.Rows)
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
// insertions — while the legacy path provably allocates two slices per row.
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

// TestTopKHeapErrorParity: the heap path must evaluate every projection and
// order key for every row, so an error on a late row surfaces exactly as it
// does on the unbounded path — even when that row could never enter the
// top k.
func TestTopKHeapErrorParity(t *testing.T) {
	store := relstore.NewStore()
	tab, err := store.Create(schema.New("t", "A", "B"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tab.MustInsert(relstore.Tuple{types.NewInt(int64(i)), types.NewInt(int64(i))})
	}
	// Division by zero on the last row only; it would lose the ORDER BY.
	tab.MustInsert(relstore.Tuple{types.NewInt(100), types.NewInt(0)})

	const q = `SELECT A, 10 / B FROM t ORDER BY B LIMIT 2`
	heap := New(store)
	if _, err := heap.QueryContext(context.Background(), q); err == nil {
		t.Fatal("heap path swallowed the projection error")
	}
	oracle := New(store)
	oracle.rowScan = true
	if _, err := oracle.QueryContext(context.Background(), q); err == nil {
		t.Fatal("oracle did not error; fixture is wrong")
	}
	wantMsg := fmt.Sprintf("%v", errQuery(t, oracle, q))
	gotMsg := fmt.Sprintf("%v", errQuery(t, heap, q))
	if gotMsg != wantMsg {
		t.Errorf("error text diverged:\nheap:   %s\noracle: %s", gotMsg, wantMsg)
	}
}

// errQuery runs q expecting an error and returns it.
func errQuery(t *testing.T, e *Engine, q string) error {
	t.Helper()
	_, err := e.QueryContext(context.Background(), q)
	if err == nil {
		t.Fatalf("%s: expected error", q)
	}
	return err
}
