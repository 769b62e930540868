package sqleng

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// cancelFixture builds a store with one table big enough that every
// executor phase crosses at least one cancellation stride.
func cancelFixture(t *testing.T, rows int) *Engine {
	t.Helper()
	store := relstore.NewStore()
	tab, err := store.Create(schema.New("r", "A", "B"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		tab.MustInsert(relstore.Tuple{
			types.NewInt(int64(i % 97)),
			types.NewString(fmt.Sprintf("v%d", i%13)),
		})
	}
	return New(store)
}

// TestQueryContextPreCancelled asserts a cancelled context aborts every
// statement class on both read paths (columnar scan and row scan).
func TestQueryContextPreCancelled(t *testing.T) {
	queries := []string{
		"SELECT COUNT(*) FROM r",
		"SELECT A, COUNT(*) FROM r GROUP BY A",
		"SELECT t1.A FROM r t1, r t2 WHERE t1.A = t2.A",
		"UPDATE r SET B = 'x' WHERE A = 1",
		"DELETE FROM r WHERE A = 2",
	}
	for _, rowScan := range []bool{false, true} {
		e := cancelFixture(t, 3*cancelStride)
		e.rowScan = rowScan
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for _, q := range queries {
			if _, err := e.QueryContext(ctx, q); !errors.Is(err, context.Canceled) {
				t.Errorf("rowScan=%v %q: err = %v, want context.Canceled", rowScan, q, err)
			}
		}
	}
}

// TestQueryContextBackgroundUnaffected pins that the cancellation plumbing
// does not change results: Query and QueryContext(Background) agree.
func TestQueryContextBackgroundUnaffected(t *testing.T) {
	e := cancelFixture(t, 500)
	a, err := e.QueryContext(context.Background(), "SELECT A, COUNT(*) AS n FROM r GROUP BY A ORDER BY n DESC, A LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.QueryContext(context.Background(), "SELECT A, COUNT(*) AS n FROM r GROUP BY A ORDER BY n DESC, A LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("rows %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if !a.Rows[i][j].Equal(b.Rows[i][j]) {
				t.Fatalf("row %d col %d: %v vs %v", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
}

// TestCancelledDMLLeavesTableIntact asserts a cancelled UPDATE/DELETE
// applies nothing: mutations only run after a complete uncancelled scan.
func TestCancelledDMLLeavesTableIntact(t *testing.T) {
	e := cancelFixture(t, 2*cancelStride)
	before := mustQuery(e, "SELECT COUNT(*) FROM r WHERE B = 'x'").Rows[0][0].Int()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.QueryContext(ctx, "UPDATE r SET B = 'x'"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	after := mustQuery(e, "SELECT COUNT(*) FROM r WHERE B = 'x'").Rows[0][0].Int()
	if before != after {
		t.Errorf("cancelled UPDATE modified %d rows", after-before)
	}
	total := mustQuery(e, "SELECT COUNT(*) FROM r").Rows[0][0].Int()
	if _, err := e.QueryContext(ctx, "DELETE FROM r"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if got := mustQuery(e, "SELECT COUNT(*) FROM r").Rows[0][0].Int(); got != total {
		t.Errorf("cancelled DELETE removed %d rows", total-got)
	}
}

// countdownCtx is done from its n-th Err() poll on: it cancels a run at an
// exact stride instead of at a wall-clock instant.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelAtEveryPollOfMemoisedPlan cancels a self-join the driver memo
// serves (97 classes, every later row of a class replayed) at each of its
// context polls in turn: every cancelled run fails bare, the first run that
// survives equals the uncancelled result, and the number of polls a full run
// makes is one per cancelStride rows visited — driver rows plus joined pairs,
// replayed or not — so a replayed tail is no further from a poll than a
// probed one was.
func TestCancelAtEveryPollOfMemoisedPlan(t *testing.T) {
	e := cancelFixture(t, 2*cancelStride)
	const q = "SELECT COUNT(*) FROM r t1, r t2 WHERE t1.A = t2.A"
	want := mustQuery(e, q)
	if ops := e.OpStats(); ops.MemoClasses != 97 || ops.MemoReplays != 2*cancelStride-97 {
		t.Fatalf("the memo recorded %d classes and replayed %d rows, want 97 and the rest", ops.MemoClasses, ops.MemoReplays)
	}
	polls := 0
	for ; ; polls++ {
		res, err := e.QueryContext(&countdownCtx{Context: context.Background(), left: polls}, q)
		if err == nil {
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("the run that survived %d polls returned %v, want %v", polls, res.Rows, want.Rows)
			}
			break
		}
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("poll %d: got (%v, %v), want a bare cancellation", polls, res, err)
		}
	}
	visited := 2*cancelStride + int(want.Rows[0][0].Int())
	if polls < visited/cancelStride || polls > visited/cancelStride+2 {
		t.Errorf("a full run polled %d times over %d rows visited, want one poll per %d", polls, visited, cancelStride)
	}
}
