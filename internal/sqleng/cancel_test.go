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

// TestQueryContextPreCancelled asserts a cancelled context aborts a scan,
// a grouping and a join.
func TestQueryContextPreCancelled(t *testing.T) {
	queries := []string{
		"SELECT COUNT(*) FROM r",
		"SELECT A, COUNT(*) FROM r GROUP BY A",
		"SELECT t1.A FROM r t1, r t2 WHERE t1.A = t2.A",
	}
	e := cancelFixture(t, 3*cancelStride)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range queries {
		if _, err := e.QueryContext(ctx, q); !errors.Is(err, context.Canceled) {
			t.Errorf("%q: err = %v, want context.Canceled", q, err)
		}
	}
}

// TestQueryContextBackgroundUnaffected pins that the cancellation plumbing
// does not change results: a run under a live context equals the reference.
func TestQueryContextBackgroundUnaffected(t *testing.T) {
	e := cancelFixture(t, 500)
	const q = "SELECT A, COUNT(*) AS n FROM r GROUP BY A ORDER BY n DESC, A LIMIT 5"
	got, err := e.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refQuery(e, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("engine %v, reference %v", got.Rows, want.Rows)
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
