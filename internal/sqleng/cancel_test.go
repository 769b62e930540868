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
		"SELECT A FROM r",
		"SELECT A FROM r GROUP BY A HAVING COUNT(*) > 1",
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
	const q = "SELECT A FROM r GROUP BY A HAVING COUNT(*) > 5 AND COUNT(DISTINCT B) > 1"
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

// TestCancelAtEveryPollOfMemoisedPlan cancels a self-join the class walk
// serves (97 classes of t1.A, every row past a class's first served by its
// decision) at each of its context polls in turn: every cancelled run fails
// bare, the first run that survives equals the uncancelled result, and a
// full run polls once per cancelStride steps, plus once as its 97 groups
// finish. The steps: the joined scan t2 filters its 2S rows on B, 631
// surviving; the walk takes the 97 classes of t1.A from their partition,
// visiting no driver row, and the decision of each class at its first row
// loops over the 631 survivors; the count adds each of the 97 classes at
// once, |class| × tails, visiting no row.
func TestCancelAtEveryPollOfMemoisedPlan(t *testing.T) {
	e := cancelFixture(t, 2*cancelStride)
	const q = "SELECT t1.A FROM r t1, r t2 WHERE t1.A = t2.A AND t2.B = 'v0' GROUP BY t1.A HAVING COUNT(*) > 0"
	want := mustQuery(e, q)
	if ops := e.OpStats(); ops.DriverClasses != 97 || ops.ClassRows != 2*cancelStride-97 {
		t.Fatalf("the walk kept %d classes serving %d further rows, want 97 and the rest", ops.DriverClasses, ops.ClassRows)
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
	steps := 2*cancelStride + 97 + 97*631 + 97
	if polls != steps/cancelStride+1 {
		t.Errorf("a full run polled %d times over %d steps, want one poll per %d and one finishing", polls, steps, cancelStride)
	}
}
