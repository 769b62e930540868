package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestEachRunsEveryTaskOnce: every index runs exactly once, inline and
// across workers.
func TestEachRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 1 << 30} {
		const n = 1000
		var runs [n]atomic.Int32
		if err := Each(context.Background(), workers, n, func(i int) error {
			runs[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, got)
			}
		}
	}
}

// TestEachStopsOnErrorAndCancel: a task's error comes back, and once the
// context is done no further task starts.
func TestEachStopsOnErrorAndCancel(t *testing.T) {
	boom := errors.New("boom")
	if err := Each(context.Background(), 4, 100, func(i int) error {
		if i == 7 {
			return boom
		}
		return nil
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := Each(ctx, workers, 10000, func(i int) error {
			if ran.Add(1) == 10 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) || ran.Load() >= 10000 {
			t.Fatalf("workers=%d: err = %v after %d tasks, want Canceled well before 10000", workers, err, ran.Load())
		}
	}
}

func TestWorkersCap(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ n, tasks, want int }{
		{1 << 30, 1 << 30, 8 * procs},
		{3, 100, min(3, 8*procs)},
		{1 << 30, 2, min(2, 8*procs)},
		{0, 100, 0},
	} {
		if got := Workers(c.n, c.tasks); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.n, c.tasks, got, c.want)
		}
	}
}
