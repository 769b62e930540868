//go:build unix

package detect

import (
	"context"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"testing"
	"time"

	"semandaq/internal/datagen"
)

// TestTrackerSeedTime: the seed groups on the snapshot's Equal classes, as
// the batch core does, and decodes no row, so it takes at most three times
// a factorised detection of the same snapshot. The row-by-row seed took 14
// times as long. After five untimed pairs, each of 21 pairs times a
// detection and a seed back to back in the process's CPU time, which other
// processes' load does not inflate, each after a collection and with the
// collector off, so that neither pays for the other's garbage; the gate
// reads the median of the pairs' ratios. On 2 vCPUs the median ran 2.1 to
// 2.9, alone and beside four other test binaries.
func TestTrackerSeedTime(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation weighs on the seed's writes")
	}
	tab := datagen.Generate(datagen.Config{Tuples: 10000, Seed: 5}).Clean
	cfds := datagen.StandardCFDs()
	snap := tab.Snapshot()
	cpuTime := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatal(err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	timed := func(f func() error) time.Duration {
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		start := cpuTime()
		if err := f(); err != nil {
			t.Fatal(err)
		}
		return cpuTime() - start
	}
	detect := func() error { _, err := DetectFactorised(context.Background(), snap, cfds); return err }
	seed := func() error { _, err := NewTracker(tab, cfds); return err }
	for range 5 { // warm the snapshot's caches and grow the heap to its working size
		timed(detect)
		timed(seed)
	}
	ratios := make([]float64, 21)
	for i := range ratios {
		d := timed(detect)
		ratios[i] = float64(timed(seed)) / float64(d)
	}
	slices.Sort(ratios)
	t.Logf("seed / factorised detection per pair, sorted: %.2f", ratios)
	if median := ratios[len(ratios)/2]; median > 3 {
		t.Errorf("the seed took %.2f times a factorised detection in the median pair, more than three", median)
	}
}
