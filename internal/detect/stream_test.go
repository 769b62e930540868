package detect

import (
	"context"
	"reflect"
	"testing"

	"semandaq/internal/datagen"
)

// TestStreamMatchesBlockingReport is the streaming path's core contract:
// over a full iteration the streamed violation set is byte-identical to
// the blocking report's Violations, for several worker counts and noise
// rates.
func TestStreamMatchesBlockingReport(t *testing.T) {
	cfds := datagen.StandardCFDs()
	for _, noise := range []float64{0, 0.05, 0.2} {
		ds := datagen.Generate(datagen.Config{Tuples: 4000, Seed: 21, NoiseRate: noise})
		want, err := (ColumnarDetector{Workers: 1}).Detect(context.Background(), ds.Dirty, cfds)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			var got []Violation
			for v, err := range (ColumnarDetector{Workers: workers}).DetectStreamSnapshot(context.Background(), ds.Dirty.Snapshot(), cfds) {
				if err != nil {
					t.Fatalf("noise=%v workers=%d: %v", noise, workers, err)
				}
				got = append(got, v)
			}
			sortViolations(got)
			if len(got) == 0 {
				got = nil // DeepEqual treats nil and empty as different
			}
			if !reflect.DeepEqual(got, want.Violations) {
				t.Errorf("noise=%v workers=%d: streamed set (%d) differs from blocking report (%d)",
					noise, workers, len(got), len(want.Violations))
			}
		}
	}
}

// TestStreamEarlyBreak stops consuming after a handful of violations; the
// producers must unwind (the race detector would flag leaked writers) and
// a fresh stream over the same table must still be complete.
func TestStreamEarlyBreak(t *testing.T) {
	ds := datagen.Generate(datagen.Config{Tuples: 4000, Seed: 3, NoiseRate: 0.1})
	cfds := datagen.StandardCFDs()
	d := ColumnarDetector{Workers: 4}
	n := 0
	for v, err := range d.DetectStreamSnapshot(context.Background(), ds.Dirty.Snapshot(), cfds) {
		if err != nil {
			t.Fatal(err)
		}
		_ = v
		if n++; n == 5 {
			break
		}
	}
	if n != 5 {
		t.Fatalf("consumed %d violations, want 5", n)
	}
	want, err := d.Detect(context.Background(), ds.Dirty, cfds)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, err := range d.DetectStreamSnapshot(context.Background(), ds.Dirty.Snapshot(), cfds) {
		if err != nil {
			t.Fatal(err)
		}
		total++
	}
	if total != len(want.Violations) {
		t.Errorf("second stream yielded %d violations, want %d", total, len(want.Violations))
	}
}

// TestStreamBadCFDs asserts preparation errors surface as the stream's
// first (and only) element.
func TestStreamBadCFDs(t *testing.T) {
	ds := datagen.Generate(datagen.Config{Tuples: 50, Seed: 1})
	bad := datagen.StandardCFDs()[:1]
	bad[0].LHS = []string{"NO_SUCH_ATTR"}
	sawErr := false
	for _, err := range (ColumnarDetector{Workers: 2}).DetectStreamSnapshot(context.Background(), ds.Dirty.Snapshot(), bad) {
		if err == nil {
			t.Fatal("stream yielded a violation for invalid CFDs")
		}
		sawErr = true
	}
	if !sawErr {
		t.Fatal("stream ended without surfacing the preparation error")
	}
}

// TestStreamCleanTable asserts a clean table streams zero violations and
// terminates.
func TestStreamCleanTable(t *testing.T) {
	ds := datagen.Generate(datagen.Config{Tuples: 1000, Seed: 9})
	for v, err := range (ColumnarDetector{Workers: 4}).DetectStreamSnapshot(context.Background(), ds.Clean.Snapshot(), datagen.StandardCFDs()) {
		if err != nil {
			t.Fatal(err)
		}
		t.Fatalf("clean table streamed violation %+v", v)
	}
}
