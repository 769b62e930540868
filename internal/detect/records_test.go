package detect

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"semandaq/internal/datagen"
	"semandaq/internal/relstore"
)

// TestStreamMatchesBlockingReport: the records a columnar report yields, at
// any worker count and noise rate, are the SQL engine's exploded report's
// Violations, in order.
func TestStreamMatchesBlockingReport(t *testing.T) {
	cfds := datagen.StandardCFDs()
	for _, noise := range []float64{0, 0.05, 0.2} {
		ds := datagen.Generate(datagen.Config{Tuples: 4000, Seed: 21, NoiseRate: noise})
		store := relstore.NewStore()
		store.Put(ds.Dirty)
		want, err := NewSQLDetector(store).Detect(context.Background(), ds.Dirty, cfds)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			fr, err := (ColumnarDetector{Workers: workers}).DetectFactorised(context.Background(), ds.Dirty.Snapshot(), cfds)
			if err != nil {
				t.Fatal(err)
			}
			got := slices.Collect(fr.Records())
			if !reflect.DeepEqual(got, want.Violations) {
				t.Errorf("noise=%v workers=%d: records (%d) differ from the SQL engine's report (%d)",
					noise, workers, len(got), len(want.Violations))
			}
		}
	}
}

// TestStreamEarlyBreak stops consuming Records after a handful of
// violations; a fresh iteration over the same shared report is still
// complete, since Records writes nothing into it.
func TestStreamEarlyBreak(t *testing.T) {
	ds := datagen.Generate(datagen.Config{Tuples: 4000, Seed: 3, NoiseRate: 0.1})
	fr, err := DetectFactorised(context.Background(), ds.Dirty.Snapshot(), datagen.StandardCFDs())
	if err != nil {
		t.Fatal(err)
	}
	var first []Violation
	for v := range fr.Records() {
		if first = append(first, v); len(first) == 5 {
			break
		}
	}
	all := slices.Collect(fr.Records())
	if len(first) != 5 || len(all) != fr.records() || !reflect.DeepEqual(first, all[:5]) {
		t.Errorf("a broken-off iteration read %d records, a full one %d of %d", len(first), len(all), fr.records())
	}
}

// TestStreamCleanTable asserts a clean table's report yields no records.
func TestStreamCleanTable(t *testing.T) {
	ds := datagen.Generate(datagen.Config{Tuples: 1000, Seed: 9})
	fr, err := (ColumnarDetector{Workers: 4}).DetectFactorised(context.Background(), ds.Clean.Snapshot(), datagen.StandardCFDs())
	if err != nil {
		t.Fatal(err)
	}
	for v := range fr.Records() {
		t.Fatalf("clean table yielded violation %+v", v)
	}
}

// TestRecordsAllocateNoRowState gates Records' cost: a full iteration over
// a dense report allocates one thing, its heap of group cursors: O(groups),
// never O(rows) or a Violation per record.
func TestRecordsAllocateNoRowState(t *testing.T) {
	ds := datagen.Generate(datagen.Config{Tuples: 4000, Seed: 21, NoiseRate: 0.2})
	fr, err := DetectFactorised(context.Background(), ds.Dirty.Snapshot(), datagen.StandardCFDs())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	allocs := testing.AllocsPerRun(5, func() {
		n = 0
		for range fr.Records() {
			n++
		}
	})
	if n != fr.records() || n < 1000 {
		t.Fatalf("iterated %d records of %d", n, fr.records())
	}
	if allocs > 1 {
		t.Errorf("a full iteration of %d records over %d groups made %.0f allocations, want 1", n, len(fr.FactorGroups), allocs)
	}
}
