package detect

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"semandaq/internal/datagen"
	"semandaq/internal/relstore"
)

// TestPreCancelledContext asserts every engine refuses to scan under an
// already-cancelled context and surfaces ctx.Err().
func TestPreCancelledContext(t *testing.T) {
	ds := datagen.Generate(datagen.Config{Tuples: 500, Seed: 11, NoiseRate: 0.05})
	store := relstore.NewStore()
	store.Put(ds.Dirty)
	cfds := datagen.StandardCFDs()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, det := range detectors(t, store) {
		rep, err := det.Detect(ctx, ds.Dirty, cfds)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if rep != nil {
			t.Errorf("%s: got a report despite cancellation", name)
		}
	}
}

// bigDirty memoizes the 1M-tuple workload the mid-scan tests share, with
// the columnar snapshot pre-built so cancellation latency measures the
// scan, not the snapshot construction.
var bigDirty = sync.OnceValue(func() *datagen.Dataset {
	ds := datagen.Generate(datagen.Config{Tuples: 1_000_000, Seed: 7, NoiseRate: 0.05})
	ds.Dirty.Snapshot().Columnar()
	return ds
})

// TestMidScanCancellation cancels each engine partway through a 1M-tuple
// scan and asserts it aborts with ctx.Err() well before a full pass would
// have completed.
func TestMidScanCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-tuple workload; skipped under -short")
	}
	ds := bigDirty()
	cfds := datagen.StandardCFDs()
	store := relstore.NewStore()
	store.Put(ds.Dirty)
	for name, det := range detectors(t, store) {
		t.Run(name, func(t *testing.T) {
			// 30ms is deep inside any engine's 1M-tuple pass (the fastest,
			// sharded columnar, needs hundreds of milliseconds) yet late
			// enough that every engine is mid-scan rather than preparing.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			start := time.Now()
			rep, err := det.Detect(ctx, ds.Dirty, cfds)
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v (report %v) after %v, want context.DeadlineExceeded", err, rep != nil, elapsed)
			}
			// Promptness: the abort must not degenerate into finishing the
			// scan anyway. The bound is loose to stay robust on slow CI.
			if elapsed > 5*time.Second {
				t.Errorf("cancellation took %v", elapsed)
			}
		})
	}
}

// TestCancelErrorsDoNotPoisonDetectors asserts an engine remains usable
// after a cancelled run (no shared state is corrupted).
func TestCancelErrorsDoNotPoisonDetectors(t *testing.T) {
	ds := datagen.Generate(datagen.Config{Tuples: 2000, Seed: 5, NoiseRate: 0.05})
	store := relstore.NewStore()
	store.Put(ds.Dirty)
	cfds := datagen.StandardCFDs()
	want, err := NewSQLDetector(store).Detect(context.Background(), ds.Dirty, cfds)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, det := range detectors(t, store) {
		if _, err := det.Detect(cancelled, ds.Dirty, cfds); err == nil {
			t.Fatalf("%s: cancelled run succeeded", name)
		}
		rep, err := det.Detect(context.Background(), ds.Dirty, cfds)
		if err != nil {
			t.Fatalf("%s: rerun after cancel: %v", name, err)
		}
		if err := Equivalent(want, rep); err != nil {
			t.Errorf("%s: report after cancelled run differs: %v", name, err)
		}
	}
}

// TestEngineRegistry pins the engine-kind round-trip: every kind resolves
// to a working detector and parses back from its name, and "native" is an
// alias of columnar.
func TestEngineRegistry(t *testing.T) {
	kinds := EngineKinds()
	if !reflect.DeepEqual(kinds, []EngineKind{SQLEngine, ParallelEngine, ColumnarEngine}) {
		t.Fatalf("EngineKinds() = %v", kinds)
	}
	if k, err := ParseEngineKind("native"); err != nil || k != ColumnarEngine {
		t.Errorf(`ParseEngineKind("native") = %v, %v; want the columnar alias`, k, err)
	}
	ds := datagen.Generate(datagen.Config{Tuples: 300, Seed: 2, NoiseRate: 0.1})
	store := relstore.NewStore()
	store.Put(ds.Dirty)
	cfds := datagen.StandardCFDs()
	want, err := ColumnarDetector{Workers: 1}.Detect(context.Background(), ds.Dirty, cfds)
	if err != nil {
		t.Fatal(err)
	}
	checkDefinition(t, "columnar", ds.Dirty.Snapshot(), cfds, want)
	for _, k := range kinds {
		parsed, err := ParseEngineKind(k.String())
		if err != nil || parsed != k {
			t.Errorf("ParseEngineKind(%q) = %v, %v", k.String(), parsed, err)
		}
		det, err := NewDetector(k, Config{Workers: 3, Store: store})
		if err != nil {
			t.Fatalf("NewDetector(%v): %v", k, err)
		}
		rep, err := det.Detect(context.Background(), ds.Dirty, cfds)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if err := Equivalent(want, rep); err != nil {
			t.Errorf("%v: %v", k, err)
		}
	}
	if _, err := ParseEngineKind("vectorized"); err == nil || !strings.HasSuffix(err.Error(), "(want one of [sql parallel columnar])") {
		t.Errorf("ParseEngineKind(\"vectorized\") error = %v, want one listing sql, parallel and columnar", err)
	}
	if _, err := NewDetector(EngineKind(99), Config{}); err == nil {
		t.Error("NewDetector accepted an unknown kind")
	}
}
