package relstore_test

import (
	"bytes"
	"testing"

	"semandaq/internal/datagen"
	"semandaq/internal/detect"
	"semandaq/internal/relstore"
)

// TestIngestBuildsTheLineage is the count face of column-direct ingest, on
// the benchmark's reload-clean table (datagen's 20 000 x 7 clean relation):
// the load leaves nothing for the first read to build and builds no rows —
// 0.35 allocations a cell at most — a detection pass over it decodes no row,
// and the columns it interned head the lineage the first edits patch.
func TestIngestBuildsTheLineage(t *testing.T) {
	const n, arity = 20000, 7
	clean := datagen.Generate(datagen.Config{Tuples: n, Seed: 1}).Clean
	var body bytes.Buffer
	if err := relstore.WriteCSV(clean, &body); err != nil {
		t.Fatal(err)
	}

	before := relstore.ReadBuildOps()
	tab, err := relstore.ReadCSV("customer", bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if ops, want := relstore.ReadBuildOps().Sub(before), (relstore.BuildOps{InternedCells: n * arity, BatchColumns: arity, BatchSnapshots: 1}); ops != want {
		t.Errorf("load ops = %+v, want %+v", ops, want)
	}
	before = relstore.ReadBuildOps()
	tab.Snapshot().Columnar()
	if ops := relstore.ReadBuildOps().Sub(before); ops != (relstore.BuildOps{}) {
		t.Errorf("first Columnar() after the load built something: %+v", ops)
	}
	// ReadCSV(WriteCSV(t)) is t — for a t that came from CSV: the generator
	// stores ZIP 600096 as a STRING, which no CSV can say.
	var again bytes.Buffer
	if err := relstore.WriteCSV(tab, &again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), body.Bytes()) {
		t.Error("WriteCSV(ReadCSV(body)) is not body")
	}
	back, err := relstore.ReadCSV("customer", &again)
	if err != nil {
		t.Fatal(err)
	}
	if err := relstore.DiffSnapshots(back.Snapshot(), tab.RebuildSnapshot()); err != nil {
		t.Errorf("ReadCSV(WriteCSV(t)) differs from t: %v", err)
	}

	if allocs := testing.AllocsPerRun(3, func() {
		if _, err := relstore.ReadCSV("customer", bytes.NewReader(body.Bytes())); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0.35*n*arity {
		t.Errorf("ReadCSV made %.0f allocations for %d cells, want <= %.0f", allocs, n*arity, 0.35*n*arity)
	}

	// The served detect path and the columnar engine read codes, not rows.
	fresh, err := relstore.ReadCSV("customer", bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	stop := relstore.CountDecodes()
	if _, err := detect.DetectFactorised(t.Context(), fresh.Snapshot(), datagen.StandardCFDs()); err != nil {
		t.Fatal(err)
	}
	if _, err := (detect.ColumnarDetector{}).DetectSnapshot(t.Context(), fresh.Snapshot(), datagen.StandardCFDs()); err != nil {
		t.Fatal(err)
	}
	if rows := stop(); rows != 0 {
		t.Errorf("a load and two detection passes decoded %d rows, want none", rows)
	}

	before = relstore.ReadBuildOps()
	relstore.ChurnRound(tab)
	tab.Snapshot().Columnar()
	ops := relstore.ReadBuildOps().Sub(before)
	if ops.PatchedSnapshots != 1 || ops.BatchSnapshots != 0 {
		t.Errorf("PatchedSnapshots = %d BatchSnapshots = %d, want 1/0", ops.PatchedSnapshots, ops.BatchSnapshots)
	}
	if ops.PatchedColumns != arity || ops.BatchColumns != 0 || ops.RebuiltColumns != 0 {
		t.Errorf("PatchedColumns = %d BatchColumns = %d RebuiltColumns = %d, want %d/0/0",
			ops.PatchedColumns, ops.BatchColumns, ops.RebuiltColumns, arity)
	}
	if ops.InternedCells > 64 {
		t.Errorf("InternedCells = %d, want <= 64 for one round of edits", ops.InternedCells)
	}
	if err := relstore.DiffSnapshots(tab.Snapshot(), tab.RebuildSnapshot()); err != nil {
		t.Errorf("patched ingest-built snapshot vs rebuild: %v", err)
	}
}

// BenchmarkReadCSV loads the benchmark's reload-clean body; for profiling the
// loader (`-cpuprofile`, `-memprofile`) outside the HTTP round trip.
func BenchmarkReadCSV(b *testing.B) {
	clean := datagen.Generate(datagen.Config{Tuples: 20000, Seed: 1}).Clean
	var body bytes.Buffer
	if err := relstore.WriteCSV(clean, &body); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relstore.ReadCSV("customer", bytes.NewReader(body.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
