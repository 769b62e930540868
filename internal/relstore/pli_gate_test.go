package relstore_test

import (
	"testing"

	"semandaq/internal/datagen"
	"semandaq/internal/relstore"
)

// cntZip returns π_CNT and ZIP's probe over the benchmark-sized customer
// table (20 000 rows, 5 % noise): the product phi1 and phi2 group by.
func cntZip(tb testing.TB) (*relstore.Partition, []uint32) {
	tb.Helper()
	tab := datagen.Generate(datagen.Config{Tuples: 20000, Seed: 1, NoiseRate: 0.05}).Dirty
	pos, err := tab.Schema().Positions([]string{"CNT", "ZIP"})
	if err != nil {
		tb.Fatal(err)
	}
	col := tab.Snapshot().Columnar()
	return col.Col(pos[0]).PLI(), col.Col(pos[1]).EqProbe()
}

// TestIntersectAllocsIndependentOfClasses: the product allocates its probe
// table and its output, not a slice per result class — CNT × ZIP has
// thousands of classes and stays within 64 allocations (the map-based
// product made 8 337).
func TestIntersectAllocsIndependentOfClasses(t *testing.T) {
	cnt, zip := cntZip(t)
	if classes := cnt.Intersect(zip).NumClasses(); classes < 1000 {
		t.Fatalf("CNT x ZIP has %d classes; the gate needs a many-class product", classes)
	}
	if allocs := testing.AllocsPerRun(5, func() { cnt.Intersect(zip) }); allocs > 64 {
		t.Errorf("Intersect made %.0f allocations, want <= 64", allocs)
	}
}

// BenchmarkIntersectCNTxZIP times the product alone (`-benchmem` for its
// bytes and allocations).
func BenchmarkIntersectCNTxZIP(b *testing.B) {
	cnt, zip := cntZip(b)
	b.ReportAllocs()
	for b.Loop() {
		cnt.Intersect(zip)
	}
}

// BenchmarkEqClassesCNTxZIP times the Equal-class build of [CNT, ZIP] on
// cntZip's table, which phi1 and phi2 group by and their Qv statements walk.
func BenchmarkEqClassesCNTxZIP(b *testing.B) {
	tab := datagen.Generate(datagen.Config{Tuples: 20000, Seed: 1, NoiseRate: 0.05}).Dirty
	pos, err := tab.Schema().Positions([]string{"CNT", "ZIP"})
	if err != nil {
		b.Fatal(err)
	}
	col := tab.Snapshot().Columnar()
	col.Col(pos[0]).EqProbe()
	col.Col(pos[1]).EqProbe()
	b.ReportAllocs()
	for b.Loop() {
		col.EqClasses(pos)
	}
}
