package relstore_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"semandaq/internal/datagen"
	"semandaq/internal/discovery"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// TestPLISingleAttribute: a column's partition keeps every class, in
// first-row order with rows ascending, and a snapshot's columns hold no
// partition after a discovery run: the run built one per column for itself,
// and the next reader builds its own.
func TestPLISingleAttribute(t *testing.T) {
	tab := relstore.NewTable(schema.New("r", "A", "B"))
	for _, r := range [][2]string{{"x", "1"}, {"y", "2"}, {"x", "3"}, {"z", "4"}, {"y", "5"}} {
		tab.MustInsert(relstore.Tuple{types.Parse(r[0]), types.Parse(r[1])})
	}
	col := tab.Snapshot().Columnar()
	p := col.EqClasses([]int{0}).Partition
	if p.NumRows() != 5 || p.NumClasses() != 3 {
		t.Fatalf("rows=%d classes=%d", p.NumRows(), p.NumClasses())
	}
	for c, want := range []string{"[0 2]", "[1 4]", "[3]"} {
		if got := fmt.Sprint(p.Class(c)); got != want {
			t.Errorf("class %d = %s, want %s", c, got, want)
		}
	}

	before := relstore.ReadBuildOps()
	if _, err := discovery.Mine(context.Background(), tab.Snapshot(), discovery.Options{MinSupport: 1}); err != nil {
		t.Fatal(err)
	}
	if ops := relstore.ReadBuildOps().Sub(before); ops.PLIBuilds != 2 {
		t.Errorf("discovery built %d one-column partitions, want one per column (2)", ops.PLIBuilds)
	}
	for j := range col.NumCols() {
		before := relstore.ReadBuildOps()
		col.EqClasses([]int{j})
		col.EqClasses([]int{j})
		if ops := relstore.ReadBuildOps().Sub(before); ops.PLIBuilds != 2 {
			t.Errorf("column %d: two reads after discovery built %d partitions, want 2: the snapshot kept one", j, ops.PLIBuilds)
		}
	}
}

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
	return col.EqClasses(pos[:1]).Partition, col.Col(pos[1]).EqProbe()
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

// BenchmarkStewardFold folds a steward round's delta into 10 000 datagen
// rows — 96 STR typos, 32 CNT flips, 8 inserts and 8 deletes — on a table
// warmed as discovery leaves it (probe vectors and key tables built), then
// builds the seven one-column partitions the next discovery run reads.
// Alternate iterations write the typos and flips and put the values back,
// and each deletes the rows the last one inserted, so every fold takes the
// same delta and no dictionary grows. Only the fold and the builds are
// timed (`-benchmem` for their bytes and allocations).
func BenchmarkStewardFold(b *testing.B) {
	const typos, flips, moves = 96, 32, 8
	tab := datagen.Generate(datagen.Config{Tuples: 10000, Seed: 5}).Clean
	sc := tab.Schema()
	str, cnt := sc.MustPos("STR"), sc.MustPos("CNT")
	snap := tab.Snapshot()
	cols := snap.Columnar()
	for j := range cols.NumCols() {
		cols.Col(j).EqProbe()
		cols.Col(j).EnsureKeys()
	}
	type edit struct {
		id        relstore.TupleID
		pos       int
		was, typo types.Value
	}
	var edits []edit
	for k, i := range rand.New(rand.NewPCG(5, 0)).Perm(snap.Len())[:typos+flips] {
		row := snap.Row(i)
		e := edit{id: snap.IDs()[i], pos: str, was: row[str], typo: types.NewString(fmt.Sprintf("%s~%d", row[str], k))}
		if k >= typos {
			e.pos, e.was, e.typo = cnt, row[cnt], types.NewString("UK")
			if row[cnt] == e.typo {
				e.typo = types.NewString("US")
			}
		}
		edits = append(edits, e)
	}
	doomed := snap.IDs()[:moves] // the first fold deletes these, later ones the last inserts
	b.ReportAllocs()
	b.ResetTimer()
	for n := range b.N { // b.N: b.Loop did not finish with its timer stopped for the writes
		b.StopTimer()
		for _, e := range edits {
			v := e.typo
			if n%2 == 1 {
				v = e.was
			}
			if _, err := tab.SetCell(e.id, e.pos, v); err != nil {
				b.Fatal(err)
			}
		}
		inserted := make([]relstore.TupleID, 0, moves)
		for i, id := range doomed {
			tab.Delete(id)
			inserted = append(inserted, tab.MustInsert(snap.Row(moves+i)))
		}
		doomed = inserted
		b.StartTimer()
		cnr := tab.Snapshot().Columnar()
		for j := range cnr.NumCols() {
			foldSink = cnr.EqClasses([]int{j})
		}
	}
}

// foldSink keeps BenchmarkStewardFold's builds observable.
var foldSink *relstore.EqClasses
