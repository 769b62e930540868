package relstore

import (
	"fmt"
	"sync"
	"testing"

	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// TestSetCellCopyOnWrite pins the snapshot contract under cell writes: a
// Snapshot taken before SetCell keeps decoding the old cell — through Scan,
// Get and Row — while the table, which stores the row only in the columns
// each read folds the writes into, moves on.
func TestSetCellCopyOnWrite(t *testing.T) {
	tab := NewTable(schema.New("r", "A", "B"))
	id := tab.MustInsert(Tuple{types.NewString("a0"), types.NewString("b0")})

	pinned := tab.Snapshot()
	for i := 1; i <= 10; i++ {
		if _, err := tab.SetCell(id, 1, types.NewString(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
		tab.Snapshot() // fold each write into a new lineage member
	}
	pinned.Scan(func(_ TupleID, row Tuple) bool {
		if got := row[1].Str(); got != "b0" {
			t.Fatalf("pinned scan: B = %q, want b0", got)
		}
		return true
	})
	if row, _ := pinned.Get(id); row[1].Str() != "b0" || pinned.Row(0)[1].Str() != "b0" {
		t.Fatalf("pinned Get/Row: B = %q / %q, want b0", row[1].Str(), pinned.Row(0)[1].Str())
	}
	if row, _ := tab.Get(id); row[1].Str() != "b10" {
		t.Fatalf("table cell = %q, want b10", row[1].Str())
	}
}

// TestScanVsSetCellRace is the regression for the original data race:
// Scan callbacks reading rows while SetCell mutates them concurrently.
// Run under -race (the CI race job does), this fails loudly if SetCell or
// the fold ever writes memory a scan decodes from.
func TestScanVsSetCellRace(t *testing.T) {
	tab := NewTable(schema.New("r", "A", "B"))
	const rows = 64
	ids := make([]TupleID, rows)
	for i := range ids {
		ids[i] = tab.MustInsert(Tuple{
			types.NewString(fmt.Sprintf("a%d", i)),
			types.NewInt(0),
		})
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := tab.SetCell(ids[(w*17+i)%rows], 1, types.NewInt(int64(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 50; r++ {
		tab.Snapshot().Scan(func(_ TupleID, row Tuple) bool {
			// Read both cells; -race flags any in-place writer.
			_ = row[0].Str()
			_ = row[1].Int()
			return true
		})
	}
	close(stop)
	wg.Wait()
}

// TestSnapshotPinsVersion checks that a Snapshot is a stable view of one
// version while the table moves on, and that the columnar view built from
// it shares version, ids and row order.
func TestSnapshotPinsVersion(t *testing.T) {
	tab := NewTable(schema.New("r", "A", "B"))
	for i := 0; i < 5; i++ {
		tab.MustInsert(Tuple{types.NewString(fmt.Sprintf("a%d", i)), types.NewInt(int64(i))})
	}
	snap := tab.Snapshot()
	v0 := snap.Version()
	if v0 != tab.Version() {
		t.Fatalf("snapshot version %d, table %d", v0, tab.Version())
	}
	if again := tab.Snapshot(); again != snap {
		t.Error("unchanged table should reuse the cached snapshot")
	}

	// Mutate the table in every way.
	tab.MustInsert(Tuple{types.NewString("new"), types.NewInt(99)})
	tab.SetCell(0, 1, types.NewInt(-1))
	tab.Delete(1)

	if snap.Version() != v0 || snap.Len() != 5 {
		t.Fatalf("snapshot moved: version %d len %d", snap.Version(), snap.Len())
	}
	if row, ok := snap.Get(0); !ok || row[1].Int() != 0 {
		t.Fatalf("snapshot Get(0) = %v, want original row", row)
	}
	if row, ok := snap.Get(1); !ok || row[0].Str() != "a1" {
		t.Fatalf("snapshot Get(1) = %v, %v; deleted rows must stay visible", row, ok)
	}
	if _, ok := snap.Get(5); ok {
		t.Error("snapshot must not see the later insert")
	}

	// The columnar face shares the pin.
	col := snap.Columnar()
	if col.Version() != v0 || col.Len() != 5 {
		t.Fatalf("columnar version %d len %d", col.Version(), col.Len())
	}
	if &col.IDs()[0] != &snap.IDs()[0] {
		t.Error("columnar must share the snapshot's id slice")
	}
	for i := 0; i < snap.Len(); i++ {
		if !col.Row(i).Equal(snap.Row(i)) {
			t.Fatalf("row %d: columnar %v != snapshot %v", i, col.Row(i), snap.Row(i))
		}
	}
	// Table-level Columnar() is the same object for the current version.
	fresh := tab.Snapshot()
	if tab.Snapshot().Columnar() != fresh.Columnar() {
		t.Error("Table.Columnar must be the snapshot's columnar view")
	}
}

// TestSnapshotConcurrentReaders hammers one snapshot from many goroutines
// while writers churn the table; under -race this verifies the whole read
// surface is immutable.
func TestSnapshotConcurrentReaders(t *testing.T) {
	tab := NewTable(schema.New("r", "A", "B"))
	for i := 0; i < 200; i++ {
		tab.MustInsert(Tuple{types.NewString(fmt.Sprintf("a%d", i%7)), types.NewInt(int64(i))})
	}
	snap := tab.Snapshot()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tab.MustInsert(Tuple{types.NewString("w"), types.NewInt(int64(i))})
				tab.SetCell(TupleID(i%200), 1, types.NewInt(int64(-i)))
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sum := int64(0)
			snap.Scan(func(_ TupleID, row Tuple) bool {
				sum += row[1].Int()
				return true
			})
			if sum != 199*200/2 {
				t.Errorf("snapshot scan saw churn: sum = %d", sum)
			}
			col := snap.Columnar()
			if col.Len() != 200 {
				t.Errorf("columnar len = %d", col.Len())
			}
		}()
	}
	wg.Wait()
}
