package discovery

import (
	"context"
	"fmt"
	"testing"
)

// growAllocs builds a two-column table whose column B has k frequent
// classes and measures growing the item A=a over B. The cover of A=a meets
// every B class in one row and b0's in three, so whatever k is, exactly
// one child ({A=a, B=b0}) clears MinSupport 2 — only the number of items
// the cover is refined by grows.
func growAllocs(t *testing.T, k int) float64 {
	t.Helper()
	var rows [][]string
	for i := 0; i < k; i++ {
		b := fmt.Sprintf("b%d", i)
		rows = append(rows, []string{"a", b}, []string{"z", b})
	}
	rows = append(rows, []string{"a", "b0"}, []string{"a", "b0"})
	snap := mkTable(t, []string{"A", "B"}, rows).Snapshot()
	opts := Options{MinSupport: 2, MaxLHS: 2, Workers: 1}.withDefaults(snap.Len())
	m := newMiner(context.Background(), snap, opts)
	m.stats = &mineStats{}
	lat := m.constLattice()
	if got := lat.first[2] - lat.first[1]; got != k {
		t.Fatalf("B has %d frequent items, want %d", got, k)
	}
	nd := cnode{items: []int{0}, rows: lat.items[0].rows}
	if it := lat.items[0]; it.pos != 0 || it.val.Str() != "a" {
		t.Fatalf("first item is %d=%v, want A=a", it.pos, it.val)
	}
	kids := m.growCNode(lat, &nd)
	if len(kids) != 1 || len(kids[0].rows) != 3 {
		t.Fatalf("k=%d: %d children, want one with 3 rows", k, len(kids))
	}
	return testing.AllocsPerRun(20, func() { m.growCNode(lat, &nd) })
}

// TestConstantLatticeAllocsIndependentOfItems: growing a constant-lattice
// node allocates its children, their item lists and their covers once
// each, not an intersection per later item — a cover refined by 64
// frequent classes allocates what one refined by 8 does (the pairwise
// sorted-list intersection allocated per item).
func TestConstantLatticeAllocsIndependentOfItems(t *testing.T) {
	few, many := growAllocs(t, 8), growAllocs(t, 64)
	if few != many {
		t.Errorf("growing over 8 items made %.0f allocations, over 64 made %.0f; want equal", few, many)
	}
}
