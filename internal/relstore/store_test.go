package relstore

import (
	"fmt"
	"sync"
	"testing"

	"semandaq/internal/schema"
	"semandaq/internal/types"
)

func strs(vals ...string) Tuple {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		t[i] = types.NewString(v)
	}
	return t
}

func newCustomerTable() *Table {
	return NewTable(schema.New("customer", "NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC"))
}

func TestInsertGetDelete(t *testing.T) {
	tab := NewTable(schema.New("r", "A", "B"))
	id, err := tab.Insert(strs("x", "y"))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d", tab.Len())
	}
	row, ok := tab.Get(id)
	if !ok || row[0].Str() != "x" || row[1].Str() != "y" {
		t.Fatalf("Get = %v,%v", row, ok)
	}
	if !tab.Delete(id) {
		t.Error("Delete returned false")
	}
	if tab.Delete(id) {
		t.Error("double Delete returned true")
	}
	if _, ok := tab.Get(id); ok {
		t.Error("Get after delete")
	}
	if tab.Len() != 0 {
		t.Errorf("Len = %d", tab.Len())
	}
}

func TestInsertArityMismatch(t *testing.T) {
	tab := NewTable(schema.New("r", "A", "B"))
	if _, err := tab.Insert(strs("only-one")); err == nil {
		t.Error("expected arity error")
	}
	if err := tab.Update(0, strs("a")); err == nil {
		t.Error("expected update arity error")
	}
}

func TestInsertCopiesRow(t *testing.T) {
	tab := NewTable(schema.New("r", "A"))
	row := strs("orig")
	id := tab.MustInsert(row)
	row[0] = types.NewString("mutated")
	got, _ := tab.Get(id)
	if got[0].Str() != "orig" {
		t.Error("Insert should copy the row")
	}
}

func TestUpdateAndSetCell(t *testing.T) {
	tab := NewTable(schema.New("r", "A", "B"))
	id := tab.MustInsert(strs("a", "b"))
	if err := tab.Update(id, strs("c", "d")); err != nil {
		t.Fatal(err)
	}
	row, _ := tab.Get(id)
	if row[0].Str() != "c" {
		t.Errorf("after update row = %v", row)
	}
	old, err := tab.SetCell(id, 1, types.NewString("e"))
	if err != nil || old.Str() != "d" {
		t.Fatalf("SetCell old=%v err=%v", old, err)
	}
	row, _ = tab.Get(id)
	if row[1].Str() != "e" {
		t.Errorf("after SetCell row = %v", row)
	}
	if _, err := tab.SetCell(id, 9, types.Null); err == nil {
		t.Error("expected out-of-range error")
	}
	if _, err := tab.SetCell(999, 0, types.Null); err == nil {
		t.Error("expected missing-tuple error")
	}
	if err := tab.Update(999, strs("x", "y")); err == nil {
		t.Error("expected missing-tuple update error")
	}
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	tab := NewTable(schema.New("r", "A"))
	var want []TupleID
	for i := 0; i < 10; i++ {
		want = append(want, tab.MustInsert(strs(fmt.Sprintf("v%d", i))))
	}
	tab.Delete(want[3])
	var got []TupleID
	tab.Snapshot().Scan(func(id TupleID, row Tuple) bool {
		got = append(got, id)
		return true
	})
	if len(got) != 9 {
		t.Fatalf("scanned %d rows", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Error("scan should preserve insertion order")
		}
	}
	n := 0
	tab.Snapshot().Scan(func(id TupleID, row Tuple) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop scanned %d", n)
	}
}

func TestIDsAndRows(t *testing.T) {
	tab := NewTable(schema.New("r", "A"))
	a := tab.MustInsert(strs("1"))
	b := tab.MustInsert(strs("2"))
	tab.Delete(a)
	snap := tab.Snapshot()
	ids, rows := snap.IDs(), snap.Rows()
	if len(ids) != 1 || ids[0] != b {
		t.Errorf("IDs = %v", ids)
	}
	if len(rows) != 1 || rows[0][0].Str() != "2" {
		t.Errorf("Rows = %v", rows)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	tab := NewTable(schema.New("r", "A"))
	id := tab.MustInsert(strs("before"))
	snap := tab.Snapshot()
	tab.SetCell(id, 0, types.NewString("after"))
	tab.MustInsert(strs("new"))
	row, ok := snap.Get(id)
	if !ok || row[0].Str() != "before" {
		t.Errorf("snapshot row = %v,%v", row, ok)
	}
	if snap.Len() != 1 {
		t.Errorf("snapshot len = %d", snap.Len())
	}
	// A mutable Clone is independent and keeps allocating fresh IDs.
	clone := tab.Clone()
	nid := clone.MustInsert(strs("clone-new"))
	if nid <= id {
		t.Errorf("clone insert ID %d should exceed %d", nid, id)
	}
	if tab.Len() != 2 {
		t.Errorf("clone insert leaked into source: len = %d", tab.Len())
	}
}

func TestCompaction(t *testing.T) {
	tab := NewTable(schema.New("r", "A"))
	var ids []TupleID
	for i := 0; i < 200; i++ {
		ids = append(ids, tab.MustInsert(strs("v")))
	}
	for _, id := range ids[:150] {
		tab.Delete(id)
	}
	if tab.Len() != 50 {
		t.Fatalf("Len = %d", tab.Len())
	}
	n := 0
	tab.Snapshot().Scan(func(id TupleID, row Tuple) bool { n++; return true })
	if n != 50 {
		t.Errorf("scan visited %d", n)
	}
}

func TestVersionBumps(t *testing.T) {
	tab := NewTable(schema.New("r", "A"))
	v0 := tab.Version()
	id := tab.MustInsert(strs("a"))
	v1 := tab.Version()
	tab.SetCell(id, 0, types.NewString("b"))
	v2 := tab.Version()
	tab.Delete(id)
	v3 := tab.Version()
	if !(v0 < v1 && v1 < v2 && v2 < v3) {
		t.Errorf("versions %d %d %d %d not strictly increasing", v0, v1, v2, v3)
	}
	// SetCell to same value is a no-op version-wise.
	id2 := tab.MustInsert(strs("same"))
	v4 := tab.Version()
	tab.SetCell(id2, 0, types.NewString("same"))
	if tab.Version() != v4 {
		t.Error("no-op SetCell should not bump version")
	}
}

func TestStoreCRUD(t *testing.T) {
	s := NewStore()
	tab, err := s.Create(schema.New("customer", "A"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(schema.New("CUSTOMER", "B")); err == nil {
		t.Error("duplicate Create should fail (case-insensitive)")
	}
	got, ok := s.Table("Customer")
	if !ok || got != tab {
		t.Error("Table lookup failed")
	}
	s.Put(NewTable(schema.New("orders", "ID")))
	names := s.Names()
	if len(names) != 2 || names[0] != "customer" || names[1] != "orders" {
		t.Errorf("Names = %v", names)
	}
}

func TestConcurrentAccess(t *testing.T) {
	tab := NewTable(schema.New("r", "A", "B"))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := tab.MustInsert(strs(fmt.Sprintf("g%d", g), fmt.Sprintf("i%d", i)))
				if i%3 == 0 {
					tab.SetCell(id, 1, types.NewString("upd"))
				}
				if i%5 == 0 {
					tab.Delete(id)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			tab.Snapshot().Scan(func(id TupleID, row Tuple) bool { return true })
		}
	}()
	wg.Wait()
	want := 8 * 200 * 4 / 5 // one in five deleted
	if got := tab.Len(); got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
}

func TestTupleHelpers(t *testing.T) {
	a := strs("x", "y")
	b := a.Clone()
	b[0] = types.NewString("z")
	if a[0].Str() != "x" {
		t.Error("Clone should be independent")
	}
	if a.Equal(b) {
		t.Error("Equal should detect difference")
	}
	if !a.Equal(strs("x", "y")) {
		t.Error("Equal should match equal tuples")
	}
	if a.Equal(strs("x")) {
		t.Error("Equal should reject length mismatch")
	}
	if s := a.String(); s != "(x, y)" {
		t.Errorf("String = %q", s)
	}
}
