package relstore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// TestColumnarRoundTrip verifies the exact-code contract: the snapshot
// reproduces every stored row bit-for-bit, in insertion order, with live
// IDs only. != on Values is that identity: the kind and the payload's bits.
func TestColumnarRoundTrip(t *testing.T) {
	tab := NewTable(schema.New("r", "A", "B", "C"))
	rows := []Tuple{
		{types.NewString("x"), types.NewInt(1), types.NewFloat(1.5)},
		{types.Null, types.NewBool(true), types.NewString("")},
		{types.NewString("x"), types.NewFloat(1), types.Null},
		{types.NewString("y"), types.NewInt(1), types.NewFloat(1.5)},
	}
	var ids []TupleID
	for _, r := range rows {
		ids = append(ids, tab.MustInsert(r))
	}
	del := tab.MustInsert(Tuple{types.NewString("gone"), types.Null, types.Null})
	tab.Delete(del)

	snap := tab.Snapshot().Columnar()
	if snap.Len() != len(rows) {
		t.Fatalf("Len = %d, want %d", snap.Len(), len(rows))
	}
	for i, id := range snap.IDs() {
		if id != ids[i] {
			t.Fatalf("IDs[%d] = %d, want %d", i, id, ids[i])
		}
		got := snap.Row(i)
		for j := range rows[i] {
			if got[j] != rows[i][j] {
				t.Errorf("row %d col %d = %#v, want %#v", i, j, got[j], rows[i][j])
			}
			col := snap.Col(j)
			if v := col.Value(col.Code(i)); v != rows[i][j] {
				t.Errorf("col %d row %d value = %#v, want %#v", j, i, v, rows[i][j])
			}
		}
	}
}

// TestColumnarCaching verifies the version contract: repeated calls on an
// unchanged table return the same snapshot, and every kind of mutation
// invalidates it.
func TestColumnarCaching(t *testing.T) {
	tab := NewTable(schema.New("r", "A"))
	id := tab.MustInsert(Tuple{types.NewString("a")})

	s1 := tab.Snapshot().Columnar()
	if s2 := tab.Snapshot().Columnar(); s2 != s1 {
		t.Fatal("unchanged table rebuilt its snapshot")
	}
	if s1.Version() != tab.Version() {
		t.Fatalf("snapshot version %d, table version %d", s1.Version(), tab.Version())
	}

	mutations := []struct {
		name string
		do   func()
	}{
		{"insert", func() { tab.MustInsert(Tuple{types.NewString("b")}) }},
		{"setcell", func() {
			if _, err := tab.SetCell(id, 0, types.NewString("c")); err != nil {
				t.Fatal(err)
			}
		}},
		{"update", func() {
			if err := tab.Update(id, Tuple{types.NewString("d")}); err != nil {
				t.Fatal(err)
			}
		}},
		{"delete", func() { tab.Delete(id) }},
	}
	prev := s1
	for _, m := range mutations {
		m.do()
		next := tab.Snapshot().Columnar()
		if next == prev {
			t.Errorf("%s did not invalidate the snapshot", m.name)
		}
		if next.Version() != tab.Version() {
			t.Errorf("%s: snapshot version %d, table version %d", m.name, next.Version(), tab.Version())
		}
		prev = next
	}
}

// TestColumnarNoAliasing is the adversarial dictionary test: exact codes
// must never alias distinct values, and Equal-class codes must partition
// exactly by Value.Equal. The value pool is built to attack the encodings:
// strings that look like other kinds' Key() strings ("d1" vs INT 1),
// strings embedding the legacy 0x1f separator and the length-prefix ':',
// empty string vs NULL, cross-kind numeric equals (1 vs 1.0), TRUE vs the
// string "TRUE", and negative zero.
func TestColumnarNoAliasing(t *testing.T) {
	pool := []types.Value{
		types.Null,
		types.NewBool(true),
		types.NewBool(false),
		types.NewString("TRUE"),
		types.NewString(""),
		types.NewString("d1"),
		types.NewString("s1"),
		types.NewString("1"),
		types.NewString("1:d1"),
		types.NewString("x\x1fy"),
		types.NewString("x"),
		types.NewString("y"),
		types.NewInt(1),
		types.NewFloat(1), // Equal to NewInt(1): must share an Equal-class
		types.NewInt(0),
		types.NewFloat(math.Copysign(0, -1)), // -0.0 Equals 0
		types.NewFloat(2.5),
		types.NewInt(-3),
		types.NewFloat(-3),         // Equal to NewInt(-3)
		types.NewFloat(math.NaN()), // Equal only to NaN; its own class
	}
	tab := NewTable(schema.New("r", "V"))
	rng := rand.New(rand.NewSource(99))
	var stored []types.Value
	for i := 0; i < 400; i++ {
		v := pool[rng.Intn(len(pool))]
		stored = append(stored, v)
		tab.MustInsert(Tuple{v})
	}
	col := tab.Snapshot().Columnar().Col(0)

	// Exact codes: equal code <=> identical stored value (same kind, same
	// payload — floats bit-for-bit, so -0.0 keeps its sign and NaN its
	// payload).
	for i := range stored {
		vi := col.Value(col.Code(i))
		if vi.Kind() != stored[i].Kind() {
			t.Fatalf("row %d: exact code round-trips %s(%v), stored %s(%v)",
				i, vi.Kind(), vi, stored[i].Kind(), stored[i])
		}
		if vi.Kind() == types.KindFloat {
			if math.Float64bits(vi.Float()) != math.Float64bits(stored[i].Float()) {
				t.Fatalf("row %d: float bits changed: %x vs %x",
					i, math.Float64bits(vi.Float()), math.Float64bits(stored[i].Float()))
			}
		} else if !vi.Equal(stored[i]) {
			t.Fatalf("row %d: exact code round-trips %v, stored %v", i, vi, stored[i])
		}
	}
	// Equal-class codes: for every pair of rows, shared class <=> Equal.
	for i := range stored {
		for j := i + 1; j < len(stored); j++ {
			sameClass := col.EqCode(i) == col.EqCode(j)
			equal := stored[i].Equal(stored[j])
			if sameClass != equal {
				t.Fatalf("rows %d,%d (%v vs %v): eq-class %v but Equal %v — dictionary aliasing",
					i, j, stored[i], stored[j], sameClass, equal)
			}
		}
	}
	// Dictionary-level: no two distinct exact entries may be Key-equal
	// without sharing an Equal-class, and EqCodeOf must agree with EqCode
	// for every stored value.
	for i := range stored {
		code, ok := col.EqCodeOf(stored[i])
		if !ok {
			t.Fatalf("EqCodeOf(%v) reported absent for a stored value", stored[i])
		}
		if code != col.EqCode(i) {
			t.Fatalf("EqCodeOf(%v) = %d, EqCode(row) = %d", stored[i], code, col.EqCode(i))
		}
	}
	// Values absent from the column must be reported absent.
	for _, v := range []types.Value{
		types.NewString("absent"), types.NewInt(42), types.NewFloat(3.25),
	} {
		if _, ok := col.EqCodeOf(v); ok {
			t.Errorf("EqCodeOf(%v) = present, want absent", v)
		}
	}
}

// TestColumnarKeyOfMatchesValueKey pins the KeyOf contract the detection
// group maps rely on: the precomputed key of a row's code is exactly the
// stored value's Key().
func TestColumnarKeyOfMatchesValueKey(t *testing.T) {
	tab := NewTable(schema.New("r", "V"))
	vals := []types.Value{
		types.NewString("a"), types.NewInt(7), types.NewFloat(7),
		types.NewFloat(2.5), types.Null, types.NewBool(false),
	}
	for _, v := range vals {
		tab.MustInsert(Tuple{v})
	}
	col := tab.Snapshot().Columnar().Col(0)
	for i, v := range vals {
		if got := col.KeyOf(col.Code(i)); got != v.Key() {
			t.Errorf("KeyOf(row %d) = %q, want %q", i, got, v.Key())
		}
	}
}

// TestColumnarConcurrentReaders hammers Columnar() from many goroutines
// interleaved with mutations; the race detector checks the locking, and
// every returned snapshot must be internally consistent (ids and columns
// the same length).
func TestColumnarConcurrentReaders(t *testing.T) {
	tab := NewTable(schema.New("r", "A", "B"))
	for i := 0; i < 100; i++ {
		tab.MustInsert(Tuple{types.NewInt(int64(i % 7)), types.NewString(fmt.Sprint(i % 5))})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			tab.MustInsert(Tuple{types.NewInt(int64(i)), types.NewString("w")})
		}
	}()
	for i := 0; i < 50; i++ {
		snap := tab.Snapshot().Columnar()
		n := snap.Len()
		for j := 0; j < snap.NumCols(); j++ {
			if snap.Col(j).Len() != n {
				t.Fatalf("snapshot column %d has %d rows, ids %d", j, snap.Col(j).Len(), n)
			}
		}
	}
	<-done
}
