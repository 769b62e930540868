package sqleng

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"semandaq/internal/datagen"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// TestStreamBasic: a streamed query yields the same rows, in the same
// order, as the eager Result.
func TestStreamBasic(t *testing.T) {
	e := New(newJoinStore(t))
	sql := `SELECT o.OID, c.CITY FROM orders o, cust c WHERE o.CID = c.CID`
	want := mustQuery(e, sql)
	ss, err := e.Stream(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ss.Columns, want.Columns) {
		t.Errorf("columns = %v, want %v", ss.Columns, want.Columns)
	}
	var got [][]types.Value
	if err := ss.Each(context.Background(), func(row []types.Value) bool {
		got = append(got, slices.Clone(row)) // the row is the stream's to reuse
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want.Rows) {
		t.Errorf("rows = %v, want %v", got, want.Rows)
	}
	if !reflect.DeepEqual(ss.Versions, want.Versions) {
		t.Errorf("versions = %v, want %v", ss.Versions, want.Versions)
	}
}

// TestStreamVersionsPinnedAtCreation is the regression test for the
// multi-table version stamp: Versions must record the snapshots pinned
// when the stream (or query) was created, and mutations made between
// creation and consumption must affect neither the stamp nor the rows.
func TestStreamVersionsPinnedAtCreation(t *testing.T) {
	store := relstore.NewStore()
	left, err := store.Create(schema.New("l", "K", "A"))
	if err != nil {
		t.Fatal(err)
	}
	right, err := store.Create(schema.New("r", "K", "B"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		left.MustInsert(relstore.Tuple{types.NewInt(int64(i)), types.NewInt(int64(10 + i))})
		right.MustInsert(relstore.Tuple{types.NewInt(int64(i)), types.NewInt(int64(20 + i))})
	}
	e := New(store)

	lv, rv := left.Version(), right.Version()
	ss, err := e.Stream(context.Background(), "SELECT l.A, r.B FROM l, r WHERE l.K = r.K")
	if err != nil {
		t.Fatal(err)
	}
	if ss.Versions["l"] != lv || ss.Versions["r"] != rv {
		t.Fatalf("versions at creation = %v, want l=%d r=%d", ss.Versions, lv, rv)
	}

	// Mutate both base tables after the stream pinned its snapshots but
	// before any row is consumed.
	left.MustInsert(relstore.Tuple{types.NewInt(99), types.NewInt(999)})
	right.MustInsert(relstore.Tuple{types.NewInt(99), types.NewInt(888)})
	if left.Version() == lv || right.Version() == rv {
		t.Fatal("mutation did not bump table versions")
	}

	rows := 0
	if err := ss.Each(context.Background(), func(row []types.Value) bool {
		if row[0].Int() >= 900 || row[1].Int() >= 800 {
			t.Errorf("row %v leaked from a post-pin mutation", row)
		}
		rows++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if rows != 4 {
		t.Errorf("rows = %d, want 4 (pinned snapshot size)", rows)
	}
	// The stamp still reflects pin time, not consumption time.
	if ss.Versions["l"] != lv || ss.Versions["r"] != rv {
		t.Errorf("versions after mutation = %v, want l=%d r=%d", ss.Versions, lv, rv)
	}

	// The eager path stamps the same way: a fresh query now sees the new
	// versions, proving the old stamp was the pinned one.
	res := mustQuery(e, "SELECT l.A, r.B FROM l, r WHERE l.K = r.K")
	if res.Versions["l"] != left.Version() || res.Versions["r"] != right.Version() {
		t.Errorf("fresh query versions = %v", res.Versions)
	}
	if len(res.Rows) != 5 {
		t.Errorf("fresh query rows = %d, want 5", len(res.Rows))
	}
}

// TestStreamEarlyStop: yield returning false stops iteration without error.
func TestStreamEarlyStop(t *testing.T) {
	e := New(newJoinStore(t))
	ss, err := e.Stream(context.Background(), "SELECT OID FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := ss.Each(context.Background(), func(row []types.Value) bool {
		n++
		return n < 3
	}); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("yielded %d rows, want 3", n)
	}
}

// TestStreamGroupedQuery: a grouped query streams its groups once the
// input is consumed and must produce the eager output.
func TestStreamGroupedQuery(t *testing.T) {
	e := New(newJoinStore(t))
	sql := `SELECT c.CITY FROM orders o, cust c
	        WHERE o.CID = c.CID GROUP BY c.CITY HAVING COUNT(*) > 1 AND COUNT(DISTINCT o.PID) > 0`
	want := mustQuery(e, sql)
	ss, err := e.Stream(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]types.Value
	if err := ss.Each(context.Background(), func(row []types.Value) bool {
		got = append(got, slices.Clone(row)) // the row is the stream's to reuse
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want.Rows) {
		t.Errorf("rows = %v, want %v", got, want.Rows)
	}
}

// TestStreamGroupedYield: grouped queries stream each finished group
// straight through yield (no output materialization), in first-appearance
// order, with HAVING applied inline and early-stop honored.
func TestStreamGroupedYield(t *testing.T) {
	e := New(newJoinStore(t))
	queries := []string{
		`SELECT c.CITY FROM orders o, cust c
		 WHERE o.CID = c.CID GROUP BY c.CITY`,
		`SELECT c.CITY FROM orders o, cust c
		 WHERE o.CID = c.CID GROUP BY c.CITY HAVING COUNT(*) > 4`,
		`SELECT CID FROM orders GROUP BY CID HAVING COUNT(*) = 4 AND COUNT(DISTINCT OID) > 1`,
		`SELECT OID FROM orders WHERE OID = 5000 GROUP BY OID HAVING COUNT(*) = 0`,
	}
	for _, sql := range queries {
		want := mustQuery(e, sql)
		ss, err := e.Stream(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		var got [][]types.Value
		if err := ss.Each(context.Background(), func(row []types.Value) bool {
			got = append(got, slices.Clone(row)) // the row is the stream's to reuse
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want.Rows) || (len(got) > 0 && !reflect.DeepEqual(got, want.Rows)) {
			t.Errorf("%s:\nstream: %v\neager:  %v", sql, got, want.Rows)
		}
	}

	// Early stop mid-groups: yield false after the first group.
	ss, err := e.Stream(context.Background(),
		`SELECT CID FROM orders GROUP BY CID`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := ss.Each(context.Background(), func(row []types.Value) bool {
		n++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("yielded %d group rows after stop, want 1", n)
	}
}

// TestStreamedQueryAllocsFlat pins the pipeline's constant intermediate
// state: a filter-count, a GROUP BY over a fixed set of groups and a count
// of the detector's tableau join (each count a grouped HAVING, the select
// list holding no COUNT) stream their input through the
// aggregate, so a 10x larger table costs no more allocations once the
// snapshot's columnar caches are warm. The class walk's tables keep to it:
// its classes are a build of a fixed number of vectors, its decisions one
// slot per class, its tail store sized for one tail per class, at most —
// and the tail store doubles past that, log2(tails per class) times
// whatever the size: the tableau join's two tails per [CNT ZIP] class cost
// one doubling at both.
func TestStreamedQueryAllocsFlat(t *testing.T) {
	queries := []string{
		`SELECT CNT FROM customer WHERE CNT = 'UK' AND CITY = 'Edinburgh' GROUP BY CNT HAVING COUNT(*) > 0`,
		`SELECT CITY FROM customer GROUP BY CITY HAVING COUNT(*) > 0`,
		`SELECT t.CNT FROM customer t, tp WHERE (tp.CNT = '_' OR t.CNT = tp.CNT) AND (tp.ZIP = '_' OR t.ZIP = tp.ZIP) GROUP BY t.CNT HAVING COUNT(*) > 0`,
	}
	engineAt := func(tuples int) *Engine {
		store := relstore.NewStore()
		store.Put(datagen.Generate(datagen.Config{Tuples: tuples, Seed: 7}).Clean)
		tp, err := store.Create(schema.New("tp", "CNT", "ZIP"))
		if err != nil {
			t.Fatal(err)
		}
		for _, cnt := range []string{"_", "UK", "US"} {
			tp.MustInsert(relstore.Tuple{types.NewString(cnt), types.NewString("_")})
		}
		return New(store)
	}
	small, large := engineAt(2_000), engineAt(20_000)
	for _, q := range queries {
		allocs := func(e *Engine) float64 {
			run := func() {
				if _, err := e.QueryContext(context.Background(), q); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the snapshot's columnar caches
			return testing.AllocsPerRun(5, run)
		}
		if s, l := allocs(small), allocs(large); l > s+8 {
			t.Errorf("allocations scale with input: %s\n2000 tuples -> %.0f allocs, 20000 tuples -> %.0f", q, s, l)
		}
	}
}

// TestMemoTailBudget: the class walk records at most as many tails as the
// driver has rows, and the first tail of each class it gives up.
// t1.CITY <> t2.CITY on 2 000 tuples has 6 classes of some 1 670 tails
// each: the first fits the budget, the others are given up and run the
// pipeline row by row, so each city's count is what the city sizes make it
// (HAVING holds the counts to them) and the run allocates a bounded
// table — 57 kB against the 33 kB of a7f862a, which had no memo — not one
// entry per joined pair.
func TestMemoTailBudget(t *testing.T) {
	store := relstore.NewStore()
	tab := datagen.Generate(datagen.Config{Tuples: 2_000, Seed: 7}).Clean
	store.Put(tab)
	e := New(store)
	city := tab.Snapshot().Columnar().Col(tab.Schema().MustPos("CITY"))
	sizes := map[uint32]int64{}
	for r := range city.Len() {
		sizes[city.EqCode(r)]++
	}
	// Each city's count: its rows times the rows of the other cities.
	var counts []string
	for _, n := range sizes {
		counts = append(counts, fmt.Sprintf("COUNT(*) = %d", n*(2_000-n)))
	}
	q := `SELECT t1.CITY FROM customer t1, customer t2 WHERE t1.CITY <> t2.CITY GROUP BY t1.CITY HAVING ` + strings.Join(counts, " OR ")
	mustQuery(e, q) // warm the snapshot's columnar caches
	ops0 := e.OpStats()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := mustQuery(e, q)
	runtime.ReadMemStats(&after)
	if len(got.Rows) != len(sizes) {
		t.Errorf("HAVING on the cities' counts kept %d rows, want %d", len(got.Rows), len(sizes))
	}
	if ops := e.OpStats(); ops.DriverClasses-ops0.DriverClasses < 1 || ops.DriverClasses-ops0.DriverClasses >= 6 || ops.ClassRows == ops0.ClassRows {
		t.Errorf("recorded %d classes, replayed %d rows: want some classes within the budget and some past it", ops.DriverClasses-ops0.DriverClasses, ops.ClassRows-ops0.ClassRows)
	}
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 33<<10+64<<10 {
		t.Errorf("the run allocated %d bytes, want at most 64 kB over the parent's 33 kB", bytes)
	}
}
