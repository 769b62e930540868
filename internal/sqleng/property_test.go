package sqleng

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// TestFilterAgainstReference runs randomly generated WHERE clauses through
// the engine and checks the result against a direct in-Go evaluation of
// the same predicate over the same rows.
func TestFilterAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	store := relstore.NewStore()
	tab, _ := store.Create(schema.New("r", "A", "B", "C"))
	var rows []relstore.Tuple
	for i := 0; i < 200; i++ {
		row := relstore.Tuple{
			types.NewInt(int64(rng.Intn(10))),
			types.NewInt(int64(rng.Intn(10))),
			types.NewString(fmt.Sprintf("s%d", rng.Intn(5))),
		}
		if rng.Intn(10) == 0 {
			row[1] = types.Null
		}
		rows = append(rows, row)
		tab.MustInsert(row)
	}
	e := New(store)

	type pred struct {
		sql string
		ref func(row relstore.Tuple) bool
	}
	notNull := func(v types.Value) bool { return !v.IsNull() }
	preds := []pred{
		{"A = 5", func(r relstore.Tuple) bool { return r[0].Equal(types.NewInt(5)) }},
		{"A = B", func(r relstore.Tuple) bool { return notNull(r[1]) && r[0].Equal(r[1]) }},
		{"A <> B", func(r relstore.Tuple) bool { return notNull(r[1]) && !r[0].Equal(r[1]) }},
		{"A = 3 AND B = 5", func(r relstore.Tuple) bool {
			return r[0].Int() == 3 && notNull(r[1]) && r[1].Int() == 5
		}},
		{"A = 1 OR C = 's2'", func(r relstore.Tuple) bool {
			return r[0].Int() == 1 || r[2].Str() == "s2"
		}},
		{"B = 'NULL' OR C <> 's1'", func(r relstore.Tuple) bool { return r[2].Str() != "s1" }},
		{"B <> 4 AND A <> 0", func(r relstore.Tuple) bool {
			return notNull(r[1]) && r[1].Int() != 4 && r[0].Int() != 0
		}},
		{"A = 1 OR A = 3 OR A = 5", func(r relstore.Tuple) bool {
			n := r[0].Int()
			return n == 1 || n == 3 || n == 5
		}},
		{"(A = B OR B = 9) AND C <> 's0'", func(r relstore.Tuple) bool {
			return notNull(r[1]) && (r[0].Equal(r[1]) || r[1].Int() == 9) && r[2].Str() != "s0"
		}},
		{"C = 1 OR A = 's2'", func(r relstore.Tuple) bool { return false }}, // across kinds, never equal
	}
	for _, p := range preds {
		res, err := e.QueryContext(context.Background(), "SELECT _tid FROM r WHERE "+p.sql)
		if err != nil {
			t.Fatalf("%s: %v", p.sql, err)
		}
		want := 0
		for _, row := range rows {
			if p.ref(row) {
				want++
			}
		}
		if got := len(res.Rows); got != want {
			t.Errorf("WHERE %s: engine %d, reference %d", p.sql, got, want)
		}
	}
}

// TestGroupByAgainstReference cross-checks the COUNT forms against direct
// maps: HAVING keeps a group exactly when its counts are the map's.
func TestGroupByAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	store := relstore.NewStore()
	tab, _ := store.Create(schema.New("r", "G", "X"))
	counts := map[int64]int64{}
	nonNull := map[int64]int64{}
	distinct := map[int64]map[int64]bool{}
	for i := 0; i < 500; i++ {
		g := int64(rng.Intn(7))
		x := types.NewInt(int64(rng.Intn(20)))
		counts[g]++
		if rng.Intn(8) == 0 {
			x = types.Null
		} else {
			nonNull[g]++
			if distinct[g] == nil {
				distinct[g] = map[int64]bool{}
			}
			distinct[g][x.Int()] = true
		}
		tab.MustInsert(relstore.Tuple{types.NewInt(g), x})
	}
	e := New(store)
	if res := mustQuery(e, "SELECT G FROM r GROUP BY G"); len(res.Rows) != len(counts) {
		t.Fatalf("groups = %d, want %d", len(res.Rows), len(counts))
	}
	for g := range counts {
		for off := range 2 { // the map's counts, then one more distinct X
			q := fmt.Sprintf("SELECT G FROM r WHERE G = %d GROUP BY G HAVING COUNT(*) = %d AND COUNT(X) = %d AND COUNT(DISTINCT X) = %d",
				g, counts[g], nonNull[g], len(distinct[g])+off)
			if got := len(mustQuery(e, q).Rows); got != 1-off {
				t.Errorf("%s: %d rows, want %d", q, got, 1-off)
			}
		}
	}
}

// TestJoinAgainstReference cross-checks an equi-join on codes, through a
// translation table, against a nested-loop count on values over random key
// distributions.
func TestJoinAgainstReference(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(200 + trial)))
		store := relstore.NewStore()
		l, _ := store.Create(schema.New("l", "K", "V"))
		r, _ := store.Create(schema.New("r", "K", "W"))
		var lrows, rrows []relstore.Tuple
		for i := 0; i < 50+rng.Intn(100); i++ {
			row := relstore.Tuple{types.NewInt(int64(rng.Intn(12))), types.NewInt(int64(i))}
			lrows = append(lrows, row)
			l.MustInsert(row)
		}
		for i := 0; i < 50+rng.Intn(100); i++ {
			row := relstore.Tuple{types.NewInt(int64(rng.Intn(12))), types.NewInt(int64(i))}
			if rng.Intn(15) == 0 {
				row[0] = types.Null // NULL keys never join
			}
			rrows = append(rrows, row)
			r.MustInsert(row)
		}
		want := 0
		for _, lr := range lrows {
			for _, rr := range rrows {
				if !lr[0].IsNull() && !rr[0].IsNull() && lr[0].Equal(rr[0]) {
					want++
				}
			}
		}
		e := New(store)
		res := mustQuery(e, "SELECT l._tid FROM l, r WHERE l.K = r.K")
		if got := len(res.Rows); got != want {
			t.Fatalf("trial %d: join count %d, want %d", trial, got, want)
		}
	}
}
