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
		{"A < B", func(r relstore.Tuple) bool { return notNull(r[1]) && r[0].Compare(r[1]) < 0 }},
		{"A <= 3 AND B >= 5", func(r relstore.Tuple) bool {
			return r[0].Int() <= 3 && notNull(r[1]) && r[1].Int() >= 5
		}},
		{"A = 1 OR C = 's2'", func(r relstore.Tuple) bool {
			return r[0].Int() == 1 || r[2].Str() == "s2"
		}},
		{"B IS NULL", func(r relstore.Tuple) bool { return r[1].IsNull() }},
		{"B IS NOT NULL AND B <> 4", func(r relstore.Tuple) bool {
			return notNull(r[1]) && r[1].Int() != 4
		}},
		{"A IN (1, 3, 5)", func(r relstore.Tuple) bool {
			n := r[0].Int()
			return n == 1 || n == 3 || n == 5
		}},
		{"A BETWEEN 2 AND 6", func(r relstore.Tuple) bool {
			return r[0].Int() >= 2 && r[0].Int() <= 6
		}},
		{"C LIKE 's%'", func(r relstore.Tuple) bool { return true }},
		{"NOT (A = 0)", func(r relstore.Tuple) bool { return r[0].Int() != 0 }},
		{"A + B = 9", func(r relstore.Tuple) bool {
			return notNull(r[1]) && r[0].Int()+r[1].Int() == 9
		}},
		{"A * 2 > B", func(r relstore.Tuple) bool {
			return notNull(r[1]) && r[0].Int()*2 > r[1].Int()
		}},
		{"CASE WHEN A > 5 THEN TRUE ELSE FALSE END", func(r relstore.Tuple) bool {
			return r[0].Int() > 5
		}},
	}
	for _, p := range preds {
		res, err := e.QueryContext(context.Background(), "SELECT COUNT(*) FROM r WHERE "+p.sql)
		if err != nil {
			t.Fatalf("%s: %v", p.sql, err)
		}
		want := 0
		for _, row := range rows {
			if p.ref(row) {
				want++
			}
		}
		if got := res.Rows[0][0].Int(); got != int64(want) {
			t.Errorf("WHERE %s: engine %d, reference %d", p.sql, got, want)
		}
	}
}

// TestGroupByAgainstReference cross-checks aggregates against direct maps.
func TestGroupByAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	store := relstore.NewStore()
	tab, _ := store.Create(schema.New("r", "G", "X"))
	sums := map[int64]int64{}
	counts := map[int64]int64{}
	distinct := map[int64]map[int64]bool{}
	for i := 0; i < 500; i++ {
		g := int64(rng.Intn(7))
		x := int64(rng.Intn(20))
		sums[g] += x
		counts[g]++
		if distinct[g] == nil {
			distinct[g] = map[int64]bool{}
		}
		distinct[g][x] = true
		tab.MustInsert(relstore.Tuple{types.NewInt(g), types.NewInt(x)})
	}
	e := New(store)
	res := mustQuery(e, "SELECT G, COUNT(*), SUM(X), COUNT(DISTINCT X), MIN(X), MAX(X), AVG(X) FROM r GROUP BY G ORDER BY G")
	if len(res.Rows) != len(counts) {
		t.Fatalf("groups = %d, want %d", len(res.Rows), len(counts))
	}
	for _, row := range res.Rows {
		g := row[0].Int()
		if row[1].Int() != counts[g] {
			t.Errorf("G=%d COUNT = %v, want %d", g, row[1], counts[g])
		}
		if row[2].Int() != sums[g] {
			t.Errorf("G=%d SUM = %v, want %d", g, row[2], sums[g])
		}
		if row[3].Int() != int64(len(distinct[g])) {
			t.Errorf("G=%d COUNT DISTINCT = %v, want %d", g, row[3], len(distinct[g]))
		}
		if avg := row[6].Float(); avg != float64(sums[g])/float64(counts[g]) {
			t.Errorf("G=%d AVG = %v", g, avg)
		}
	}
}

// TestJoinAgainstReference cross-checks the hash join against a
// nested-loop reference over random key distributions.
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
		res := mustQuery(e, "SELECT COUNT(*) FROM l, r WHERE l.K = r.K")
		if got := res.Rows[0][0].Int(); got != int64(want) {
			t.Fatalf("trial %d: join count %d, want %d", trial, got, want)
		}
		// LEFT JOIN row count: inner matches + unmatched left rows.
		unmatched := 0
		for _, lr := range lrows {
			m := false
			for _, rr := range rrows {
				if !lr[0].IsNull() && !rr[0].IsNull() && lr[0].Equal(rr[0]) {
					m = true
					break
				}
			}
			if !m {
				unmatched++
			}
		}
		res = mustQuery(e, "SELECT COUNT(*) FROM l LEFT JOIN r ON l.K = r.K")
		if got := res.Rows[0][0].Int(); got != int64(want+unmatched) {
			t.Fatalf("trial %d: left join count %d, want %d", trial, got, want+unmatched)
		}
	}
}

// TestOrderByIsStableSort pins ORDER BY's tie behaviour: equal keys keep
// input order (the executor uses a stable sort).
func TestOrderByIsStableSort(t *testing.T) {
	store := relstore.NewStore()
	tab, _ := store.Create(schema.New("r", "K", "Seq"))
	for i := 0; i < 20; i++ {
		tab.MustInsert(relstore.Tuple{types.NewInt(int64(i % 3)), types.NewInt(int64(i))})
	}
	e := New(store)
	res := mustQuery(e, "SELECT K, Seq FROM r ORDER BY K")
	lastSeq := map[int64]int64{}
	for _, row := range res.Rows {
		k, seq := row[0].Int(), row[1].Int()
		if prev, ok := lastSeq[k]; ok && seq < prev {
			t.Fatalf("unstable order within key %d: %d after %d", k, seq, prev)
		}
		lastSeq[k] = seq
	}
}

// TestDistinctMatchesGroupBy: SELECT DISTINCT x ≡ GROUP BY x in row count.
func TestDistinctMatchesGroupBy(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	store := relstore.NewStore()
	tab, _ := store.Create(schema.New("r", "A", "B"))
	for i := 0; i < 300; i++ {
		tab.MustInsert(relstore.Tuple{
			types.NewInt(int64(rng.Intn(6))),
			types.NewString(fmt.Sprintf("x%d", rng.Intn(4)))})
	}
	e := New(store)
	d := mustQuery(e, "SELECT DISTINCT A, B FROM r")
	g := mustQuery(e, "SELECT A, B FROM r GROUP BY A, B")
	if len(d.Rows) != len(g.Rows) {
		t.Errorf("DISTINCT %d rows, GROUP BY %d rows", len(d.Rows), len(g.Rows))
	}
}
