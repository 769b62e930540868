package sqleng

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// sqlGen writes random statements of the grammar over fuzzStore's tables:
// comma joins of up to three tables, comparisons between columns and
// between a column and a literal of every kind under AND and OR, _tid in
// the select list, grouping with every COUNT form, and HAVING over counts
// and INT literals.
type sqlGen struct {
	rng  *rand.Rand
	cols []string // the columns in scope, qualified
}

func (g *sqlGen) pick(xs ...string) string { return xs[g.rng.Intn(len(xs))] }

func (g *sqlGen) col() string { return g.pick(g.cols...) }

func (g *sqlGen) lit() string {
	return g.pick("0", "1", "2", "-1", "1.0", "0.5", "'x'", "''", "'p'", "'_'", "NULL", "TRUE")
}

func (g *sqlGen) pred(depth int) string {
	switch n := g.rng.Intn(10); {
	case depth <= 0 || n < 5:
		l, r := g.col(), g.col()
		switch g.rng.Intn(3) {
		case 0:
			r = g.lit()
		case 1:
			l = g.lit()
		}
		return l + " " + g.pick("=", "<>", "!=") + " " + r
	}
	return "(" + g.pred(depth-1) + g.pick(" AND ", " OR ") + g.pred(depth-1) + ")"
}

func (g *sqlGen) count() string {
	return g.pick("COUNT(*)", "COUNT("+g.col()+")", "COUNT(DISTINCT "+g.col()+")")
}

func (g *sqlGen) having(depth int) string {
	if depth > 0 && g.rng.Intn(3) == 0 {
		return "(" + g.having(depth-1) + g.pick(" AND ", " OR ") + g.having(depth-1) + ")"
	}
	l, r := g.count(), g.count()
	if g.rng.Intn(2) == 0 {
		r = g.pick("0", "1", "2", "-1")
	}
	return l + " " + g.pick("=", "<>", "<", "<=", ">", ">=") + " " + r
}

func (g *sqlGen) query() string {
	g.cols = nil
	var from []string
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		tab := g.pick("r", "s", "u")
		if n == 3 && tab == "u" && i > 0 {
			tab = "r" // keep the reference's cross product small
		}
		alias := fmt.Sprintf("t%d", i)
		for _, c := range map[string]string{"r": "ABC", "s": "AD", "u": "ABCD"}[tab] {
			g.cols = append(g.cols, alias+"."+string(c))
		}
		from = append(from, tab+" "+alias)
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	grouped := g.rng.Intn(3) == 0
	var items, keys []string
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		c := g.col()
		if g.rng.Intn(6) == 0 {
			c = strings.SplitAfter(c, ".")[0] + TIDColumn
		} else {
			keys = append(keys, c)
		}
		items = append(items, c)
	}
	if grouped {
		for i, n := 0, 1+g.rng.Intn(2); i < n; i++ {
			items = append(items, g.count())
		}
	}
	b.WriteString(strings.Join(items, ", ") + " FROM " + strings.Join(from, ", "))
	if g.rng.Intn(4) > 0 {
		b.WriteString(" WHERE " + g.pred(2))
	}
	if grouped {
		if len(keys) > 0 {
			b.WriteString(" GROUP BY " + strings.Join(keys, ", "))
		}
		if g.rng.Intn(2) == 0 {
			b.WriteString(" HAVING " + g.having(1))
		}
	}
	return b.String()
}

// TestRandomQueriesMatchReference holds the engine to the nested-loop
// reference on generated statements: the shapes random bytes rarely reach
// (three-way joins with composite keys, cross-kind comparisons, NULL
// literals, _tid projected from a grouped representative, HAVING over
// several counts), every one of which the planner optimises like any other.
func TestRandomQueriesMatchReference(t *testing.T) {
	g := &sqlGen{rng: rand.New(rand.NewSource(33))}
	n := 1500
	if testing.Short() {
		n = 300
	}
	for i := 0; i < n; i++ {
		sql := g.query()
		if _, err := Parse(sql); err != nil {
			t.Fatalf("the generator left the grammar: %s: %v", sql, err)
		}
		checkSQLIdentity(t, sql)
	}
}
