package sqleng

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// sqlGen writes random statements of the fragment over fuzzStore's tables:
// comma joins of up to three tables, predicates mixing the code-compilable
// shapes with ordering compares, _tid reads and operands of the wrong kind,
// grouping with every COUNT form, and HAVING on counts and beyond them.
type sqlGen struct {
	rng  *rand.Rand
	cols []string // the columns in scope, qualified
}

func (g *sqlGen) pick(xs ...string) string { return xs[g.rng.Intn(len(xs))] }

func (g *sqlGen) term() string {
	switch n := g.rng.Intn(9); {
	case n < 4:
		return g.pick(g.cols...)
	case n < 7:
		return g.pick("0", "1", "2", "-1", "1.0", "0.5", "'x'", "''", "'p'", "NULL", "TRUE")
	case n < 8:
		return strings.SplitAfter(g.pick(g.cols...), ".")[0] + TIDColumn
	}
	return "COALESCE(" + g.pick(g.cols...) + ", " + g.pick("0", "1", "'x'", "'none'", "NULL") + ")"
}

func (g *sqlGen) pred(depth int) string {
	switch n := g.rng.Intn(10); {
	case depth <= 0 || n < 4:
		return g.term() + " " + g.pick("=", "<>", "<", ">=", "IS NOT DISTINCT FROM") + " " + g.term()
	case n < 5:
		return g.term() + g.pick(" IS NULL", " IS NOT NULL", " IN (1, 'x', NULL)", " NOT IN (2, 'p')")
	case n < 8:
		return "(" + g.pred(depth-1) + g.pick(" AND ", " OR ") + g.pred(depth-1) + ")"
	}
	return "NOT " + g.pick("(", "(NOT ") + g.pred(depth-1) + ")"
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
	var items []string
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		items = append(items, g.term())
	}
	keys := strings.Join(items, ", ")
	if grouped {
		for i, n := 0, 1+g.rng.Intn(2); i < n; i++ {
			items = append(items, g.pick("COUNT(*)", "COUNT("+g.term()+")", "COUNT(DISTINCT "+g.term()+")"))
		}
	}
	b.WriteString(strings.Join(items, ", ") + " FROM " + strings.Join(from, ", "))
	if g.rng.Intn(4) > 0 {
		b.WriteString(" WHERE " + g.pred(2))
	}
	if grouped {
		b.WriteString(" GROUP BY " + keys)
		if g.rng.Intn(2) == 0 {
			b.WriteString(" HAVING " + g.pick("COUNT(*) > 1", "COUNT(*) <= 2 OR COUNT(DISTINCT "+g.term()+") = 1",
				"COUNT("+g.term()+") < COUNT(*)", "COUNT(*) > 1.5", "NOT (COUNT(*) = 1)", g.pred(1)))
		}
	}
	return b.String()
}

// TestRandomQueriesMatchReference holds the engine to the nested-loop
// reference on generated statements: the shapes random bytes rarely reach
// (three-way joins with PLI keys beside code residuals, ordering compares
// across kinds, _tid in keys and counts, HAVING over columns), every one of
// which the planner optimises like any other.
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
