package sqleng

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// sqlGen writes random statements over fuzzStore's tables: joins of up to
// three tables (comma, JOIN and LEFT JOIN, ON over the tables so far),
// predicates mixing code-compilable shapes with arithmetic, zero divisors
// and operands of the wrong kind, grouping with every aggregate, HAVING,
// DISTINCT, ORDER BY and LIMIT/OFFSET.
type sqlGen struct {
	rng  *rand.Rand
	cols []string // the columns in scope, qualified
}

func (g *sqlGen) pick(xs ...string) string { return xs[g.rng.Intn(len(xs))] }

func (g *sqlGen) term(depth int) string {
	switch n := g.rng.Intn(9); {
	case depth <= 0 || n < 3:
		return g.pick(g.cols...)
	case n < 5:
		return g.pick("0", "1", "2", "1.0", "0.5", "'x'", "''", "'p'", "NULL", "TRUE")
	case n < 7:
		return "(" + g.term(depth-1) + " " + g.pick("+", "-", "*", "/", "%", "||") + " " + g.term(depth-1) + ")"
	}
	return g.pick("-(", "ABS(", "COALESCE("+g.pick(g.cols...)+", ", "SUBSTR('abc', ") + g.term(depth-1) + ")"
}

func (g *sqlGen) pred(depth int) string {
	switch n := g.rng.Intn(10); {
	case depth <= 0 || n < 4:
		return g.term(1) + " " + g.pick("=", "<>", "<", ">=", "IS NOT DISTINCT FROM") + " " + g.term(1)
	case n < 5:
		return g.term(1) + g.pick(" IS NULL", " IS NOT NULL", " IN (1, 'x', NULL)", " NOT IN (2, 'p')", " LIKE 'x%'", " BETWEEN 0 AND 1")
	case n < 8:
		return "(" + g.pred(depth-1) + g.pick(" AND ", " OR ") + g.pred(depth-1) + ")"
	}
	return "NOT " + g.pick("(", "(NOT ") + g.pred(depth-1) + ")"
}

func (g *sqlGen) query() string {
	g.cols = nil
	var from strings.Builder
	joined := false
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		tab := g.pick("r", "s", "u")
		if n == 3 && tab == "u" && i > 0 {
			tab = "r" // keep the reference's cross product small
		}
		alias := fmt.Sprintf("t%d", i)
		for _, c := range map[string]string{"r": "ABC", "s": "AD", "u": "ABCD"}[tab] {
			g.cols = append(g.cols, alias+"."+string(c))
		}
		switch {
		case i == 0:
			fmt.Fprintf(&from, " FROM %s %s", tab, alias)
		case !joined && g.rng.Intn(2) == 0:
			fmt.Fprintf(&from, ", %s %s", tab, alias)
		default:
			joined = true
			fmt.Fprintf(&from, " %s %s %s ON %s", g.pick("JOIN", "LEFT JOIN"), tab, alias, g.pred(1))
		}
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	if g.rng.Intn(4) == 0 {
		b.WriteString("DISTINCT ")
	}
	grouped := g.rng.Intn(3) == 0
	var items []string
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		items = append(items, g.term(2))
	}
	keys := strings.Join(items, ", ")
	if grouped {
		for i, n := 0, 1+g.rng.Intn(2); i < n; i++ {
			items = append(items, g.pick("COUNT(*)", "COUNT(", "COUNT(DISTINCT ", "SUM(", "AVG(", "MIN(", "MAX(", "SUM(DISTINCT "))
			if !strings.HasSuffix(items[len(items)-1], ")") {
				items[len(items)-1] += g.term(1) + ")"
			}
		}
	}
	b.WriteString(strings.Join(items, ", ") + from.String())
	if g.rng.Intn(4) > 0 {
		b.WriteString(" WHERE " + g.pred(2))
	}
	if grouped {
		b.WriteString(" GROUP BY " + keys)
		if g.rng.Intn(2) == 0 {
			b.WriteString(" HAVING " + g.pick("COUNT(*) > 1", "COUNT(*) <= 2 OR MIN("+g.pick(g.cols...)+") = 1", "SUM("+g.term(1)+") > 0"))
		}
	}
	if g.rng.Intn(3) == 0 {
		b.WriteString(" ORDER BY " + items[g.rng.Intn(len(items))] + g.pick("", " DESC"))
	}
	if g.rng.Intn(3) == 0 {
		fmt.Fprintf(&b, " LIMIT %d OFFSET %d", g.rng.Intn(8), g.rng.Intn(3))
	}
	return b.String()
}

// TestRandomQueriesMatchReference holds the engine to the nested-loop
// reference on generated statements: the shapes random bytes rarely reach
// (three-way joins, arithmetic in ON and HAVING, zero divisors on some
// rows, kinds that do not add up), every one of which the planner now
// optimises like any other.
func TestRandomQueriesMatchReference(t *testing.T) {
	g := &sqlGen{rng: rand.New(rand.NewSource(33))}
	n := 1500
	if testing.Short() {
		n = 300
	}
	for i := 0; i < n; i++ {
		checkSQLIdentity(t, g.query())
	}
}
