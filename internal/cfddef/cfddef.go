// Package cfddef executes the paper's definitions literally, as the
// reference the optimised engines are checked against: vio(t) for a CFD set
// by comparing every tuple with every pattern and every tuple pair (Check),
// and CFD discovery by enumerating every candidate docs/DISCOVERY.md names
// and testing it on the rows (Mine). It is deliberately naive — quadratic
// scans, no dictionaries, no partitions, no key strings — and shares nothing
// with what it checks beyond types.Value's Compare/Equal, cfd's pattern
// cells and the snapshot's row accessors; a test pins its import list.
package cfddef

import (
	"fmt"
	"slices"
	"strings"

	"semandaq/internal/cfd"
	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

// Counts is one merged CFD's tally: tuples violating a constant pattern on
// their own, tuples in conflict with another tuple, and the distinct LHS
// vectors those conflicts occur under.
type Counts struct{ SingleTuple, MultiTuple, Groups int }

// Check computes vio(t) and the per-CFD counts of the normalized, FD-merged
// set (it panics on a CFD the snapshot's schema rejects). For φ = (X → A, Tp):
// t violates a constant pattern tp when it matches tp[X] and t[A] is neither
// NULL nor tp[A] (+1 per φ, however many patterns fire); t and t' conflict
// when both match some wildcard-RHS pattern, agree on X and differ on A, NULL
// being a value like any other (+1 per such t').
func Check(snap *relstore.Snapshot, cfds []*cfd.CFD) (map[relstore.TupleID]int, map[string]Counts) {
	sc, rows, ids := snap.Schema(), snap.Rows(), snap.IDs()
	var normal []*cfd.CFD
	for _, c := range cfds {
		if err := c.Validate(sc); err != nil {
			panic(err) // the callers are tests; their CFDs are part of the test
		}
		normal = append(normal, c.Normalize()...)
	}
	vio, per := map[relstore.TupleID]int{}, map[string]Counts{}
	for _, phi := range cfd.MergeByFD(normal) {
		xs, _ := sc.Positions(phi.LHS)
		a := sc.MustPos(phi.RHS[0])
		var n Counts
		inVar := make([]bool, len(rows))
		for i, t := range rows {
			single := false
			for k, tp := range phi.Tableau {
				switch {
				case !phi.MatchLHS(k, t, xs):
				case tp.RHS[0].Wildcard:
					inVar[i] = true
				case !t[a].IsNull() && !tp.RHS[0].Const.Equal(t[a]):
					single = true
				}
			}
			if single {
				vio[ids[i]]++
				n.SingleTuple++
			}
		}
		for i, t := range rows {
			partners, first := 0, true
			for j, u := range rows {
				if !inVar[i] || !inVar[j] || !agree(t, u, xs) {
					continue
				}
				first = first && j >= i
				if !t[a].Equal(u[a]) {
					partners++
				}
			}
			if partners > 0 {
				vio[ids[i]] += partners
				n.MultiTuple++
				if first {
					n.Groups++
				}
			}
		}
		per[phi.ID] = n
	}
	return vio, per
}

func agree(t, u relstore.Tuple, xs []int) bool {
	for _, x := range xs {
		if !t[x].Equal(u[x]) {
			return false
		}
	}
	return true
}

// Options are discovery's thresholds, fully resolved (no defaulting here).
type Options struct {
	MinSupport, MaxLHS, MaxPatternsPerFD int
	MinConfidence                        float64
}

// Rule is one mined single-pattern CFD with its evidence: Kind is
// "global-fd", "conditional-fd" or "constant"; Support the tuples its
// condition covers; Confidence the g3 kept fraction of those.
type Rule struct {
	CFD        *cfd.CFD
	Kind       string
	Support    int
	Confidence float64
}

type miner struct {
	snap *relstore.Snapshot
	rows []relstore.Tuple
	all  []int // every row index
	o    Options
}

// Mine enumerates, by definition, the set a discovery run must report.
// Attribute sets are bitmasks over the schema's positions.
//
// Variable rules: every attribute set X, |X| <= MaxLHS, and every A outside
// X that no non-empty proper subset of X determines. X determines A when the
// g3 kept fraction — rows left when each X-class keeps its largest A-class —
// is at least MinConfidence: a global FD. Otherwise the same test is
// repeated on the rows of each condition B=b, B in X in attribute order, b
// over B's non-NULL classes of at least MinSupport rows in value-key order,
// and the first MaxPatternsPerFD that pass are reported for (X, A).
//
// Constant rules: every set of at most MaxLHS items (attribute, non-NULL
// class), one per attribute, whose cover has at least MinSupport rows, and
// every attribute p outside it that is one non-NULL value over the cover —
// unless that already holds over the cover of a non-empty proper subset.
func Mine(snap *relstore.Snapshot, o Options) []Rule {
	m := &miner{snap: snap, rows: snap.Rows(), o: o}
	for i := range m.rows {
		m.all = append(m.all, i)
	}
	arity := snap.Schema().Arity()
	determines := func(x, a int) (float64, bool) {
		conf := float64(m.kept(m.all, positions(x), a)) / float64(len(m.all))
		return conf, conf >= o.MinConfidence
	}
	var out []Rule
	for x := 1; x < 1<<arity; x++ {
		xs := positions(x)
	rhs:
		for a := 0; a < arity && len(xs) <= o.MaxLHS; a++ {
			if x>>a&1 == 1 {
				continue
			}
			for sub := (x - 1) & x; sub > 0; sub = (sub - 1) & x {
				if _, ok := determines(sub, a); ok {
					continue rhs
				}
			}
			if conf, ok := determines(x, a); ok {
				out = append(out, m.rule("global-fd", xs, nil, nil, a, cfd.Wild, len(m.all), conf))
				continue
			}
			found := 0
			for _, b := range xs {
				for _, cls := range m.classesByKey(b) {
					if found == o.MaxPatternsPerFD {
						break
					}
					if conf := float64(m.kept(cls, xs, a)) / float64(len(cls)); conf >= o.MinConfidence {
						out = append(out, m.rule("conditional-fd", xs, []int{b}, m.rows[cls[0]], a, cfd.Wild, len(cls), conf))
						found++
					}
				}
			}
		}
	}
	return append(out, m.constants(0, make(relstore.Tuple, arity), 0)...)
}

// constants extends the itemset y (its values in pat) with every frequent
// item on a position >= from and reports each extension's minimal rules.
func (m *miner) constants(y int, pat relstore.Tuple, from int) []Rule {
	var out []Rule
	for b := from; b < len(pat) && len(positions(y)) < m.o.MaxLHS; b++ {
		for _, cls := range m.classesByKey(b) {
			pat[b] = m.rows[cls[0]][b]
			z := y | 1<<b
			cover := m.cover(positions(z), pat)
			if len(cover) < m.o.MinSupport {
				continue
			}
		rhs:
			for p := range pat {
				if z>>p&1 == 1 || !m.constantOn(cover, p) {
					continue
				}
				for sub := (z - 1) & z; sub > 0; sub = (sub - 1) & z {
					if m.constantOn(m.cover(positions(sub), pat), p) {
						continue rhs
					}
				}
				zs := positions(z)
				out = append(out, m.rule("constant", zs, zs, pat, p, cfd.Constant(m.rows[cover[0]][p]), len(cover), 1))
			}
			out = append(out, m.constants(z, pat, b+1)...)
		}
	}
	return out
}

// cover lists the rows that agree with pat on the positions xs.
func (m *miner) cover(xs []int, pat relstore.Tuple) []int {
	var out []int
	for _, r := range m.all {
		if agree(m.rows[r], pat, xs) {
			out = append(out, r)
		}
	}
	return out
}

// constantOn reports whether column p is one non-NULL value over rows (never
// empty: a cover has at least MinSupport >= 1 rows).
func (m *miner) constantOn(rows []int, p int) bool {
	return !m.rows[rows[0]][p].IsNull() && len(m.classes(rows, []int{p})) == 1
}

// classes partitions rows (ascending) into Equal-classes on the columns xs;
// each class stays ascending, so its first element is its first row.
func (m *miner) classes(rows []int, xs []int) [][]int {
	cmp := func(r, s int) int {
		for _, x := range xs {
			if c := m.rows[r][x].Compare(m.rows[s][x]); c != 0 {
				return c
			}
		}
		return 0
	}
	sorted := slices.Clone(rows)
	slices.SortStableFunc(sorted, cmp)
	var out [][]int
	for i, r := range sorted {
		if i == 0 || cmp(sorted[i-1], r) != 0 {
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], r)
	}
	return out
}

// classesByKey lists column b's frequent non-NULL classes in value-key order
// of their first row's value: booleans, integral numbers by decimal text,
// other floats, strings — each as text (docs/DISCOVERY.md).
func (m *miner) classesByKey(b int) [][]int {
	key := func(cls []int) string {
		v := m.rows[cls[0]][b]
		switch k := v.Kind(); {
		case k == types.KindBool:
			return "b" + v.String()
		case k == types.KindString:
			return "s" + v.Str()
		case k == types.KindFloat && v.Float() != float64(int64(v.Float())):
			return "f" + v.String()
		}
		return "d" + v.String()
	}
	out := slices.DeleteFunc(m.classes(m.all, []int{b}), func(cls []int) bool {
		return m.rows[cls[0]][b].IsNull() || len(cls) < m.o.MinSupport
	})
	slices.SortStableFunc(out, func(c, d []int) int { return strings.Compare(key(c), key(d)) })
	return out
}

// kept is the g3 numerator of xs → a over rows.
func (m *miner) kept(rows []int, xs []int, a int) int {
	n := 0
	for _, g := range m.classes(rows, xs) {
		best := 0
		for _, h := range m.classes(g, []int{a}) {
			best = max(best, len(h))
		}
		n += best
	}
	return n
}

// rule builds the single-pattern CFD on xs → a: the cells at the positions
// in consts are pat's values, the rest wildcards.
func (m *miner) rule(kind string, xs, consts []int, pat relstore.Tuple, a int, rhs cfd.PatternValue, support int, conf float64) Rule {
	sc := m.snap.Schema()
	lhs := make([]string, len(xs))
	cells := make([]cfd.PatternValue, len(xs))
	for i, x := range xs {
		lhs[i], cells[i] = sc.Attrs[x].Name, cfd.Wild
		if slices.Contains(consts, x) {
			cells[i] = cfd.Constant(pat[x])
		}
	}
	c := cfd.New(fmt.Sprintf("def_%s_%v_%d", kind, xs, a), sc.Name, lhs, []string{sc.Attrs[a].Name},
		cfd.PatternTuple{LHS: cells, RHS: []cfd.PatternValue{rhs}})
	return Rule{CFD: c, Kind: kind, Support: support, Confidence: conf}
}

// positions lists the attribute positions in the set x, ascending.
func positions(x int) []int {
	var out []int
	for p := 0; x>>p != 0; p++ {
		if x>>p&1 == 1 {
			out = append(out, p)
		}
	}
	return out
}
