package discovery

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/cfddef"
	"semandaq/internal/datagen"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// The lattice miner's reference is internal/cfddef: the search policy of
// docs/DISCOVERY.md executed by definition on the rows. Every test in this
// file demands equality — the same patterns with the same kind, support and
// confidence — at whatever depth and confidence it runs.

// evidenceLine renders one mined pattern with everything a Candidate claims
// about it.
func evidenceLine(c *cfd.CFD, kind string, support int, conf float64) string {
	return fmt.Sprintf("%s %s support=%d confidence=%v", CanonicalRules([]*cfd.CFD{c})[0], kind, support, conf)
}

func diffLines(want, got []string) string {
	in := func(xs []string) map[string]bool {
		m := map[string]bool{}
		for _, s := range xs {
			m[s] = true
		}
		return m
	}
	inWant, inGot := in(want), in(got)
	var d strings.Builder
	for _, s := range want {
		if !inGot[s] {
			d.WriteString("  definition only: " + s + "\n")
		}
	}
	for _, s := range got {
		if !inWant[s] {
			d.WriteString("  lattice only: " + s + "\n")
		}
	}
	return d.String()
}

// mineBothWays mines snap with the lattice and by definition, fails the test
// unless the two agree on every candidate and on the merged rule set, and
// returns the lattice report and the number of patterns compared.
func mineBothWays(t testing.TB, snap *relstore.Snapshot, opts Options) (*Report, int) {
	t.Helper()
	rep, err := Mine(context.Background(), snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	o := rep.Options
	rules := cfddef.Mine(snap, cfddef.Options{
		MinSupport: o.MinSupport, MaxLHS: o.MaxLHS,
		MaxPatternsPerFD: o.MaxPatternsPerFD, MinConfidence: o.MinConfidence,
	})
	var want, got []string
	var defined []*cfd.CFD
	for _, r := range rules {
		want = append(want, evidenceLine(r.CFD, r.Kind, r.Support, r.Confidence))
		defined = append(defined, r.CFD)
	}
	for _, c := range rep.Candidates {
		got = append(got, evidenceLine(c.CFD, c.Kind, c.Support, c.Confidence))
	}
	sort.Strings(want)
	sort.Strings(got)
	if fmt.Sprint(want) != fmt.Sprint(got) {
		t.Fatalf("lattice != definition under %+v (%d defined vs %d mined candidates):\n%s",
			o, len(want), len(got), diffLines(want, got))
	}
	if w, g := CanonicalRules(defined), CanonicalRules(rep.CFDs); fmt.Sprint(w) != fmt.Sprint(g) {
		t.Fatalf("merged rule set lost or gained patterns:\n%s", diffLines(w, g))
	}
	return rep, len(got)
}

// TestLatticeMatchesLegacy (the name predates the definitional reference;
// the generated configurations are the ones the legacy miner was compared
// on) pins lattice == definition on seeded datasets across noise levels and
// support thresholds.
func TestLatticeMatchesLegacy(t *testing.T) {
	cases := []struct {
		tuples  int
		seed    int64
		noise   float64
		support int
		maxLHS  int
	}{
		{300, 1, 0, 0, 1},
		{300, 1, 0, 0, 2},
		{300, 2, 0.02, 10, 2},
		{1000, 3, 0, 0, 2},
		{1000, 4, 0.02, 25, 1},
		{1000, 4, 0.02, 25, 2},
		{1000, 5, 0.10, 0, 2},
		{3000, 6, 0.10, 50, 2},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("n%d_seed%d_noise%g_sup%d_lhs%d",
			tc.tuples, tc.seed, tc.noise, tc.support, tc.maxLHS)
		t.Run(name, func(t *testing.T) {
			ds := datagen.Generate(datagen.Config{
				Tuples: tc.tuples, Seed: tc.seed, NoiseRate: tc.noise,
			})
			_, n := mineBothWays(t, ds.Dirty.Snapshot(), Options{MinSupport: tc.support, MaxLHS: tc.maxLHS})
			if n == 0 {
				t.Fatal("nothing mined; the cross-check is vacuous")
			}
		})
	}
}

// TestLatticeMatchesLegacyAdversarial cross-checks hand-built tables that
// poke the value-model corners — NULLs on both sides, INT/FLOAT Equal
// classes, NaN, singleton covers with MinSupport 1, the pattern cap — at the
// depth the legacy miner was compared at and at depth 3.
func TestLatticeMatchesLegacyAdversarial(t *testing.T) {
	cases := []struct {
		name    string
		attrs   []string
		rows    [][]string
		support int
		maxLHS  int
	}{
		{
			name:  "nulls",
			attrs: []string{"A", "B", "C"},
			rows: [][]string{
				{"x", "", "1"}, {"x", "", "1"}, {"y", "p", "2"},
				{"y", "p", "2"}, {"", "q", "3"}, {"", "q", "3"},
			},
			support: 2, maxLHS: 2,
		},
		{
			name:  "numeric-equal-classes",
			attrs: []string{"A", "B"},
			rows: [][]string{
				{"1", "x"}, {"1.0", "x"}, {"2", "y"}, {"2.0", "y"}, {"3", "z"},
			},
			support: 2, maxLHS: 1,
		},
		{
			name:  "min-support-one",
			attrs: []string{"A", "B", "C"},
			rows: [][]string{
				{"a", "1", "p"}, {"b", "1", "p"}, {"c", "2", "q"}, {"d", "2", "q"},
			},
			support: 1, maxLHS: 2,
		},
		{
			name:  "pattern-cap",
			attrs: []string{"A", "B"},
			rows: [][]string{
				// Many conditional values for A so MaxPatternsPerFD bites.
				{"a1", "1"}, {"a1", "1"}, {"a2", "2"}, {"a2", "2"},
				{"a3", "3"}, {"a3", "3"}, {"a4", "4"}, {"a4", "4"},
				{"a5", "5"}, {"a5", "5"}, {"a6", "6"}, {"a6", "6"},
				{"a7", "7"}, {"a7", "7"}, {"a8", "8"}, {"a8", "8"},
				{"a9", "9"}, {"a9", "9"}, {"a9", "99"},
			},
			support: 2, maxLHS: 1,
		},
		{
			// Key order is not numeric order (10 < 2 < 9 as text), NaN and
			// 1 / 1.0 are one class each, and D is wide enough for depth 3.
			name:  "nan-and-key-order",
			attrs: []string{"A", "B", "C", "D"},
			rows: [][]string{
				{"10", "NaN", "u", "1"}, {"10", "NaN", "u", "1.0"}, {"2", "NaN", "v", "1"},
				{"2", "nan", "v", "2"}, {"9", "", "u", ""}, {"9", "", "u", ""},
				{"9", "k", "w", "3"}, {"10", "k", "w", "3"}, {"2", "k", "u", "4"},
			},
			support: 2, maxLHS: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap := mkTable(t, tc.attrs, tc.rows).Snapshot()
			for _, depth := range []int{tc.maxLHS, 3} {
				mineBothWays(t, snap, Options{MinSupport: tc.support, MaxLHS: depth, MaxPatternsPerFD: 3})
			}
		})
	}
}

// TestConstantMinimalityIsTransitive pins the depth-3 pruning fix: D=d is
// constant over the cover of {A=a}, so [A=a] -> [D=d] is emitted at depth
// 1 and every superset rule is redundant. The depth-2 supersets ({A=a,B=b}
// and {A=a,C=c}) are pruned without being emitted; the pruning must still
// mark them, or the depth-3 itemset {A=a,B=b,C=c} — whose only emitted
// ancestor is two levels up — would re-emit the rule.
func TestConstantMinimalityIsTransitive(t *testing.T) {
	tab := mkTable(t, []string{"A", "B", "C", "D"}, [][]string{
		{"a", "b", "c", "d"},
		{"a", "b", "c", "d"},
		{"a", "b", "c", "d"},
		// Breaks D-constancy over the {B=b}, {C=c} and {B=b,C=c} covers,
		// so no depth-1 or depth-2 rule from B/C hides the defect.
		{"x", "b", "c", "e"},
		{"x", "b", "c", "e"},
	})
	rep, _ := mineBothWays(t, tab.Snapshot(), Options{MinSupport: 2, MaxLHS: 3})
	for _, c := range rep.Candidates {
		if c.Kind != "constant" || c.CFD.RHS[0] != "D" {
			continue
		}
		if len(c.CFD.LHS) > 1 && slices.Contains(c.CFD.LHS, "A") {
			t.Errorf("non-minimal constant rule emitted: %s", c.CFD)
		}
	}
}

// TestLatticeMinimalAtDepth3 closes the gap the legacy miner left: past
// depth 2 its pruning was not transitive, so the lattice could only be shown
// to be a subset of it. Against the definition the lattice must be exactly
// the minimal set — nothing redundant, nothing missing — on clean and noisy
// seeds.
func TestLatticeMinimalAtDepth3(t *testing.T) {
	for _, tc := range []struct {
		seed  int64
		noise float64
	}{{11, 0}, {12, 0.02}, {13, 0.10}} {
		ds := datagen.Generate(datagen.Config{Tuples: 1000, Seed: tc.seed, NoiseRate: tc.noise})
		rep, _ := mineBothWays(t, ds.Dirty.Snapshot(), Options{MinSupport: 25, MaxLHS: 3})
		deep := 0
		for _, c := range rep.Candidates {
			if len(c.CFD.LHS) == 3 {
				deep++
			}
		}
		// On the clean seed nothing is minimal at depth 3, and the definition
		// confirms that nothing is; the noisy seeds must exercise the depth.
		if deep == 0 && tc.noise > 0 {
			t.Errorf("seed %d: no depth-3 rule mined; the check is vacuous", tc.seed)
		}
	}
}

// TestLatticeMatchesDefinitionApproximate runs the cross-check where the
// legacy miner could not follow: below confidence 1 (it ignored
// MinConfidence) and with the pattern cap at its tightest and at its
// default, so the g3 fractions and which conditions the cap keeps are both
// compared.
func TestLatticeMatchesDefinitionApproximate(t *testing.T) {
	ds := datagen.Generate(datagen.Config{Tuples: 600, Seed: 17, NoiseRate: 0.2})
	snap := ds.Dirty.Snapshot()
	approx := map[string]int{}
	for _, conf := range []float64{0.8, 0.95} {
		for _, patterns := range []int{1, 8} {
			rep, _ := mineBothWays(t, snap, Options{
				MinSupport: 12, MaxLHS: 2, MinConfidence: conf, MaxPatternsPerFD: patterns,
			})
			for _, c := range rep.Candidates {
				if c.Confidence < 1 {
					approx[c.Kind]++
				}
			}
		}
	}
	if approx["global-fd"] == 0 || approx["conditional-fd"] == 0 {
		t.Errorf("approximate candidates admitted: %v; the check needs both FD kinds", approx)
	}
}

// fuzzAlphabet holds internal/oracle's adversarial representations (that
// package imports this one, so the values are repeated here): INT 1 and
// FLOAT 1.0 are Equal but not identical, NaN is its own class, NULL never
// conditions a rule.
var fuzzAlphabet = []types.Value{
	types.NewInt(1), types.NewFloat(1.0), types.Null, types.NewFloat(math.NaN()),
	types.NewString("a"), types.NewString("b"), types.NewInt(10), types.NewInt(2),
}

// FuzzMineDefinition decodes bytes into a table of at most 6 attributes and
// 64 rows plus a set of thresholds, and requires lattice == definition on
// it; every rule mined at confidence 1 must also have no violation, by
// definition, on the snapshot it was mined from.
func FuzzMineDefinition(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 2, 0, 1, 2, 1, 0, 3, 1, 0, 3})
	f.Add([]byte{2, 9, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3})
	f.Add([]byte{4, 22, 2, 3, 3, 3, 1, 1, 2, 3, 3, 3, 0, 1, 3, 2, 2, 2, 0, 0, 3, 2, 2, 2, 1, 0})
	f.Add([]byte{0, 5, 0, 0, 1, 0, 0, 1, 1, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		arity := 2 + int(data[0])%5
		opts := Options{
			MinSupport:       1 + int(data[1])%3,
			MaxLHS:           1 + int(data[1]>>2)%3,
			MaxPatternsPerFD: []int{1, 3, 8}[int(data[1]>>4)%3],
			MinConfidence:    []float64{1, 0.8, 0.95, 1}[data[1]>>6],
		}
		attrs := []string{"A", "B", "C", "D", "E", "F"}[:arity]
		tab := relstore.NewTable(schema.New("r", attrs...))
		cells := data[2:]
		for r := 0; r < 64 && (r+1)*arity <= len(cells); r++ {
			row := make(relstore.Tuple, arity)
			for j := range row {
				// Column j draws from 2+j values, rotated so each column meets
				// a different part of the alphabet.
				row[j] = fuzzAlphabet[(int(cells[r*arity+j])%(2+j)+j)%len(fuzzAlphabet)]
			}
			tab.MustInsert(row)
		}
		snap := tab.Snapshot()
		rep, _ := mineBothWays(t, snap, opts)
		var exact []*cfd.CFD
		for i, c := range rep.Candidates {
			if c.Confidence == 1 {
				one := c.CFD.Clone()
				one.ID = fmt.Sprintf("m%d", i)
				exact = append(exact, one)
			}
		}
		if vio, _ := cfddef.Check(snap, exact); len(vio) != 0 {
			t.Fatalf("rules mined at confidence 1 are violated on their own snapshot: vio = %v", vio)
		}
	})
}
