package cfd

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// FuzzParseCFDSet feeds arbitrary text to ParseSet. It must never panic,
// and every set it accepts must print back — one "id@ " line per pattern,
// the form the CLI prints a mined set in — to text that ParseSet reads as
// the same set: the same IDs, tables, embedded FDs and tableaux, every
// constant Equal to the original and of the same Kind. The seed corpus is
// in testdata/fuzz/FuzzParseCFDSet.
func FuzzParseCFDSet(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		cfds, err := ParseSet(text)
		if err != nil {
			return
		}
		printed := printSet(cfds)
		back, err := ParseSet(printed)
		if err != nil {
			t.Fatalf("printed set does not parse: %v\n%s", err, printed)
		}
		if len(back) != len(cfds) {
			t.Fatalf("%d CFDs print as %d:\n%s", len(cfds), len(back), printed)
		}
		for i, c := range cfds {
			if err := sameCFD(c, back[i]); err != nil {
				t.Fatalf("CFD %d does not round-trip: %v\nprinted:\n%s", i, err, printed)
			}
		}
	})
}

// printSet renders a parsed set as ParseSet input, each pattern line
// prefixed with its CFD's ID.
func printSet(cfds []*CFD) string {
	var b strings.Builder
	for _, c := range cfds {
		for _, line := range strings.Split(c.String(), "\n") {
			fmt.Fprintf(&b, "%s@ %s\n", c.ID, line)
		}
	}
	return b.String()
}

// sameCFD reports how b differs from a, constant kinds included.
func sameCFD(a, b *CFD) error {
	switch {
	case a.ID != b.ID:
		return fmt.Errorf("ID %q became %q", a.ID, b.ID)
	case a.Table != b.Table || !slices.Equal(a.LHS, b.LHS) || !slices.Equal(a.RHS, b.RHS):
		return fmt.Errorf("%s: %v -> %v became %s: %v -> %v", a.Table, a.LHS, a.RHS, b.Table, b.LHS, b.RHS)
	case len(a.Tableau) != len(b.Tableau):
		return fmt.Errorf("%d patterns became %d", len(a.Tableau), len(b.Tableau))
	}
	for i, pt := range a.Tableau {
		got := slices.Concat(b.Tableau[i].LHS, b.Tableau[i].RHS)
		for j, p := range slices.Concat(pt.LHS, pt.RHS) {
			q := got[j]
			if p.Wildcard != q.Wildcard || !p.Wildcard && (p.Const.Kind() != q.Const.Kind() || !p.Const.Equal(q.Const)) {
				return fmt.Errorf("pattern %d cell %d: %s %q became %s %q", i, j, p.Const.Kind(), p, q.Const.Kind(), q)
			}
		}
	}
	return nil
}
