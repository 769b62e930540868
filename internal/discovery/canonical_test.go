package discovery

import (
	"fmt"
	"sort"
	"strings"

	"semandaq/internal/cfd"
)

// CanonicalRules renders a CFD set as a sorted list of per-pattern strings
// — table, LHS attributes with their pattern cells, RHS attribute with its
// cell — so two rule sets can be compared for semantic identity regardless of
// rule IDs, tableau merging or emission order: the rendering the lattice
// miner and the definitional reference (internal/cfddef) are compared in.
func CanonicalRules(cfds []*cfd.CFD) []string {
	var out []string
	for _, c := range cfds {
		for _, pt := range c.Tableau {
			var b strings.Builder
			b.WriteString(strings.ToLower(c.Table))
			b.WriteString(":[")
			for i, a := range c.LHS {
				if i > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "%s=%s", a, pt.LHS[i])
			}
			fmt.Fprintf(&b, "] -> [%s=%s]", c.RHS[0], pt.RHS[0])
			out = append(out, b.String())
		}
	}
	sort.Strings(out)
	return out
}
