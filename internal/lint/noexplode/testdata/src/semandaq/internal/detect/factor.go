// Package detect is a fixture stub: the factorised report surface the
// noexplode rule keys on, plus in-package hot loops exercising it.
package detect

// Report is the exploded legacy shape.
type Report struct{}

// FactorGroup is one factorised violation group.
type FactorGroup struct{}

// MemberAt is the factorised accessor loops should use.
func (g *FactorGroup) MemberAt(i int) int { return i }

// FactorReport is the factorised report.
type FactorReport struct {
	FactorGroups []*FactorGroup
}

// Explode materializes the full legacy report — the compatibility shim.
func (fr *FactorReport) Explode() *Report { return &Report{} }

// shim is the allowed shape: a one-shot explode outside any loop.
func shim(fr *FactorReport) *Report {
	return fr.Explode()
}

// hotLoop pays the exploded cost once per iteration: flagged, also when
// the loop is nested.
func hotLoop(frs []*FactorReport) {
	for _, fr := range frs {
		_ = fr.Explode() // want `FactorReport\.Explode\(\) inside a loop of a factorised hot path`
		for range fr.FactorGroups {
			_ = fr.Explode() // want `FactorReport\.Explode\(\) inside a loop of a factorised hot path`
		}
	}
}

// factorisedLoop consumes the groups through the accessors: clean.
func factorisedLoop(fr *FactorReport) int {
	n := 0
	for i, g := range fr.FactorGroups {
		n += g.MemberAt(i)
	}
	return n
}
