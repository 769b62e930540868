// Package lint registers semandaq's custom analyzers: the static checks of
// the lock contract that no dynamic gate catches. Deadlocks do not show
// under -race, so lockorder and lockdiscipline hold the lock hierarchy.
// Rules a committed test already fails on when broken — every storage write
// bumps the version, every report names its version, hot loops stay
// factorised, row-scale work polls its context and every caller forwards
// it — are held by those tests instead (docs/INVARIANTS.md lists each with
// its gate). cmd/semandaq-vet runs the analyzers; each analyzer
// package documents and tests its own rule.
package lint

import (
	"semandaq/internal/lint/analysis"
	"semandaq/internal/lint/lockdiscipline"
	"semandaq/internal/lint/lockorder"
)

// All returns every registered analyzer, in stable order. The callgraph
// pass is not listed: it reports nothing and is pulled in through the
// interprocedural analyzers' Requires when analysis.Plan expands the run.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		lockorder.Analyzer,
		lockdiscipline.Analyzer,
	}
}
