// Package lint registers semandaq's custom analyzers: the machine-checked
// versions of the snapshot/version/context contract that PRs 3-5
// established by convention. cmd/semandaq-vet runs them; each analyzer
// package documents and tests its own rule. docs/INVARIANTS.md is the
// human-readable index of what they enforce and why.
package lint

import (
	"semandaq/internal/lint/analysis"
	"semandaq/internal/lint/ctxflow"
	"semandaq/internal/lint/ctxloop"
	"semandaq/internal/lint/lockdiscipline"
	"semandaq/internal/lint/lockorder"
	"semandaq/internal/lint/mutationlog"
	"semandaq/internal/lint/noexplode"
	"semandaq/internal/lint/versionstamp"
)

// All returns every registered analyzer, in stable order. The callgraph
// pass is not listed: it reports nothing and is pulled in through the
// interprocedural analyzers' Requires when analysis.Plan expands the run.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		versionstamp.Analyzer,
		ctxloop.Analyzer,
		lockdiscipline.Analyzer,
		noexplode.Analyzer,
		lockorder.Analyzer,
		mutationlog.Analyzer,
		ctxflow.Analyzer,
	}
}
