// Package noexplode guards the factorised-report contract from PR 10: the
// detection, audit and repair packages consume violation groups in their
// factorised form (FactorGroup refs + RHS histograms), and the exploding
// compatibility surface — FactorReport.Explode, which materializes the
// full per-tuple legacy report — exists only as a one-shot bridge for
// callers that still need the legacy shape. Calling it inside a loop of a
// hot package reintroduces exactly the O(members) (or O(groups x members))
// cost the factorisation removed, silently, at the call site hardest to
// spot in review.
//
// The rule is lexical and package-scoped: inside semandaq/internal/detect,
// internal/audit and internal/repair, no Explode call may appear within a
// for or range statement. Top-level one-shot calls (the
// compatibility shims themselves) are allowed; a deliberate in-loop use
// carries a //semandaq:vet-ignore noexplode directive with a reason.
package noexplode

import (
	"go/ast"
	"go/token"
	"go/types"

	"semandaq/internal/lint/analysis"
)

// hotPkgs are the packages whose loops must stay factorised.
var hotPkgs = map[string]bool{
	"semandaq/internal/detect": true,
	"semandaq/internal/audit":  true,
	"semandaq/internal/repair": true,
}

// exploders maps the per-member materializing methods of the factorised
// report types to the accessor callers should use instead.
var exploders = map[[2]string]string{
	{"FactorReport", "Explode"}: "keep the report factorised or hoist the one-shot explode out of the loop",
}

// Analyzer is the noexplode check.
var Analyzer = &analysis.Analyzer{
	Name: "noexplode",
	Doc: "forbid FactorReport.Explode inside loops of the detect/audit/repair " +
		"hot paths; the factorised form must survive hot loops",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !hotPkgs[pass.Pkg.Path()] {
		return nil
	}
	seen := map[token.Pos]bool{} // nested loops visit a call twice
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				body = loop.Body
			default:
				return true
			}
			ast.Inspect(body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := analysis.CalleeFunc(pass.TypesInfo, call)
				if fn == nil || seen[call.Pos()] {
					return true
				}
				recv, hint, ok := exploder(fn)
				if !ok {
					return true
				}
				seen[call.Pos()] = true
				pass.Reportf(call.Pos(),
					"%s.%s() inside a loop of a factorised hot path: %s",
					recv, fn.Name(), hint)
				return true
			})
			return true
		})
	}
	return nil
}

// exploder reports whether fn is one of the materializing methods, and if
// so returns its receiver type name and the remediation hint.
func exploder(fn *types.Func) (recv, hint string, ok bool) {
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", "", false
	}
	named, isNamed := analysis.Deref(sig.Recv().Type()).(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "semandaq/internal/detect" {
		return "", "", false
	}
	hint, ok = exploders[[2]string{obj.Name(), fn.Name()}]
	return obj.Name(), hint, ok
}
