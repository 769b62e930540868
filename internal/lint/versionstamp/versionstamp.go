// Package versionstamp enforces the versioned-report contract from PR 4:
// the exported Report / Result / FactorReport / Digest structs of the
// read-path packages (detect, audit, discovery, sqleng) must carry a
// Version (or per-table Versions) field, and every construction site must stamp it — either in the
// composite literal itself or by an explicit assignment in the same
// function. A report that does not name the snapshot version it reflects
// is unverifiable against concurrent writers.
package versionstamp

import (
	"go/ast"
	"go/token"
	"go/types"

	"semandaq/internal/lint/analysis"
)

// StampedPackages lists the import paths whose Report/Result types are
// under contract.
var StampedPackages = map[string]bool{
	"semandaq/internal/detect":    true,
	"semandaq/internal/audit":     true,
	"semandaq/internal/discovery": true,
	"semandaq/internal/sqleng":    true,
}

// stampedNames are the struct type names under contract.
var stampedNames = map[string]bool{"Report": true, "Result": true, "FactorReport": true, "Digest": true}

// versionFields are the accepted stamp field names: Version for a single
// pinned snapshot, Versions for the SQL engine's per-base-table map.
var versionFields = map[string]bool{"Version": true, "Versions": true}

// Analyzer is the versionstamp check.
var Analyzer = &analysis.Analyzer{
	Name: "versionstamp",
	Doc: "require a Version field on detect/audit/discovery/sqleng " +
		"Report and Result structs, stamped at every construction site",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if StampedPackages[pass.Pkg.Path()] {
		checkDeclarations(pass)
	}
	checkLiterals(pass)
	return nil
}

// checkDeclarations verifies that every contract struct declared in this
// package carries a version field at all.
func checkDeclarations(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				if !stampedNames[ts.Name.Name] {
					continue
				}
				obj, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				if versionField(st) == "" {
					pass.Reportf(ts.Name.Pos(),
						"%s.%s must carry a Version (or Versions) field naming the snapshot version it reflects",
						pass.Pkg.Name(), ts.Name.Name)
				}
			}
		}
	}
}

// versionField returns the stamp field name of st, or "".
func versionField(st *types.Struct) string {
	for i := 0; i < st.NumFields(); i++ {
		if name := st.Field(i).Name(); versionFields[name] {
			return name
		}
	}
	return ""
}

// contractType resolves t to (named type, stamp field) if t is a contract
// struct that has a version field; otherwise ok is false.
func contractType(t types.Type) (named *types.Named, field string, ok bool) {
	n, isNamed := analysis.Deref(t).(*types.Named)
	if !isNamed {
		return nil, "", false
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil ||
		!StampedPackages[obj.Pkg().Path()] || !stampedNames[obj.Name()] {
		return nil, "", false
	}
	st, isStruct := n.Underlying().(*types.Struct)
	if !isStruct {
		return nil, "", false
	}
	f := versionField(st)
	if f == "" {
		// The declaration check already reports the missing field.
		return nil, "", false
	}
	return n, f, true
}

// checkLiterals flags composite literals of contract types that neither
// set the version field in the literal nor assign it later in the same
// function.
func checkLiterals(pass *analysis.Pass) {
	for _, f := range pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			cl, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[cl]
			if !ok {
				return true
			}
			named, field, ok := contractType(tv.Type)
			if !ok {
				return true
			}
			if literalStamps(cl, named, field) {
				return true
			}
			if assignsFieldLater(pass, stack, named, field) {
				return true
			}
			pass.Reportf(cl.Pos(),
				"%s.%s constructed without stamping %s: set it in the literal or assign it before the value escapes",
				named.Obj().Pkg().Name(), named.Obj().Name(), field)
			return true
		})
	}
}

// literalStamps reports whether the literal itself sets the version field:
// either as a keyed element or as a full positional literal.
func literalStamps(cl *ast.CompositeLit, named *types.Named, field string) bool {
	st := named.Underlying().(*types.Struct)
	keyed := false
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		keyed = true
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == field {
			return true
		}
	}
	// A full positional literal sets every field, the stamp included.
	return !keyed && len(cl.Elts) == st.NumFields() && len(cl.Elts) > 0
}

// assignsFieldLater reports whether the function enclosing the literal
// contains an assignment to the stamp field of the same contract type
// (e.g. res.Versions = qp.versions() after the literal).
func assignsFieldLater(pass *analysis.Pass, stack []ast.Node, named *types.Named, field string) bool {
	var body *ast.BlockStmt
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		}
		if body != nil {
			break
		}
	}
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || found {
			return !found
		}
		for _, lhs := range as.Lhs {
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != field {
				continue
			}
			base := pass.TypesInfo.Types[sel.X].Type
			if base == nil {
				continue
			}
			if bn, _, ok := contractType(base); ok && bn.Obj() == named.Obj() {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
