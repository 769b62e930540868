// Package callgraph builds the module-wide static call graph every
// interprocedural analyzer shares. For each declared function or method of
// a package it exports a Callees fact — the set of in-module functions the
// body may call:
//
//   - direct calls to package-level functions;
//   - method calls resolved by the concrete receiver type;
//   - interface method calls, over-approximated by the matching method of
//     every in-module type implementing the interface (among the packages
//     visible at the call site: the current package and its transitive
//     imports).
//
// Calls through function values (callbacks, stored closures) are not
// resolvable statically and are omitted (lockorder lists them among its
// blind spots).
//
// The pass reports no diagnostics; it exists for its facts and for the
// resolution helpers (Resolver, Functions) the downstream analyzers reuse.
package callgraph

import (
	"go/ast"
	"go/types"
	"strings"

	"semandaq/internal/lint/analysis"
)

// ModulePrefix gates which callees enter the graph: the module's own
// packages (facts only exist for those) plus whatever package is currently
// under analysis (so analysistest fixtures with short import paths still
// see their intra-package edges).
const ModulePrefix = "semandaq"

// Callees is the fact: the in-module functions a function may call.
type Callees struct {
	Keys []analysis.ObjKey
}

// AFact marks Callees as a fact.
func (*Callees) AFact() {}

// Analyzer is the callgraph pass.
var Analyzer = &analysis.Analyzer{
	Name:      "callgraph",
	Doc:       "build the module-wide static call graph (facts only, no diagnostics)",
	Run:       run,
	FactTypes: []analysis.Fact{(*Callees)(nil)},
}

func run(pass *analysis.Pass) error {
	res := NewResolver(pass.Pkg)
	for _, fi := range Functions(pass.Files, pass.TypesInfo) {
		seen := map[analysis.ObjKey]bool{}
		var keys []analysis.ObjKey
		add := func(fn *types.Func) {
			if !inModule(fn, pass.Pkg) {
				return
			}
			if key, ok := analysis.KeyOf(fn); ok && !seen[key] {
				seen[key] = true
				keys = append(keys, key)
			}
		}
		ast.Inspect(fi.Decl, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			static, ifaceMethod := Resolve(pass.TypesInfo, call)
			if static != nil {
				add(static)
			}
			if ifaceMethod != nil {
				for _, impl := range res.Implementations(ifaceMethod) {
					add(impl)
				}
			}
			return true
		})
		if err := pass.ExportFactByKey(fi.Key, &Callees{Keys: keys}); err != nil {
			return err
		}
	}
	return nil
}

// inModule reports whether fn belongs to the module (or to the package
// under analysis itself — fixture packages use short paths).
func inModule(fn *types.Func, cur *types.Package) bool {
	p := fn.Pkg()
	if p == nil {
		return false
	}
	return p == cur || p.Path() == ModulePrefix || strings.HasPrefix(p.Path(), ModulePrefix+"/")
}

// FuncInfo pairs one declared function or method with its fact key.
type FuncInfo struct {
	Key  analysis.ObjKey
	Fn   *types.Func
	Decl *ast.FuncDecl
}

// Functions lists the declared functions and methods of a package's files
// (bodies present), in file order.
func Functions(files []*ast.File, info *types.Info) []FuncInfo {
	var out []FuncInfo
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			key, ok := analysis.KeyOf(fn)
			if !ok {
				continue
			}
			out = append(out, FuncInfo{Key: key, Fn: fn, Decl: fd})
		}
	}
	return out
}

// Resolve classifies a call expression: static is the *types.Func the call
// resolves to when the callee is a package-level function or a method on a
// concrete receiver; ifaceMethod is the interface method when the call
// dispatches through an interface. At most one of the two is non-nil.
func Resolve(info *types.Info, call *ast.CallExpr) (static, ifaceMethod *types.Func) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		fn, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok {
			return nil, nil
		}
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if types.IsInterface(sel.Recv()) {
				return nil, fn
			}
		}
		return fn, nil
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn, nil
		}
	}
	return nil, nil
}

// Resolver enumerates in-module implementations of interface methods. The
// universe is the analyzed package plus its transitive imports, filtered to
// the module — the packages whose facts can exist at this point of the
// import-DAG walk.
type Resolver struct {
	pkg      *types.Package
	universe []*types.Named
	built    bool
	cache    map[*types.Func][]*types.Func
}

// NewResolver builds a resolver for the package under analysis.
func NewResolver(pkg *types.Package) *Resolver {
	return &Resolver{pkg: pkg, cache: map[*types.Func][]*types.Func{}}
}

func (r *Resolver) buildUniverse() {
	if r.built {
		return
	}
	r.built = true
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		if p == r.pkg || p.Path() == ModulePrefix || strings.HasPrefix(p.Path(), ModulePrefix+"/") {
			scope := p.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				named, ok := tn.Type().(*types.Named)
				if !ok || types.IsInterface(named) {
					continue
				}
				r.universe = append(r.universe, named)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	visit(r.pkg)
}

// Implementations returns the concrete methods that an interface method
// call may dispatch to, among the in-module types visible from the
// analyzed package.
func (r *Resolver) Implementations(m *types.Func) []*types.Func {
	if impls, ok := r.cache[m]; ok {
		return impls
	}
	r.buildUniverse()
	var iface *types.Interface
	if sig, ok := m.Type().(*types.Signature); ok && sig.Recv() != nil {
		iface, _ = sig.Recv().Type().Underlying().(*types.Interface)
	}
	var impls []*types.Func
	if iface != nil {
		for _, named := range r.universe {
			var recv types.Type = named
			if !types.Implements(recv, iface) {
				recv = types.NewPointer(named)
				if !types.Implements(recv, iface) {
					continue
				}
			}
			obj, _, _ := types.LookupFieldOrMethod(recv, true, named.Obj().Pkg(), m.Name())
			if fn, ok := obj.(*types.Func); ok {
				impls = append(impls, fn)
			}
		}
	}
	r.cache[m] = impls
	return impls
}
