package callgraph_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"testing"

	"semandaq/internal/lint/analysis"
	"semandaq/internal/lint/callgraph"
)

const src = `package cg

type Doer interface{ Do() }

type T struct{}

func (T) Do() { helper() }

type U struct{}

func (*U) Do() {}

func helper() {}

func direct() { helper() }

func viaIface(d Doer) { d.Do() }

func viaValue(f func()) { f() } // unresolvable: no edges
`

// load type-checks src as a standalone package (no imports needed).
func load(t *testing.T) (*token.FileSet, []*ast.File, *types.Package, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cg.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	pkg, err := (&types.Config{}).Check("cg", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}, pkg, info
}

func TestCallees(t *testing.T) {
	fset, files, pkg, info := load(t)
	store := analysis.NewFactStore()
	analysis.RegisterFactTypes(callgraph.Analyzer)
	if _, err := analysis.RunPass(callgraph.Analyzer, fset, files, pkg, info, store, nil); err != nil {
		t.Fatal(err)
	}
	pass := analysis.NewPass(callgraph.Analyzer, fset, files, pkg, info, store, nil)
	got := map[string][]string{}
	for _, fi := range callgraph.Functions(files, info) {
		key := fi.Key
		var fact callgraph.Callees
		if !pass.ImportFactByKey(key, &fact) {
			t.Fatalf("no Callees fact for %s", key)
		}
		var callees []string
		for _, ck := range fact.Keys {
			callees = append(callees, ck.String())
		}
		sort.Strings(callees)
		got[key.String()] = callees
	}
	want := map[string][]string{
		"cg.(T).Do":   {"cg.helper"},
		"cg.(U).Do":   nil,
		"cg.direct":   {"cg.helper"},
		"cg.helper":   nil,
		"cg.viaIface": {"cg.(T).Do", "cg.(U).Do"}, // interface call over-approximated by implementers
		"cg.viaValue": nil,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("callees:\n got %v\nwant %v", got, want)
	}
}
