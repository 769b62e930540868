// Package mutationlog enforces the relstore mutation-epilogue contract the
// O(delta) fold depends on: every code path that writes a Table's storage —
// its column lineage (base) or its write overlay (over, vals, order) — must
// reach noteMutationLocked before the table lock is released or the
// function returns. A write that escapes the epilogue leaves the cached
// snapshot and the version counter stale: the next read serves the old
// version without folding the write, which silently corrupts every
// incremental consumer downstream.
//
// The one writer exempt is the fold itself (foldLocked): it moves the
// overlay into a new lineage member at the same version, changing where the
// data lives but not what it is, so a version bump there would be wrong.
//
// The analysis is scoped to semandaq/internal/relstore (the only package
// allowed to touch Table storage directly — touchstore guards the rest of
// the module). Within it, the walk is path-sensitive: a write to a guarded
// field (an assignment, or delete/copy/clear on it) sets a "pending" bit, a
// direct noteMutationLocked call (or a deferred one) clears it, and a
// return or a Table-mutex Unlock with the bit still set is a finding.
// Calls to same-package functions propagate pending-ness through MutFact
// summaries, so a helper that mutates without noting taints its callers
// too — the caller must note after the helper, or the helper must note
// itself.
package mutationlog

import (
	"go/ast"
	"go/types"

	"semandaq/internal/lint/analysis"
	"semandaq/internal/lint/callgraph"
)

// RelstorePath is the package this contract governs. Fixture packages use
// the same import path so the analyzer sees the real shape.
const RelstorePath = "semandaq/internal/relstore"

// noteMethod is the mutation epilogue every storage write must reach.
const noteMethod = "noteMutationLocked"

// foldMethod is the Table method whose storage writes need no note: the
// overlay fold, which preserves the table's content and version.
const foldMethod = "foldLocked"

// guardedFields are the Table fields whose writes must be logged: the
// lineage pointer and the overlay.
var guardedFields = map[string]bool{"base": true, "over": true, "vals": true, "order": true}

// MutFact summarizes a function for its callers: WritesPending means some
// path through the function can end (return) with a storage write not
// yet noted, so the caller inherits the logging obligation.
type MutFact struct {
	WritesPending bool
}

// AFact marks MutFact as a fact.
func (*MutFact) AFact() {}

// Analyzer is the mutationlog check.
var Analyzer = &analysis.Analyzer{
	Name: "mutationlog",
	Doc: "require every relstore function that writes Table storage (base, " +
		"over, vals, order) to reach noteMutationLocked before the table lock " +
		"is released or the function returns",
	Run:       run,
	Requires:  []*analysis.Analyzer{callgraph.Analyzer},
	FactTypes: []analysis.Fact{(*MutFact)(nil)},
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() != RelstorePath {
		return nil
	}
	pa := &pkgAnalysis{
		pass:      pass,
		decls:     map[analysis.ObjKey]callgraph.FuncInfo{},
		summaries: map[analysis.ObjKey]bool{},
		inflight:  map[analysis.ObjKey]bool{},
	}
	fns := callgraph.Functions(pass.Files, pass.TypesInfo)
	for _, fi := range fns {
		pa.decls[fi.Key] = fi
	}
	for _, fi := range fns {
		pa.summarize(fi.Key)
	}
	return nil
}

type pkgAnalysis struct {
	pass      *analysis.Pass
	decls     map[analysis.ObjKey]callgraph.FuncInfo
	summaries map[analysis.ObjKey]bool // WritesPending per function
	inflight  map[analysis.ObjKey]bool
}

// summarize walks one function (memoized), reports its violations, and
// returns whether it can end with an unlogged write.
func (pa *pkgAnalysis) summarize(key analysis.ObjKey) bool {
	if wp, ok := pa.summaries[key]; ok {
		return wp
	}
	if pa.inflight[key] {
		return false // recursion: optimistic, the outer walk still checks
	}
	fi, ok := pa.decls[key]
	if !ok {
		return false
	}
	pa.inflight[key] = true
	w := &walker{pa: pa, fi: fi, bases: paramBases(pa.pass.TypesInfo, fi.Decl)}
	if recv := methodRecvType(fi.Fn); recv != nil && isTable(recv) && fi.Fn.Name() == foldMethod {
		w.bases = nil // the fold's writes move data, they do not change it
	}
	exit := w.stmts(fi.Decl.Body.List, state{})
	pending := exit.pending && !w.deferredNote
	if !exit.terminated && pending {
		// Report at the declaration: the defect is the function's shape (no
		// epilogue on the implicit return), and a suppression directive above
		// the func line can cover it.
		pa.pass.Reportf(fi.Decl.Name.Pos(),
			"%s writes Table storage but falls off the end without calling %s",
			fi.Fn.Name(), noteMethod)
	}
	delete(pa.inflight, key)
	wp := pending || w.pendingReturn
	pa.summaries[key] = wp
	if wp {
		if err := pa.pass.ExportFactByKey(key, &MutFact{WritesPending: true}); err != nil {
			panic(err)
		}
	}
	return wp
}

// writesPendingOf resolves a callee's summary: same-package via the
// memoized walk, cross-package via the exported fact.
func (pa *pkgAnalysis) writesPendingOf(fn *types.Func) bool {
	key, ok := analysis.KeyOf(fn)
	if !ok {
		return false
	}
	if fn.Pkg() == pa.pass.Pkg {
		return pa.summarize(key)
	}
	var fact MutFact
	if pa.pass.ImportFactByKey(key, &fact) {
		return fact.WritesPending
	}
	return false
}

// paramBases collects the variables through which guarded writes count:
// the receiver and any parameter of type (*)Table. Writes through locals
// (e.g. a fresh NewTable() clone being populated) carry no obligation —
// nothing observes the new table until it is published.
func paramBases(info *types.Info, decl *ast.FuncDecl) map[types.Object]bool {
	bases := map[types.Object]bool{}
	addField := func(f *ast.Field) {
		for _, name := range f.Names {
			if obj := info.Defs[name]; obj != nil && isTable(obj.Type()) {
				bases[obj] = true
			}
		}
	}
	if decl.Recv != nil {
		for _, f := range decl.Recv.List {
			addField(f)
		}
	}
	if decl.Type.Params != nil {
		for _, f := range decl.Type.Params.List {
			addField(f)
		}
	}
	return bases
}

func isTable(t types.Type) bool {
	return analysis.IsNamed(t, RelstorePath, "Table")
}

// state is the per-path walk state.
type state struct {
	pending    bool // a guarded write has happened and is not yet noted
	terminated bool // the path ended (return)
}

func merge(a, b state) state {
	if a.terminated {
		return b
	}
	if b.terminated {
		return a
	}
	return state{pending: a.pending || b.pending}
}

type walker struct {
	pa            *pkgAnalysis
	fi            callgraph.FuncInfo
	bases         map[types.Object]bool
	deferredNote  bool // a defer guarantees noteMutationLocked at every return
	pendingReturn bool // some return was reached with pending set
}

func (w *walker) stmts(list []ast.Stmt, st state) state {
	for _, s := range list {
		st = w.stmt(s, st)
		if st.terminated {
			break
		}
	}
	return st
}

func (w *walker) stmt(s ast.Stmt, st state) state {
	switch s := s.(type) {
	case *ast.ExprStmt:
		return w.expr(s.X, st)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			st = w.expr(rhs, st)
		}
		for _, lhs := range s.Lhs {
			st = w.expr(lhs, st)
			if w.guardedWrite(lhs) {
				st.pending = true
			}
		}
		return st
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			st = w.expr(r, st)
		}
		if st.pending && !w.deferredNote {
			w.pendingReturn = true
			w.pa.pass.Reportf(s.Pos(),
				"%s returns with an unlogged Table mutation: call %s before returning",
				w.fi.Fn.Name(), noteMethod)
		}
		return state{terminated: true}
	case *ast.DeferStmt:
		if w.isNoteCall(s.Call) {
			w.deferredNote = true
			return st
		}
		// Deferred unlocks run at return, after any deferred note; other
		// deferred calls contribute no ordered events we can track.
		return st
	case *ast.GoStmt:
		return st
	case *ast.BlockStmt:
		return w.stmts(s.List, st)
	case *ast.IfStmt:
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		st = w.expr(s.Cond, st)
		then := w.stmts(s.Body.List, st)
		els := st
		if s.Else != nil {
			els = w.stmt(s.Else, st)
		}
		return merge(then, els)
	case *ast.ForStmt:
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		if s.Cond != nil {
			st = w.expr(s.Cond, st)
		}
		body := w.stmts(s.Body.List, st)
		if s.Post != nil {
			body = w.stmt(s.Post, body)
		}
		return merge(st, body) // zero or more iterations
	case *ast.RangeStmt:
		st = w.expr(s.X, st)
		body := w.stmts(s.Body.List, st)
		return merge(st, body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		if s.Tag != nil {
			st = w.expr(s.Tag, st)
		}
		return w.caseBodies(s.Body, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		return w.caseBodies(s.Body, st)
	case *ast.SelectStmt:
		return w.caseBodies(s.Body, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.IncDecStmt:
		return w.expr(s.X, st)
	case *ast.SendStmt:
		st = w.expr(s.Chan, st)
		return w.expr(s.Value, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						st = w.expr(v, st)
					}
				}
			}
		}
		return st
	default:
		return st
	}
}

// caseBodies merges the exits of a switch/select's clauses. Conservative
// about termination: the fall-through (no clause taken) path is always
// merged in, so a switch never terminates the walk by itself.
func (w *walker) caseBodies(body *ast.BlockStmt, st state) state {
	out := st
	for _, c := range body.List {
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				st = w.expr(e, st)
			}
			list = c.Body
		case *ast.CommClause:
			list = c.Body
		}
		out = merge(out, w.stmts(list, st))
	}
	return out
}

// expr processes calls inside an expression in source order: note calls
// clear pending, delete/copy/clear of a guarded field sets it, other
// same-module calls propagate their summaries, and a Table-mutex Unlock
// with pending set is a finding. Function literals are not walked: their bodies run at some
// other time (or not at all) and are summarized only if they are
// themselves declared functions.
func (w *walker) expr(e ast.Expr, st state) state {
	if e == nil {
		return st
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Arguments evaluate before the call: visit them via the ongoing
		// Inspect; the classification below only inspects the call itself.
		switch {
		case w.isNoteCall(call):
			st.pending = false
		case w.isGuardedBuiltin(call):
			st.pending = true
		case w.isTableUnlock(call):
			if st.pending && !w.deferredNote {
				w.pa.pass.Reportf(call.Pos(),
					"%s releases the table lock with an unlogged mutation: call %s before unlocking",
					w.fi.Fn.Name(), noteMethod)
				st.pending = false // one report per escape, not per unlock
			}
		default:
			if fn, _ := callgraph.Resolve(w.pa.pass.TypesInfo, call); fn != nil {
				if w.pa.writesPendingOf(fn) {
					st.pending = true
				}
			}
		}
		return true
	})
	return st
}

// isNoteCall reports whether call is x.noteMutationLocked(...) on a Table.
func (w *walker) isNoteCall(call *ast.CallExpr) bool {
	fn, _ := callgraph.Resolve(w.pa.pass.TypesInfo, call)
	if fn == nil || fn.Name() != noteMethod {
		return false
	}
	recv := methodRecvType(fn)
	return recv != nil && isTable(recv)
}

// methodRecvType returns the receiver type of a method, or nil for a
// plain function.
func methodRecvType(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// isGuardedBuiltin reports whether call is delete, copy or clear writing a
// guarded field of a tracked base (delete(t.over, id), copy(t.vals[i:], row)).
func (w *walker) isGuardedBuiltin(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || (id.Name != "delete" && id.Name != "copy" && id.Name != "clear") {
		return false
	}
	if _, ok := w.pa.pass.TypesInfo.Uses[id].(*types.Builtin); !ok {
		return false
	}
	return len(call.Args) > 0 && w.guardedWrite(call.Args[0])
}

// isTableUnlock reports whether call is t.mu.Unlock() (or RUnlock) on a
// mutex field of a tracked Table.
func (w *walker) isTableUnlock(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Unlock" && sel.Sel.Name != "RUnlock") {
		return false
	}
	fn, ok := w.pa.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	recv := methodRecvType(fn)
	if recv == nil {
		return false
	}
	if !analysis.IsNamed(recv, "sync", "Mutex") && !analysis.IsNamed(recv, "sync", "RWMutex") {
		return false
	}
	// The mutex must itself be a field selected from a tracked Table.
	muSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return w.trackedBase(muSel.X)
}

// guardedWrite reports whether lhs denotes a guarded field such as t.over or
// t.vals (possibly via indexing or slicing) with t a tracked receiver or
// parameter.
func (w *walker) guardedWrite(lhs ast.Expr) bool {
	e := ast.Unparen(lhs)
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
			continue
		case *ast.SliceExpr:
			e = ast.Unparen(x.X)
			continue
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
			continue
		}
		break
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || !guardedFields[sel.Sel.Name] {
		return false
	}
	if s, ok := w.pa.pass.TypesInfo.Selections[sel]; !ok || s.Kind() != types.FieldVal || !isTable(s.Recv()) {
		return false
	}
	return w.trackedBase(sel.X)
}

// trackedBase reports whether e (after unwrapping derefs/parens) is an
// identifier bound to the receiver or a Table parameter.
func (w *walker) trackedBase(e ast.Expr) bool {
	e = ast.Unparen(e)
	if star, ok := e.(*ast.StarExpr); ok {
		e = ast.Unparen(star.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	return w.bases[w.pa.pass.TypesInfo.Uses[id]]
}
