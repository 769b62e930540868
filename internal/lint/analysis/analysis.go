// Package analysis is a dependency-free miniature of the
// golang.org/x/tools/go/analysis framework: just enough Analyzer / Pass /
// Diagnostic surface for semandaq-vet's custom checkers, built only on the
// standard library (go/ast, go/types), plus the interprocedural layer the
// x/tools framework calls facts (facts.go): typed, serializable statements
// about package-level objects that flow across package boundaries when the
// driver analyzes packages in import-DAG order.
//
// Why not the real thing: the repo builds offline with no module
// dependencies, and the x/tools framework is not vendored. The API shape
// is kept deliberately close to x/tools so the analyzers read idiomatically
// and could be ported to the real framework by swapping the import.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //semandaq:vet-ignore directives. By convention it is a single
	// lowercase word.
	Name string
	// Doc is the one-paragraph description printed by semandaq-vet -list.
	Doc string
	// Run applies the check to a single type-checked package, reporting
	// findings through pass.Report / pass.Reportf.
	Run func(pass *Pass) error
	// Requires lists analyzers whose facts this one imports; the driver
	// runs them over each package first (callgraph is the usual entry).
	Requires []*Analyzer
	// FactTypes lists one zero value per fact type the analyzer exports,
	// so the driver can register them with gob before the run.
	FactTypes []Fact
	// End, if non-nil, runs once after every package has been analyzed,
	// with the module-wide fact store: whole-program checks (lock-order
	// cycles) that no single package can decide live here.
	End func(pass *EndPass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	store       *FactStore
	directives  *Directives
	diagnostics []Diagnostic
}

// Diagnostic is one finding. Pos locates it when the finding comes from a
// per-package pass; End-phase findings carry a pre-resolved Posn instead
// (their witnessing positions travel through serialized facts, outliving
// any single pass's FileSet).
type Diagnostic struct {
	Pos      token.Pos
	Posn     token.Position // authoritative when Posn.Filename != ""
	Message  string
	Analyzer string
}

// Position resolves the diagnostic's location against fset.
func (d Diagnostic) Position(fset *token.FileSet) token.Position {
	if d.Posn.Filename != "" {
		return d.Posn
	}
	return fset.Position(d.Pos)
}

// IgnoreDirective is the comment prefix that suppresses a diagnostic on
// the same line or on the line immediately below the comment:
//
//	//semandaq:vet-ignore lockorder both locks are private to one call
//
// The first word after the prefix names the analyzer (or "all"); the rest
// of the line is a free-form reason, which is mandatory by convention so
// every suppression is self-documenting. A directive that suppresses
// nothing is itself a finding (Directives.Stale): stale suppressions hide
// real diagnostics at the same line from future readers.
const IgnoreDirective = "//semandaq:vet-ignore"

// Directives indexes every //semandaq:vet-ignore comment of a run and
// records which ones actually suppressed a diagnostic. One instance is
// shared by all passes of a run so usage accumulates across analyzers and
// packages.
type Directives struct {
	// byLine maps "filename:line" to the directives on that line.
	byLine map[string][]*directive
	all    []*directive
}

type directive struct {
	posn     token.Position
	analyzer string // analyzer name or "all"
	used     bool
}

// NewDirectives returns an empty index.
func NewDirectives() *Directives {
	return &Directives{byLine: map[string][]*directive{}}
}

// AddFiles indexes the ignore directives of a package's files.
func (ds *Directives) AddFiles(fset *token.FileSet, files []*ast.File) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, IgnoreDirective) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, IgnoreDirective))
				name, _, _ := strings.Cut(rest, " ")
				if name == "" {
					continue
				}
				posn := fset.Position(c.Pos())
				d := &directive{posn: posn, analyzer: name}
				key := fmt.Sprintf("%s:%d", posn.Filename, posn.Line)
				ds.byLine[key] = append(ds.byLine[key], d)
				ds.all = append(ds.all, d)
			}
		}
	}
}

// suppresses reports whether a directive on posn's line or the line above
// covers analyzer, marking the matching directive used.
func (ds *Directives) suppresses(posn token.Position, analyzer string) bool {
	if ds == nil {
		return false
	}
	hit := false
	for _, line := range []int{posn.Line, posn.Line - 1} {
		key := fmt.Sprintf("%s:%d", posn.Filename, line)
		for _, d := range ds.byLine[key] {
			if d.analyzer == analyzer || d.analyzer == "all" {
				d.used = true
				hit = true
			}
		}
	}
	return hit
}

// Stale returns one diagnostic per directive that suppressed nothing during
// the run. ran is the set of analyzer names that executed: a directive
// naming an analyzer that did not run is not judged (a -run subset must not
// condemn the others' suppressions), and an "all" directive is only judged
// when allRan. Unknown analyzer names are always stale — a typo suppresses
// nothing forever.
func (ds *Directives) Stale(ran map[string]bool, allRan bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range ds.all {
		if d.used {
			continue
		}
		switch {
		case d.analyzer == "all":
			if !allRan {
				continue
			}
		case !ran[d.analyzer]:
			// Directive names a known analyzer that was skipped this run:
			// cannot judge. Unknown names fall through via ran[...] == false
			// only when the caller includes every registered name in ran —
			// the driver passes known=false names separately.
			if _, known := knownAnalyzers[d.analyzer]; known {
				continue
			}
		}
		msg := fmt.Sprintf("stale //semandaq:vet-ignore %s: the directive suppresses nothing", d.analyzer)
		if _, known := knownAnalyzers[d.analyzer]; !known && d.analyzer != "all" {
			msg += " (no analyzer by that name; use semandaq-vet -list)"
		}
		out = append(out, Diagnostic{Posn: d.posn, Message: msg, Analyzer: SuppressionCheck})
	}
	return out
}

// SuppressionCheck is the pseudo-analyzer name stale-directive findings are
// reported under.
const SuppressionCheck = "suppression"

// knownAnalyzers collects every analyzer name ever registered with the
// framework in this process (RegisterName); Stale uses it to distinguish
// "skipped this run" from "no such analyzer".
var knownAnalyzers = map[string]bool{}

// RegisterName records an analyzer name as existing. The driver registers
// its full suite before judging staleness.
func RegisterName(names ...string) {
	for _, n := range names {
		knownAnalyzers[n] = true
	}
}

// NewPass builds a Pass over a type-checked package. store carries facts
// across passes (nil for a fact-free run); directives is the run's shared
// suppression index (nil disables suppression).
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, store *FactStore, directives *Directives) *Pass {
	return &Pass{
		Analyzer:   a,
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		TypesInfo:  info,
		store:      store,
		directives: directives,
	}
}

// Report records a finding unless an ignore directive covers it.
func (p *Pass) Report(d Diagnostic) {
	if p.directives.suppresses(d.Position(p.Fset), p.Analyzer.Name) {
		return
	}
	d.Analyzer = p.Analyzer.Name
	p.diagnostics = append(p.diagnostics, d)
}

// Reportf records a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostics returns the findings recorded so far, in report order.
func (p *Pass) Diagnostics() []Diagnostic { return p.diagnostics }

// ExportFactByKey attaches fact to key (KeyOf a package-level function,
// method or type of any package in the module) for downstream passes.
func (p *Pass) ExportFactByKey(key ObjKey, fact Fact) error {
	if p.store == nil {
		return fmt.Errorf("%s: no fact store in this run", p.Analyzer.Name)
	}
	return p.store.export(p.Analyzer.Name, key, fact)
}

// ImportFactByKey decodes the fact of fact's type this analyzer attached
// to key (over any previously analyzed package) into fact, reporting
// whether one existed.
func (p *Pass) ImportFactByKey(key ObjKey, fact Fact) bool {
	if p.store == nil {
		return false
	}
	return p.store.importInto(p.Analyzer.Name, key, fact)
}

// ImportRequiredFact imports a fact exported by one of the analyzers this
// one Requires (e.g. the callgraph pass's callee lists).
func (p *Pass) ImportRequiredFact(from *Analyzer, key ObjKey, fact Fact) bool {
	if p.store == nil {
		return false
	}
	return p.store.importInto(from.Name, key, fact)
}

// ExportPackageFact attaches a fact to the package being analyzed; EndPass
// unions package facts module-wide.
func (p *Pass) ExportPackageFact(fact Fact) error {
	if p.store == nil {
		return fmt.Errorf("%s: no fact store in this run", p.Analyzer.Name)
	}
	return p.store.export(p.Analyzer.Name, ObjKey{Pkg: p.Pkg.Path()}, fact)
}

// EndPass is the module-wide view an analyzer's End hook runs with.
type EndPass struct {
	Analyzer    *Analyzer
	store       *FactStore
	directives  *Directives
	diagnostics []Diagnostic
}

// NewEndPass builds the End-phase pass; the driver calls it after the last
// package.
func NewEndPass(a *Analyzer, store *FactStore, directives *Directives) *EndPass {
	return &EndPass{Analyzer: a, store: store, directives: directives}
}

// PackageFactKeys returns the package paths this analyzer attached a fact
// of fact's type to, in sorted order.
func (p *EndPass) PackageFactKeys(fact Fact) []string {
	return p.store.packageFacts(p.Analyzer.Name, fact)
}

// ImportPackageFact decodes the package fact of fact's type for pkgPath.
func (p *EndPass) ImportPackageFact(pkgPath string, fact Fact) bool {
	return p.store.importInto(p.Analyzer.Name, ObjKey{Pkg: pkgPath}, fact)
}

// Reportf records a module-level finding at a pre-resolved position
// (typically carried in a fact), honouring ignore directives at that line.
func (p *EndPass) Reportf(posn token.Position, format string, args ...any) {
	if p.directives.suppresses(posn, p.Analyzer.Name) {
		return
	}
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Posn:     posn,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Diagnostics returns the End-phase findings.
func (p *EndPass) Diagnostics() []Diagnostic { return p.diagnostics }

// Run applies the analyzer to one package and returns its findings,
// threading the run's fact store and directive index. Either may be nil
// for single-package, fact-free use.
func Run(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	return RunPass(a, fset, files, pkg, info, nil, nil)
}

// RunPass is Run with an explicit fact store and directive index.
func RunPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, store *FactStore, directives *Directives) ([]Diagnostic, error) {
	pass := NewPass(a, fset, files, pkg, info, store, directives)
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path(), err)
	}
	return pass.Diagnostics(), nil
}

// Plan expands analyzers into execution order: every analyzer's Requires
// run before it, each analyzer exactly once, input order otherwise
// preserved. It also registers all names and fact types.
func Plan(analyzers []*Analyzer) []*Analyzer {
	var out []*Analyzer
	seen := map[string]bool{}
	var add func(a *Analyzer)
	add = func(a *Analyzer) {
		if seen[a.Name] {
			return
		}
		seen[a.Name] = true
		for _, r := range a.Requires {
			add(r)
		}
		out = append(out, a)
	}
	for _, a := range analyzers {
		add(a)
	}
	RegisterFactTypes(out...)
	for _, a := range out {
		RegisterName(a.Name)
	}
	return out
}
