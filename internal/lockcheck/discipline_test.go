package lockcheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestLockDiscipline holds the rule that nothing blocks inside a lock
// window: between x.Lock() or x.RLock() and x's unlock (a deferred unlock
// holds to the function's end) there is no channel send or receive, no
// select without a default, no time.Sleep and no .Wait() call. A reader
// blocked there stalls every writer queued on the lock, and with a second
// lock in the picture it deadlocks. The check keys on call syntax, so a
// lock of any type counts. It is lexical and per function: a goroutine or
// a function literal does not run under its caller's locks and is judged
// on its own.
func TestLockDiscipline(t *testing.T) {
	t.Run("cases", func(t *testing.T) {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, filepath.Join("testdata", "locks.go"), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		want, wantRE := map[int]*regexp.Regexp{}, regexp.MustCompile("^// want `(.*)`$")
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if m := wantRE.FindStringSubmatch(c.Text); m != nil {
					want[fset.Position(c.Pos()).Line] = regexp.MustCompile(m[1])
				}
			}
		}
		var d discipline
		d.file(f)
		for _, fd := range d.findings {
			line := fset.Position(fd.pos).Line
			if re := want[line]; re == nil || !re.MatchString(fd.msg) {
				t.Errorf("line %d: unexpected finding %q", line, fd.msg)
			}
			delete(want, line)
		}
		for line, re := range want {
			t.Errorf("line %d: no finding matching %q", line, re)
		}
	})

	t.Run("module", func(t *testing.T) {
		fset := token.NewFileSet()
		var d discipline
		root := filepath.Join("..", "..")
		err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if e.IsDir() {
				if _, mod := os.Stat(filepath.Join(path, "go.mod")); path != root &&
					(e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".") || mod == nil) {
					return filepath.SkipDir // fixtures, tool state, other modules
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			d.file(f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, fd := range d.findings {
			t.Errorf("%s: %s", fset.Position(fd.pos), fd.msg)
		}
		if d.windows != servedWindows {
			t.Fatalf("the walk found %d lock windows in the module's non-test code, not %d: re-derive servedWindows and docs/INVARIANTS.md's count", d.windows, servedWindows)
		}
	})
}

// servedWindows is the number of lock windows in the module's non-test
// code. A window added or removed changes it, so the count docs/INVARIANTS.md
// quotes is the one the walk checked.
const servedWindows = 53

// discipline walks function bodies in source order, tracking the locks
// held at each node by their rendered receivers ("t.mu").
type discipline struct {
	held     []string
	windows  int
	findings []finding
}

type finding struct {
	pos token.Pos
	msg string
}

func (d *discipline) file(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		}
		if body != nil {
			d.held = d.held[:0]
			ast.Inspect(body, d.visit)
		}
		return true
	})
}

func (d *discipline) visit(n ast.Node) bool {
	switch x := n.(type) {
	case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
		return false // runs later, or elsewhere; a deferred unlock holds to the end
	case *ast.CallExpr:
		sel, ok := x.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch recv, name := types.ExprString(sel.X), sel.Sel.Name; {
		case recv == "time" && name == "Sleep":
			d.report(x, "time.Sleep")
		case len(x.Args) > 0:
		case name == "Wait":
			d.report(x, "%s.Wait", recv)
		case (name == "Lock" || name == "RLock") && !slices.Contains(d.held, recv):
			d.held = append(d.held, recv)
			d.windows++
		case name == "Unlock" || name == "RUnlock":
			if i := slices.Index(d.held, recv); i >= 0 {
				d.held = slices.Delete(d.held, i, i+1)
			}
		}
	case *ast.SendStmt:
		d.report(x, "channel send")
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			d.report(x, "channel receive")
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range x.Body.List {
			hasDefault = hasDefault || c.(*ast.CommClause).Comm == nil
		}
		if !hasDefault {
			d.report(x, "blocking select")
		}
	case *ast.CommClause:
		for _, s := range x.Body { // a case's own operation is the select's
			ast.Inspect(s, d.visit)
		}
		return false
	}
	return true
}

func (d *discipline) report(n ast.Node, format string, args ...any) {
	if len(d.held) > 0 {
		msg := fmt.Sprintf(format, args...) + " while holding " + d.held[len(d.held)-1]
		d.findings = append(d.findings, finding{n.Pos(), msg})
	}
}
